"""End-to-end tests for the rungemod command line front end.

Every test drives `run(argv, out=...)` directly so exit codes are the
function's return value, not shell pipeline status.
"""

import hashlib
import json
import math
import time
from decimal import Decimal
from fractions import Fraction
from io import StringIO

import pytest

from rungemod.analytic import RealInterval
from rungemod.bounds import height_rational, split_cartan_level_cap
from rungemod.cli import DEFAULT_PRECISION, run
from rungemod.cusps import CuspClass, enumerate_cusps
from rungemod.modnt import parse_preset


def invoke(argv):
    buf = StringIO()
    rc = run(argv, out=buf)
    return rc, buf.getvalue()


def invoke_json(argv):
    rc, text = invoke(argv + ["--format", "json"])
    payload = json.loads(text) if text.strip() else None
    return rc, payload


# ------------------------------------------------------------- exit codes


def test_cusps_ok_exit_zero():
    rc, text = invoke(["cusps", "--group", "split:7"])
    assert rc == 0
    assert "4 cusps" in text or "cusp_count" in text or "4" in text


def test_runge_unit_sigma_improper_exit_one():
    # full level structure at 5: every cusp is rational, sigma = all of them
    rc, text = invoke(["runge-unit", "--group", "full:5", "--sigma", "rational"])
    assert rc == 1


def test_unknown_theorem_exit_two():
    rc, _ = invoke(["bound", "--theorem", "nosuch", "--p", "7"])
    assert rc == 2


def test_tspto_without_p_exit_two():
    rc, _ = invoke(["bound", "--theorem", "tspto"])
    assert rc == 2


def test_bad_group_exit_two():
    rc, _ = invoke(["cusps", "--group", "nosuch"])
    assert rc == 2


@pytest.mark.parametrize("token", ["split:3^10000000", "split:3^99999999",
                                   "split:618970019642690137449562111"])  # 2^89 - 1, prime
def test_oversized_preset_modulus_is_refused_at_once(token, capsys):
    # neither p^exponent nor the factors of a huge base are computed: the cap comes first
    start = time.perf_counter()
    rc, text = invoke(["cusps", "--group", token])
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and text == ""
    assert "343" in capsys.readouterr().err


def test_samples_must_be_positive():
    # zero samples would certify nothing and still report success
    for n in ("0", "-3"):
        rc, text = invoke(["verify-analytic", "--samples", n])
        assert rc == 2 and text == ""


def test_bad_env_precision_exit_two(monkeypatch):
    monkeypatch.setenv("RUNGE_PRECISION", "not-a-number")
    rc, _ = invoke(["cusps", "--group", "split:5"])
    assert rc == 2


def test_group_file_is_accepted(tmp_path):
    # diagonal torus at 5; determinants generate all of (Z/5)^x
    path = tmp_path / "group.txt"
    path.write_text("N=5\n2 0 0 1\n1 0 0 2\n4 0 0 4\n")
    rc, payload = invoke_json(["cusps", "--group", str(path)])
    assert rc == 0
    assert payload["level"] == 5


def test_runge_unit_bound_beyond_float_range_exit_zero(tmp_path):
    # Gamma1-type group mod 47: 23 rational orbits, B^2 beyond float range but B within it
    path = tmp_path / "gamma1_47.txt"
    path.write_text("N=47\n1 1 0 1\n1 0 0 5\n")
    rc, text = invoke(
        ["runge-unit", "--group", str(path), "--sigma", "rational", "--s", "23", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(text)
    assert payload["s"] == 23 and len(payload["sigma"]) == 23
    assert Fraction(payload["bound_B"]) ** 2 >= int(payload["bound_B_squared"])


# ------------------------------------------------------------ JSON schema


def test_json_schema_and_determinism():
    rc1, text1 = invoke(["cusps", "--group", "borel:7", "--format", "json"])
    rc2, text2 = invoke(["cusps", "--group", "borel:7", "--format", "json"])
    assert rc1 == rc2 == 0
    assert text1 == text2
    payload = json.loads(text1)
    assert payload["schema"] == 1
    assert payload["command"] == "cusps"


def test_cusps_json_round_trip():
    rc, payload = invoke_json(["cusps", "--group", "split:11"])
    assert rc == 0
    G = parse_preset("split:11")
    want = set(enumerate_cusps(G))
    got = set(
        CuspClass(payload["level"], tuple(c["rep"]), c["width"], tuple(c["lift"]))
        for c in payload["cusps"]
    )
    assert got == want
    assert payload["cusp_count"] == len(want)
    assert payload["sl2_index"] == sum(c["width"] for c in payload["cusps"])


def test_cusps_orbit_degrees():
    rc, payload = invoke_json(["cusps", "--group", "split:7"])
    assert rc == 0
    degrees = sorted(orbit["degree"] for orbit in payload["orbits"])
    assert degrees == [1, 3]


# ---------------------------------------------------------------- bounds


def test_bound_tspto_json():
    rc, payload = invoke_json(["bound", "--theorem", "tspto", "--p", "11"])
    assert rc == 0
    assert payload["name"] == "tspto"
    assert payload["value_exact_form"] == "23·p·log p"
    want = 23 * 11 * math.log(11)
    assert payload["value_log"] >= want
    assert payload["value_log"] <= want * (1 + 1e-12)


def test_bound_tbo_exact_via_cli():
    rc, payload = invoke_json(
        ["bound", "--theorem", "tbo", "--group", "split:7", "--s", "1"]
    )
    assert rc == 0
    assert payload["value_exact"] == "740880"
    assert payload["value_log"] >= 740880.0


def test_bound_tbo_exact_value_past_the_digit_limit():
    # at s = 860 the exact value has 4318 digits, past str()'s 4300-digit limit
    # for ints; it is written in full, not refused as a usage error
    argv = ["bound", "--theorem", "tbo", "--group", "split:7", "--s", "860"]
    want = Decimal(860 ** 431 * (72 * 49) ** 860 * 7 * 30)
    rc, payload = invoke_json(argv)
    assert rc == 0
    assert len(payload["value_exact"]) == 4318
    assert Decimal(payload["value_exact"]) == want
    rc, text = invoke(argv)
    assert rc == 0
    assert "  value = %s (exact)\n" % payload["value_exact"] in text


def test_bound_th1_via_cli():
    rc, payload = invoke_json(["bound", "--theorem", "th1", "--group", "split:7"])
    assert rc == 0
    want = 30 * 72 * 49 * math.log(7)
    assert payload["value_log"] >= want
    assert payload["value_log"] <= want * (1 + 1e-12)


# --------------------------------------------------------------- verify


def test_verify_analytic_small_run():
    rc, payload = invoke_json(["verify-analytic", "--samples", "10", "--seed", "3"])
    assert rc == 0
    assert payload["violations"] == 0
    assert payload["indeterminate"] == 0
    assert payload["holds"] == payload["checked"]
    assert payload["checked"] > 0
    assert isinstance(payload["worst_margin"], float)
    names = set(sweep["name"] for sweep in payload["sweeps"])
    assert len(names) == 5


# ---------------------------------------------------------------- serre


def test_serre_check_single():
    rc, payload = invoke_json(["serre-check", "--p", "13", "--j", "1728000"])
    assert rc == 0
    reports = payload["reports"]
    assert len(reports) == 1
    assert reports[0]["p"] == 13
    assert reports[0]["integral_consistent"] is True
    assert reports[0]["max_n"] >= 1
    assert payload["three_prime"] is None


def test_serre_check_batch_three_prime():
    rc, payload = invoke_json(["serre-check", "--p", "11,13,17", "--j", "5077"])
    assert rc == 0
    assert [r["p"] for r in payload["reports"]] == [11, 13, 17]
    tp = payload["three_prime"]
    assert tp["product"] == str(11 * 13 * 17)
    assert tp["feasible"] is True


# ------------------------------------------------------------- precision


def test_env_precision_respected(monkeypatch):
    monkeypatch.setenv("RUNGE_PRECISION", "192")
    rc, payload = invoke_json(["bound", "--theorem", "tspto", "--p", "7"])
    assert rc == 0
    assert payload["precision"] == 192


def test_flag_beats_env(monkeypatch):
    monkeypatch.setenv("RUNGE_PRECISION", "192")
    rc, payload = invoke_json(
        ["bound", "--theorem", "tspto", "--p", "7", "--precision", "256"]
    )
    assert rc == 0
    assert payload["precision"] == 256


def test_default_precision(monkeypatch):
    monkeypatch.delenv("RUNGE_PRECISION", raising=False)
    rc, payload = invoke_json(["bound", "--theorem", "tspto", "--p", "7"])
    assert rc == 0
    assert payload["precision"] == DEFAULT_PRECISION


# ------------------------------------------------------------- runge-unit


def test_runge_unit_split5_json():
    rc, payload = invoke_json(
        ["runge-unit", "--group", "split:5", "--sigma", "rational"]
    )
    assert rc == 0
    assert payload["command"] == "runge-unit"
    exps = payload["exponents"]
    assert len(exps) >= 1
    assert all(isinstance(e["exponent"], int) for e in exps)
    assert any(e["exponent"] != 0 for e in exps)
    assert all(e["n"] == 5 for e in exps)
    total = sum(d["width"] * d["order"] for d in payload["divisor"])
    assert total == 0
    assert payload["l1_norm"] >= 1


# --------------------------------------------------- printed upper bounds


def test_printed_floats_are_upper_bounds():
    # each float field is checked against the exact value or a 600-bit enclosure
    for p in (11, 13, 17):
        tspto = RealInterval.from_int(p, 600).log().scale_fraction(Fraction(23 * p))
        for j in (1, 2, 10 ** 6):
            rc, payload = invoke_json(["serre-check", "--p", str(p), "--j", str(j)])
            assert rc == 0
            (rep,) = payload["reports"]
            h = height_rational(j, payload["precision"])
            cap = split_cartan_level_cap(lambda prec: height_rational(j, prec), 600).cap
            assert Fraction(rep["height"]) >= h.hi_fraction()
            assert Fraction(rep["tspto_cap"]) >= tspto.hi_fraction()
            assert Fraction(rep["level_cap"]) >= cap.hi_fraction()
    log2 = RealInterval.from_int(2, 600).log().hi_fraction()
    for argv in (["split:3^5", "--s", "3"], ["split:5^3", "--s", "3"],
                 ["borel:3^4", "--s", "3"], ["split:7^3"]):
        rc, payload = invoke_json(["runge-unit", "--group"] + argv)
        assert rc == 0
        G = parse_preset(argv[0])
        b_sq, gn = int(payload["bound_B_squared"]), G.order * G.n
        # x >= c*B iff (x/c)^2 >= B^2, for the budgets 9 B |G| N and 12 B |G| N log 2
        assert Fraction(payload["bound_B"]) ** 2 >= b_sq
        assert (Fraction(payload["lambda_budget_relaxed"]) / (9 * gn)) ** 2 >= b_sq
        assert (Fraction(payload["lambda_budget_log2"]) / (12 * gn * log2)) ** 2 >= b_sq


# --------------------------------------------------------------- selftest


def test_selftest_passes():
    rc, text = invoke(["selftest"])
    assert rc == 0
    assert "FAIL" not in text


# ------------------------------------------------------- frozen JSON output

_DIGEST_TEXTS = {
    "text:gamma1:12": "N=12\n1 1 0 1\n1 0 0 5\n1 0 0 7\n",
    "text:scalar5:13": "N=13\n1 1 0 1\n5 0 0 5\n",
}
_DIGEST_GROUPS = ["split:7^3", "nonsplit:7^2", "borel:3^4", "full:3^2", *_DIGEST_TEXTS]
_DIGEST_PLAIN = [
    ["selftest"],
    ["verify-analytic", "--samples", "20", "--seed", "42"],
    ["serre-check", "--p", "11,13,17", "--j", "5077"],
    ["bound", "--theorem", "tbo", "--group", "split:7", "--s", "3"],
    ["bound", "--theorem", "tspto", "--p", "13"],
]
# the first 16 hex digits of sha256 over the exit code, stdout and stderr of each argv
_DIGESTS = {
    "cusps --group split:7^3": "e5045c52fd2f867d",
    "runge-unit --group split:7^3": "c7263876218168ed",
    "bound --theorem th1 --group split:7^3": "22b26f453bbaee76",
    "cusps --group nonsplit:7^2": "e173d6251f72c039",
    "runge-unit --group nonsplit:7^2": "2c49fd4b565cc0f8",
    "bound --theorem th1 --group nonsplit:7^2": "7bd410b8ff079762",
    "cusps --group borel:3^4": "c48efa2b4f0d7e70",
    "runge-unit --group borel:3^4": "2cf4b4fc663ca614",
    "bound --theorem th1 --group borel:3^4": "e2eb7327d472cadd",
    "cusps --group full:3^2": "a1b439630a168cf5",
    "runge-unit --group full:3^2": "2c49fd4b565cc0f8",
    "bound --theorem th1 --group full:3^2": "b99b16b63d1199e3",
    "cusps --group text:gamma1:12": "4af54f9e3deb0b71",
    "runge-unit --group text:gamma1:12": "c6b9e98ae0b56283",
    "bound --theorem th1 --group text:gamma1:12": "84ff2ad64f1b6a74",
    "cusps --group text:scalar5:13": "e7697f8908bf67b7",
    "runge-unit --group text:scalar5:13": "e7697f8908bf67b7",
    "bound --theorem th1 --group text:scalar5:13": "e7697f8908bf67b7",
    "selftest": "ea31a4381cda8346",  # j(i) radius 4.68e-42 -> 4.56e-42
    "verify-analytic --samples 20 --seed 42": "005842e115f6caa8",
    "serre-check --p 11,13,17 --j 5077": "b1e40424f0456a6d",
    "bound --theorem tbo --group split:7 --s 3": "ff9be729bd97a657",
    "bound --theorem tspto --p 13": "7286248405497231",
}


def test_json_digests_frozen(tmp_path, capsys):
    # byte-identical CLI JSON for a fixed argv: a change on purpose updates its digest here
    argvs = {}
    for group in _DIGEST_GROUPS:
        path = group
        if group in _DIGEST_TEXTS:
            path = str(tmp_path / group.replace(":", "_"))
            (tmp_path / group.replace(":", "_")).write_text(_DIGEST_TEXTS[group])
        for cmd in (["cusps"], ["runge-unit"], ["bound", "--theorem", "th1"]):
            argvs[" ".join(cmd + ["--group", group])] = cmd + ["--group", path]
    argvs.update((" ".join(argv), argv) for argv in _DIGEST_PLAIN)
    got = {}
    for label, argv in argvs.items():
        rc, text = invoke(argv + ["--format", "json"])
        blob = f"{rc}\n{text}\n{capsys.readouterr().err}".encode()
        got[label] = hashlib.sha256(blob).hexdigest()[:16]
    assert got == _DIGESTS

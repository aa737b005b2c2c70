"""Command line front end.

Subcommands map one-to-one onto the library layers: `cusps` and
`runge-unit` for the exact combinatorics, `bound` for the height bounds,
`verify-analytic` for the certified inequality sweeps, `serre-check` for
the level-cap chain, and `selftest` for a quick invariant battery.

Exit codes: 0 success, 1 certification or hypothesis failure, 2 usage.
JSON output is deterministic for a fixed argv and seed and carries a
`schema` version field.
"""

import argparse
import dataclasses
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .analytic import (
    DEFAULT_PRECISION,
    UpperHalfPoint,
    eval_j,
    run_all_sweeps,
)
from .bounds import (
    KAPPA_SPLIT_CARTAN,
    BoundReport,
    bound_tbo,
    bound_th1,
    bound_tspto,
    calR,
    pellarin_degree,
    serre_check,
    three_prime_check,
    twist_equation,
)
from .cusps import enumerate_cusps, galois_orbits, sl2_index
from .errors import (
    ModulusMismatch,
    NonInvertibleGenerator,
    RungemodError,
    UnsupportedModulus,
)
from .modnt import SubgroupG, parse_group_text, parse_preset
from .units import divisor_matrix, divisor_rank, runge_unit, weighted_column_sums

SCHEMA = 1

_USAGE_ERRORS = (ModulusMismatch, NonInvertibleGenerator, UnsupportedModulus, ValueError)


def _resolve_precision(value: Optional[int]) -> int:
    if value is not None:
        if value < 8:
            raise ValueError("precision must be at least 8 bits")
        return value
    env = os.environ.get("RUNGE_PRECISION")
    if env is None:
        return DEFAULT_PRECISION
    try:
        parsed = int(env)
    except ValueError:
        raise ValueError("RUNGE_PRECISION must be an integer, got %r" % env)
    if parsed < 8:
        raise ValueError("RUNGE_PRECISION must be at least 8 bits")
    return parsed


def _load_group(spec: str) -> SubgroupG:
    """Accept preset shorthand like split:7 or a path to a group file."""
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_group_text(fh.read())
    if ":" in spec:
        return parse_preset(spec)
    raise ValueError(
        "group %r is neither a preset (kind:p) nor a readable file" % spec
    )


def _parse_primes(text: str) -> List[int]:
    if not text:
        return []
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _emit(payload: Dict, fmt: str, text_lines: List[str], out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, indent=2))
        out.write("\n")
    else:
        for line in text_lines:
            out.write(line + "\n")


def _exact_text(q: Fraction) -> str:
    """str(q) at any size: Decimal writes an int's digits without str's 4300-digit limit."""
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else "%s/%s" % (num, Decimal(q.denominator))


def _bound_payload(rep: BoundReport, precision: int) -> Dict:
    return {
        "schema": SCHEMA,
        "command": "bound",
        "name": rep.name,
        "inputs": dict(rep.inputs),
        "value_log": rep.upper_float(),
        "value_exact": None if rep.value_exact is None else _exact_text(rep.value_exact),
        "value_exact_form": rep.value_exact_form,
        "applicable": rep.applicable,
        "reason": rep.reason,
        "precision": precision,
    }


def _bound_text(rep: BoundReport) -> List[str]:
    lines = ["%s: %s" % (rep.name, rep.value_exact_form)]
    for key in sorted(rep.inputs):
        lines.append("  %s = %s" % (key, rep.inputs[key]))
    if rep.value_exact is not None:
        lines.append("  value = %s (exact)" % _exact_text(rep.value_exact))
    lines.append("  value <= %.17g (rounded up)" % rep.upper_float())
    return lines


def cmd_cusps(args, out) -> int:
    G = _load_group(args.group)
    cusps = enumerate_cusps(G)
    orbits = galois_orbits(G)
    payload = {
        "schema": SCHEMA,
        "command": "cusps",
        "group": G.label,
        "level": G.n,
        "cusp_count": len(cusps),
        "sl2_index": sl2_index(G),
        "cusps": [
            {"rep": list(c.rep), "width": c.width, "lift": list(c.lift)} for c in cusps
        ],
        "orbits": [
            {"degree": o.degree, "reps": [list(c.rep) for c in o.members]} for o in orbits
        ],
    }
    lines = [
        "group %s  level %d  cusps %d  orbits %d  sl2_index %d"
        % (G.label, G.n, len(cusps), len(orbits), sl2_index(G))
    ]
    for c in cusps:
        lines.append("cusp %-8s width %-3d lift %s" % (str(c.rep), c.width, str(c.lift)))
    for k, o in enumerate(orbits):
        reps = " ".join(str(c.rep) for c in o.members)
        lines.append("orbit %d  degree %d  %s" % (k, o.degree, reps))
    _emit(payload, args.format, lines, out)
    return 0


def _select_sigma(orbits, spec: str):
    if spec == "rational":
        return [o for o in orbits if o.degree == 1]
    picked = []
    for tok in spec.split(","):
        idx = int(tok)
        if not 0 <= idx < len(orbits):
            raise ValueError("orbit index %d out of range 0..%d" % (idx, len(orbits) - 1))
        picked.append(orbits[idx])
    return picked


def cmd_runge_unit(args, out) -> int:
    G = _load_group(args.group)
    orbits = galois_orbits(G)
    sigma = _select_sigma(orbits, args.sigma)
    unit = runge_unit(G, sigma, args.s)
    exponents = sorted(
        ((a.n, a.a1, a.a2, b) for a, b in unit.exponents.items() if b != 0)
    )
    div = sorted(
        ((list(c.rep), c.width, v) for c, v in unit.divisor.orders.items()),
        key=lambda t: t[0],
    )
    payload = {
        "schema": SCHEMA,
        "command": "runge-unit",
        "group": G.label,
        "level": G.n,
        "s": unit.s,
        "sigma": [[list(c.rep) for c in o.members] for o in unit.sigma],
        "exponents": [
            {"n": n, "a1": a1, "a2": a2, "exponent": b} for n, a1, a2, b in exponents
        ],
        "l1_norm": unit.l1_norm,
        "bound_B": unit.bound_B,
        "bound_B_squared": str(unit.bound_B_squared),
        "divisor": [{"rep": rep, "width": w, "order": v} for rep, w, v in div],
        "lambda_budget_log2": unit.lambda_budget_log2,
        "lambda_budget_relaxed": unit.lambda_budget_relaxed,
    }
    lines = [
        "group %s  s=%d  sigma orbits %d  l1_norm %d  bound_B %.6g"
        % (G.label, unit.s, len(unit.sigma), unit.l1_norm, unit.bound_B)
    ]
    for n, a1, a2, b in exponents:
        lines.append("w(%d; %d, %d) ^ %d" % (n, a1, a2, b))
    for rep, w, v in div:
        lines.append("ord at %-8s width %-3d  %d" % (str(tuple(rep)), w, v))
    _emit(payload, args.format, lines, out)
    return 0


def cmd_bound(args, out) -> int:
    if args.theorem == "tspto":
        if args.p is None:
            raise ValueError("--theorem tspto requires --p")
        rep = bound_tspto(int(args.p), args.precision)
    elif args.theorem == "th1":
        if not args.group:
            raise ValueError("--theorem th1 requires --group")
        rep = bound_th1(_load_group(args.group), args.precision)
    else:
        if not args.group:
            raise ValueError("--theorem tbo requires --group")
        G = _load_group(args.group)
        r = calR(G.n, _parse_primes(args.finite_primes), args.precision)
        rep = bound_tbo(args.s, G.order, G.n, r, via_g=True, precision=args.precision)
    _emit(_bound_payload(rep, args.precision), args.format, _bound_text(rep), out)
    return 0


def cmd_verify_analytic(args, out) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    results = run_all_sweeps(samples=args.samples, seed=args.seed, precision=args.precision)
    checked = sum(r.checked for r in results)
    holds = sum(r.holds for r in results)
    violations = sum(r.violations for r in results)
    indet = sum(r.indeterminate for r in results)
    worst = min((r.worst_margin for r in results if r.worst_margin is not None), default=None)
    payload = {
        "schema": SCHEMA,
        "command": "verify-analytic",
        "samples": args.samples,
        "seed": args.seed,
        "precision": args.precision,
        "checked": checked,
        "holds": holds,
        "violations": violations,
        "indeterminate": indet,
        "worst_margin": worst,
        "sweeps": [dataclasses.asdict(r) for r in results],
    }
    lines = [
        "%-12s checked %-6d holds %-6d violations %-3d indeterminate %-3d worst %s"
        % (r.name, r.checked, r.holds, r.violations, r.indeterminate, r.worst_margin)
        for r in results
    ]
    lines.append(
        "TOTAL        checked %-6d holds %-6d violations %-3d indeterminate %-3d worst %s"
        % (checked, holds, violations, indet, worst)
    )
    _emit(payload, args.format, lines, out)
    return 1 if violations or indet else 0


def _serre_payload(rep) -> Dict:
    return {
        "p": rep.p,
        "j": str(rep.j),
        "height": rep.height.to_floats()[1],
        "tspto_cap": rep.tspto_cap.to_floats()[1],
        "integral_consistent": rep.integral_consistent,
        "level_cap": rep.level_cap.to_floats()[1],
        "max_n": rep.max_n,
    }


def cmd_serre_check(args, out) -> int:
    ps = [int(tok) for tok in str(args.p).split(",")]
    j = int(args.j)
    reports = [serre_check(p, j, args.precision) for p in ps]
    three = None
    if len(ps) == 3 and 11 <= ps[0] < ps[1] < ps[2]:
        t = three_prime_check(ps[0], ps[1], ps[2], args.precision)
        three = {
            "p": t.p,
            "q": t.q,
            "r": t.r,
            "product": str(t.product),
            "feasible": t.feasible,
        }
    payload = {
        "schema": SCHEMA,
        "command": "serre-check",
        "precision": args.precision,
        "reports": [_serre_payload(r) for r in reports],
        "three_prime": three,
    }
    lines = []
    for r in reports:
        lines.append(
            "p=%d  j=%s  consistent=%s  max_n=%d  level_cap<=%.6g"
            % (r.p, r.j, r.integral_consistent, r.max_n, r.level_cap.to_floats()[1])
        )
    if three is not None:
        lines.append(
            "three primes %d < %d < %d: product %s feasible=%s"
            % (three["p"], three["q"], three["r"], three["product"], three["feasible"])
        )
    _emit(payload, args.format, lines, out)
    return 0


def _selftest_checks(precision: int) -> List[Tuple[str, bool, str]]:
    checks: List[Tuple[str, bool, str]] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append((name, passed, detail))

    for p in (3, 5, 7, 11):
        G = _load_group("split:%d" % p)
        cusps = enumerate_cusps(G)
        orbits = galois_orbits(G)
        degs = sorted(o.degree for o in orbits)
        ok = len(cusps) == (p + 1) // 2 and degs == sorted([1, (p - 1) // 2])
        record("cusps split:%d" % p, ok, "%d cusps, degrees %s" % (len(cusps), degs))

    for spec, want in (("split:5", 1), ("split:7", 1), ("full:5", 0)):
        G = _load_group(spec)
        M = divisor_matrix(G)
        rank = divisor_rank(M)
        want_rank = len(galois_orbits(G)) - 1
        ok = rank == want_rank
        record("divisor rank %s" % spec, ok, "rank %d" % rank)
        sums = weighted_column_sums(M)
        record("degree zero %s" % spec, all(v == 0 for v in sums), str(sums[:4]))

    G = _load_group("split:5")
    unit = runge_unit(G, [galois_orbits(G)[0]], 1)
    on_sigma = [unit.divisor.orders[c] for c in unit.sigma[0].members]
    ok = all(v > 0 for v in on_sigma) and unit.l1_norm ** 2 <= unit.bound_B_squared
    record("runge unit split:5", ok, "l1 %d" % unit.l1_norm)

    rep = bound_tbo(1, 72, 7, 0)
    record("tbo exact", rep.value_exact == 740880, str(rep.value_exact))
    v = pellarin_degree(1, 0)
    record("pellarin exact", v.lo_fraction() == Fraction(10) ** 82, "10^82")
    w = twist_equation(1729)
    record("twist 1729", (w.a4, w.a6) == (-36, -1), "a4=%s a6=%s" % (w.a4, w.a6))

    ball = eval_j(UpperHalfPoint(0, 1), precision)
    ok = ball.contains_point(Fraction(1728), Fraction(0))
    record("j(i) = 1728", ok, "radius %.3g" % ball.radius_float())
    ball = eval_j(UpperHalfPoint(0, 2), precision)
    record("j(2i) = 287496", ball.contains_point(Fraction(287496), Fraction(0)), "")

    results = run_all_sweeps(samples=25, seed=42, precision=precision)
    for r in results:
        ok = r.violations == 0 and r.indeterminate == 0 and r.holds == r.checked
        record("sweep %s" % r.name, ok, "%d/%d hold" % (r.holds, r.checked))

    n, pw = 0, 11
    while pw <= KAPPA_SPLIT_CARTAN:
        n += 1
        pw *= 11
    rep = serre_check(11, 1, precision)
    record("serre chain p=11 j=1", rep.max_n == n and rep.integral_consistent, "max_n %d" % rep.max_n)
    return checks


def cmd_selftest(args, out) -> int:
    checks = _selftest_checks(args.precision)
    all_ok = all(ok for _, ok, _ in checks)
    payload = {
        "schema": SCHEMA,
        "command": "selftest",
        "precision": args.precision,
        "passed": all_ok,
        "checks": [
            {"name": name, "passed": ok, "detail": detail} for name, ok, detail in checks
        ],
    }
    lines = ["%-24s %s  %s" % (name, "ok" if ok else "FAIL", detail) for name, ok, detail in checks]
    lines.append("selftest %s" % ("passed" if all_ok else "FAILED"))
    _emit(payload, args.format, lines, out)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rungemod",
        description="Exact cusp combinatorics, modular units, and certified bounds for X_G.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--precision", type=int, default=None)

    p = sub.add_parser("cusps", help="enumerate cusps and Galois orbits")
    p.add_argument("--group", required=True)
    common(p)
    p.set_defaults(func=cmd_cusps)

    p = sub.add_parser("runge-unit", help="build a unit positive on a cusp orbit set")
    p.add_argument("--group", required=True)
    p.add_argument("--sigma", default="rational", help="'rational' or comma list of orbit indices")
    p.add_argument("--s", type=int, default=1, help="number of places in S")
    common(p)
    p.set_defaults(func=cmd_runge_unit)

    p = sub.add_parser("bound", help="evaluate an explicit height bound")
    p.add_argument("--theorem", choices=("th1", "tbo", "tspto"), required=True)
    p.add_argument("--group", default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--finite-primes", default="", dest="finite_primes")
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify-analytic", help="run the certified inequality sweeps")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    common(p)
    p.set_defaults(func=cmd_verify_analytic)

    p = sub.add_parser("serre-check", help="height cap to level cap chain for integer j")
    p.add_argument("--p", required=True, help="odd prime, or comma list for batch mode")
    p.add_argument("--j", required=True)
    common(p)
    p.set_defaults(func=cmd_serre_check)

    p = sub.add_parser("selftest", help="quick invariant battery over all modules")
    common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def run(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on --help (0) and on malformed arguments (2)
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # validate precision up front so a bad RUNGE_PRECISION is a usage
        # error for every subcommand, not only the ones that compute
        args.precision = _resolve_precision(getattr(args, "precision", None))
        return args.func(args, out)
    except _USAGE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RungemodError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())

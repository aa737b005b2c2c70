"""Smoke tests for the scripts under scripts/, run as subprocesses or loaded from their files."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name)] + list(args),
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_margin_scan_small_run():
    proc = run_script("margin_scan.py", "--samples", "2")
    assert proc.returncode == 0, proc.stderr
    assert "worst margins over 1 seed(s)" in proc.stdout


def test_margin_scan_no_samples_fails_cleanly():
    # no samples certify no margin: a failure, reported without a traceback
    proc = run_script("margin_scan.py", "--samples", "0")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "NO CERTIFIED MARGIN" in proc.stdout


def check_census(kind):
    proc = run_script("cusp_census.py", "--kind", kind, "--max-p", "13", "--check")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "census identities hold for all 5 primes" in proc.stdout
    assert "CHECK FAILED" not in proc.stdout


def test_cusp_census_split_check():
    check_census("split")


def test_cusp_census_borel_check():
    check_census("borel")


def test_cusp_census_full_check():
    check_census("full")


def test_cusp_census_check_compares_orders(monkeypatch, capsys):
    # a closed-form order one too large must fail the check at every prime
    spec = importlib.util.spec_from_file_location(
        "cusp_census", os.path.join(ROOT, "scripts", "cusp_census.py")
    )
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    right = census.expected
    monkeypatch.setattr(
        census, "expected", lambda kind, p: (right(kind, p)[0] + 1,) + right(kind, p)[1:]
    )
    argv = ["cusp_census.py", "--kind", "borel", "--max-p", "13", "--check"]
    monkeypatch.setattr(sys, "argv", argv)
    assert census.main() == 1
    assert capsys.readouterr().out.count("CHECK FAILED") == 5

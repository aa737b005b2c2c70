"""Smoke tests for the scripts under scripts/, run as subprocesses."""

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


def test_cusp_census_split_check():
    proc = run_script("cusp_census.py", "--kind", "split", "--max-p", "13", "--check")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "census identities hold for all 5 primes" in proc.stdout
    assert "CHECK FAILED" not in proc.stdout


def test_cusp_census_borel_check():
    proc = run_script("cusp_census.py", "--kind", "borel", "--max-p", "13", "--check")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "census identities hold for all 5 primes" in proc.stdout
    assert "CHECK FAILED" not in proc.stdout

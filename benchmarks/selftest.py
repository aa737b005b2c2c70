"""Smoke test of the benchmark itself, at a tiny size.

    python3 benchmarks/selftest.py

Runs every workload untraced and traced (twice), and all of them in one
command.  Checks that every metric name in BENCHMARK.json is emitted with
its unit, that traced counts repeat exactly and show layer isolation, that
an injected wrong expected value raises fail_share above 0, and that run.py
refuses to run without the rungemod sources.  Exits 1 and lists the
problems if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import per_layer_names, unit_of  # noqa: E402

SEED = 3
problems = []


def check(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    """Run run.py; returns (exit code, last-line JSON or None, full stdout)."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout


def record(workload: str, trace: int) -> dict:
    path = ROOT / ".bench_out" / ("%s-seed%d-trace%d-tiny.json" % (workload, SEED, trace))
    return json.loads(path.read_text())


def is_count(name: str) -> bool:
    return unit_of(name) == "count"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_names = [m["name"] for m in spec["per_layer"]]
    check(e2e == dict(run.END_TO_END), "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check(layer_names == per_layer_names(), "BENCHMARK.json per_layer differs from tracer.per_layer_names()")
    check([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS), "workload names differ")

    for workload in wl.WORKLOADS:
        code, res, out = bench(workload, 0)
        check(code == 0 and res is not None, "%s: run failed (exit %d)" % (workload, code))
        if res is None:
            continue
        check(sorted(res) == ["attempted", "correct", "failed", "metrics"], "%s: result keys %s" % (workload, sorted(res)))
        check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, "%s: not correct: %s" % (workload, res))
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == e2e, "%s: end-to-end metrics %s" % (workload, got))
        for name in list(e2e) + [run.FAIL_SHARE[0]]:
            check(any(line.split()[:1] == [name] for line in out.splitlines()), "%s: %s not printed" % (workload, name))
        check(record(workload, 0)["fail_share"] == 0, "%s: fail_share not 0" % workload)

        traced = []
        for _ in range(2):
            code, res, out = bench(workload, 1)
            check(code == 0 and res is not None and res["correct"], "%s traced: run failed" % workload)
            if res is not None:
                traced.append({k: v["value"] for k, v in res["metrics"].items()})
                check([k for k in res["metrics"]] == per_layer_names(), "%s traced: metric names" % workload)
        if len(traced) == 2:
            for name in per_layer_names():
                if is_count(name):
                    check(traced[0][name] == traced[1][name],
                          "%s: count %s differs between traced runs" % (workload, name))
            m = traced[0]
            if workload == "census":
                for name in per_layer_names():
                    if name.startswith("analytic.") and is_count(name):
                        check(m[name] == 0, "census: %s = %s, expected 0" % (name, m[name]))
                check(m["units.divisor_matrix.calls"] > 0 and m["modnt.det_image.calls"] > 0,
                      "census: exact-side counts are 0")
            else:
                for name in per_layer_names():
                    if name.startswith("units.") and is_count(name):
                        check(m[name] == 0, "%s: %s = %s, expected 0" % (workload, name, m[name]))
                check(m["modnt.det_image.calls"] == 0, "%s: det_image called while timed" % workload)
                check(m["analytic.eval_j.calls"] > 0 and m["analytic.ball_mul.calls"] > 0,
                      "%s: analytic counts are 0" % workload)

        code, res, _ = bench(workload, 0, "--inject-wrong-expected")
        check(code == 0 and res is not None and not res["correct"] and res["failed"] > 0,
              "%s: injected wrong expected value went unnoticed" % workload)
        if res is not None:
            check(record(workload, 0)["fail_share"] > 0, "%s: fail_share stayed 0 under injection" % workload)

    code, res, out = bench("all", 0)
    check(code == 0 and res is not None and res["correct"], "all: run failed")
    if res is not None:
        want = ["%s.%s" % (w, m) for w in wl.WORKLOADS for m in e2e]
        check(sorted(res["metrics"]) == sorted(want), "all: metrics %s" % sorted(res["metrics"]))
        check(out.count(run.FAIL_SHARE[0]) == len(wl.WORKLOADS), "all: fail_share not printed per workload")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    code, res, _ = bench("census", 0, cwd=bare)
    check(code != 0 and res is None, "run.py ran without the rungemod sources")
    shutil.rmtree(bare)

    for p in problems:
        print("PROBLEM", p)
    print("selftest: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""rungemod benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload census --seed 1 --seconds 15 --trace 0

Workloads: sweeps-128, sweeps-1024, census (see README.md); "all" runs the
three in turn and ends with one JSON line holding all their metrics.  Each run starts
fresh worker processes one after another, never two at once.  With
--trace 0 it runs set-up probes, then whole passes of the workload's ops
until --seconds have passed (at least one pass), and reports the end-to-end
metrics.  With --trace 1 it runs one pass untraced and the same pass traced,
whatever --seconds says, and reports the per-layer metrics and the tracing
overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
result, with run metadata, goes to .bench_out/ under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import per_layer_names, unit_of  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Reported with the others, but outside the JSON metrics: it is 0 on a
# correct run, and the JSON line carries it as failed / attempted.
FAIL_SHARE = ("fail_share", "share")

SETUP_PROBES = 5
RUN_DEADLINE_S = 175.0

# ROADMAP "Baseline" figures, single runs on the same kind of machine.
BASELINE = {
    "eval_j ms/call @128": 1.1,
    "eval_j ms/call @1024": 162.0,
    "divisor_matrix s split:3^5": 2.0,
    "divisor_matrix s split:7^3": 2.5,
}


class WorkerFailed(Exception):
    pass


def metadata() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Spawns worker processes for one run, within the run's deadline."""

    def __init__(self, args) -> None:
        self.args = args
        self.started = time.monotonic()

    def spec(self, mode: str, pass_index: int = 0, trace: bool = False) -> dict:
        a = self.args
        return {
            "workload": a.workload,
            "seed": a.seed,
            "tiny": a.size == "tiny",
            "inject": a.inject_wrong_expected,
            "mode": mode,
            "pass_index": pass_index,
            "trace": trace,
            "spans_path": str(ROOT / ".bench_out" / ("spans-%s-seed%d.json" % (a.workload, a.seed))),
        }

    def spawn(self, spec: dict) -> dict:
        remaining = RUN_DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 1:
            raise WorkerFailed("run deadline reached before %s pass" % spec["mode"])
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=str(ROOT), capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise WorkerFailed("worker exceeded the run deadline") from None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            raise WorkerFailed("worker exit %d: %s" % (proc.returncode, " | ".join(tail)))
        return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_ops(args, pass_index: int) -> int:
    tiny = args.size == "tiny"
    if args.workload == "census":
        return len(wl.census_items(args.seed, tiny, pass_index))
    return len(wl.sweep_ops(args.workload, args.seed, tiny))


class Tally:
    """Attempted and failed items: ops plus the process-level checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def add_worker(self, res: dict) -> None:
        self.attempted += res["checks"]
        self.failed += len(res["check_failures"])
        self.examples += res["check_failures"]
        if "latencies_s" in res:
            self.attempted += res["attempted"]
            self.failed += len(res["failures"])
            self.examples += ["%s: %s" % (label, why) for _, label, why in res["failures"]]

    def add_lost(self, n_ops: int, why: str) -> None:
        self.attempted += n_ops + 1
        self.failed += n_ops + 1
        self.examples.append(why)


def timed_run(args, runner: Runner, tally: Tally) -> dict:
    setups, passes, info = [], [], {}
    for _ in range(SETUP_PROBES):
        res = runner.spawn(runner.spec("setup"))
        setups.append(res["setup_s"])
        tally.add_worker(res)
        info = res
    busy, begun = 0.0, time.monotonic()
    while time.monotonic() - begun < args.seconds or not passes:
        index = len(passes)
        try:
            res = runner.spawn(runner.spec("run", index))
        except WorkerFailed as exc:
            tally.add_lost(expected_ops(args, index), str(exc))
            break
        passes.append(res)
        setups.append(res["setup_s"])
        tally.add_worker(res)
        busy += sum(res["latencies_s"])
    lat_ms = [1000.0 * x for p in passes for x in p["latencies_s"]]
    if not lat_ms:
        raise WorkerFailed("no pass completed")
    return {
        "info": info,
        "passes": len(passes),
        "setup_samples": len(setups),
        "latency_samples": len(lat_ms),
        "busy_s": busy,
        "metrics": {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(lat_ms) / busy,
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0],
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        },
    }


def traced_run(args, runner: Runner, tally: Tally) -> dict:
    plain = runner.spawn(runner.spec("run", 0, trace=False))
    tally.add_worker(plain)
    traced = runner.spawn(runner.spec("run", 0, trace=True))
    tally.add_worker(traced)
    layer = dict(traced["per_layer"])
    layer["trace.overhead_s"] = traced["loop_s"] - plain["loop_s"]
    return {
        "info": traced,
        "untraced_s": plain["loop_s"],
        "traced_s": traced["loop_s"],
        "eval_j_ms_per_call": traced["eval_j_ms_per_call"],
        "divisor_matrix_s": traced["divisor_matrix_s"],
        "metrics": {name: layer[name] for name in per_layer_names()},
    }


def report_lines(args, meta: dict, out: dict, tally: Tally) -> list:
    lines = [
        "workload %s  seed %d  seconds %d  trace %d  size %s"
        % (args.workload, args.seed, args.seconds, args.trace, args.size),
        "python %s  mpmath %s  backend %s  nproc %s  cpu %s  commit %s"
        % (meta["python"], meta["mpmath"], meta["backend"], meta["nproc"], meta["cpu_model"], meta["git_commit"]),
    ]
    m = out["metrics"]
    share = tally.failed / tally.attempted
    if not args.trace:
        n = out["latency_samples"]
        notes = {
            "setup_s": "median of %d fresh processes" % out["setup_samples"],
            "ops_per_s": "%d ops, %.2f s inside ops, %d pass(es)" % (n, out["busy_s"], out["passes"]),
            "op_p50_ms": "n=%d" % n,
            "op_p90_ms": "n=%d, %d beyond" % (n, n - int(0.9 * n)),
            "peak_rss_mb": "max over passes",
        }
        for name, unit in END_TO_END:
            lines.append("%-12s %14.6g %-5s (%s)" % (name, m[name], unit, notes[name]))
        lines.append("%-12s %14.6g %-5s (%d of %d)" % (FAIL_SHARE[0], share, FAIL_SHARE[1], tally.failed, tally.attempted))
        return lines
    lines.append("untraced %.3f s  traced %.3f s  overhead %.3f s"
                 % (out["untraced_s"], out["traced_s"], m["trace.overhead_s"]))
    for name in per_layer_names():
        line = "%-34s %16.6g %s" % (name, m[name], unit_of(name))
        if name.endswith(".self_pct"):
            line += "  (%.6g s)" % (m[name] * m["trace.op_s"] / 100.0)
        lines.append(line)
    lines.append("%-34s %16.6g %s (%d of %d)" % (FAIL_SHARE[0], share, FAIL_SHARE[1], tally.failed, tally.attempted))
    lines += baseline_lines(out)
    return lines


def baseline_lines(out: dict) -> list:
    """Traced per-call figures beside the ROADMAP baseline; flags gaps over 2x."""
    seen = {}
    for bits, ms in out["eval_j_ms_per_call"].items():
        seen["eval_j ms/call @%s" % bits] = ms
    for label, secs in out["divisor_matrix_s"].items():
        if label in ("split:11^2", "split:3^5", "split:7^3"):
            seen["divisor_matrix s %s" % label] = secs[0]
    lines = []
    for key, value in sorted(seen.items()):
        base = BASELINE.get(key)
        if base is None:
            lines.append("baseline %-28s %10.4g (no ROADMAP figure)" % (key, value))
            continue
        ratio = value / base
        flag = "  GAP > 2x" if ratio > 2 or ratio < 0.5 else ""
        lines.append("baseline %-28s %10.4g  ROADMAP %g  ratio %.2f%s" % (key, value, base, ratio, flag))
    return lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description="rungemod benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",),
                    help="all: every workload in turn, one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few ops per pass, for the benchmark's self-test")
    ap.add_argument("--inject-wrong-expected", action="store_true",
                    help="check against one deliberately wrong expected value")
    return ap.parse_args(argv)


def run_workload(args) -> Optional[dict]:
    """Run one workload; print its report and JSON line, write its record.

    Returns the JSON result, or None when a worker process failed.
    """
    runner, tally = Runner(args), Tally()
    try:
        out = traced_run(args, runner, tally) if args.trace else timed_run(args, runner, tally)
    except WorkerFailed as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return None
    meta = metadata()
    meta["mpmath"] = out["info"]["mpmath"]
    meta["backend"] = out["info"]["backend"]
    lines = report_lines(args, meta, out, tally)
    for line in lines:
        print(line)
    for example in tally.examples[:10]:
        print("FAILED %s" % example)

    units = dict(END_TO_END)
    metrics = {
        name: {"value": value, "unit": units.get(name) or unit_of(name)}
        for name, value in out["metrics"].items()
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(result)
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "meta": meta,
        "fail_share": tally.failed / tally.attempted, "failures": tally.examples[:50],
        "report": lines,
    })
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace,
                                        "-tiny" if args.size == "tiny" else "")
    (out_dir / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rungemod" / "__init__.py").is_file():
        print("run.py: no rungemod sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.workload != "all":
        return 0 if run_workload(args) is not None else 1
    # every workload in turn, then one line with all their metrics
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        res = run_workload(argparse.Namespace(**dict(vars(args), workload=workload)))
        if res is None:
            return 1
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, metric)] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

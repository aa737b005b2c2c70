"""One fresh workload process: set up, run one pass of ops, report as JSON.

Usage (from run.py): python3 benchmarks/worker.py '<spec JSON>'

The spec names the workload, seed, pass index and mode ("setup" stops after
setting up).  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import Tracer, package_modules

ROOT = Path(__file__).resolve().parent.parent


def import_rungemod():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rungemod

    if not Path(rungemod.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError("rungemod imported from %s, not from %s" % (rungemod.__file__, src))
    return rungemod


def clear_caches(package) -> None:
    """Empty every functools cache in rungemod, as a fresh process has them.

    Distinct groups already keep the caches from carrying work between ops;
    emptying them also stops earlier groups from staying alive, so each
    census op meets the heap a fresh CLI process would.
    """
    for mod in package_modules(package):
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def main(spec: dict) -> dict:
    workload, seed = spec["workload"], spec["seed"]
    tiny, inject = spec["tiny"], spec["inject"]
    census = workload == "census"
    # inputs first: they are the benchmark's work, not the program's set-up
    if census:
        ops = wl.census_items(seed, tiny, spec["pass_index"])
    else:
        ops = wl.sweep_ops(workload, seed, tiny)
        precision = wl.SWEEP_PRECISION[workload]

    t0 = time.perf_counter()
    rm = import_rungemod()
    setup_failures = []
    group = None
    if not census:
        group, setup_failures = wl.sweep_setup(rm, precision, inject)
    setup_s = time.perf_counter() - t0

    import mpmath
    import mpmath.libmp

    # process-level checks: the set-up values on sweeps, distinct groups on census
    result = {
        "setup_s": setup_s,
        "checks": 0 if census else 1,
        "check_failures": setup_failures,
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
    }
    if spec["mode"] == "setup":
        return result

    tracer = None
    if spec["trace"]:
        tracer = Tracer(precision if not census else 128)
        tracer.install(rm)

    latencies, failures = [], []
    fingerprints, built = set(), 0
    clock = time.perf_counter
    loop_start = clock()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(index)
        start = clock()
        try:
            out = wl.census_call(rm, op) if census else wl.sweep_call(rm, op, precision, group)
        except Exception as exc:  # any unexpected exception is a failed op
            out, error = None, "%s: %s" % (type(exc).__name__, exc)
        latencies.append(clock() - start)
        if tracer is not None:
            tracer.end_op()
        if out is not None:
            if census:
                error = wl.census_check(rm, op, out, inject)
                fingerprints.add(wl.group_fingerprint(out.group))
                built += 1
            else:
                error = wl.sweep_check(op, out)
        if error is not None:
            failures.append([index, wl.op_labels(workload, [op])[0], error])
        del out
        if census:
            clear_caches(rm)
    loop_s = clock() - loop_start

    result.update({
        "latencies_s": latencies,
        "attempted": len(ops),
        "failures": failures,
        "loop_s": loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if census:
        # equal SubgroupG values would let the lru caches carry work between ops
        result["checks"] += 1
        if len(fingerprints) != built:
            result["check_failures"].append("two census ops used equal SubgroupG values")
    if tracer is not None:
        tracer.uninstall()
        labels = wl.op_labels(workload, ops)
        result["per_layer"] = tracer.metrics()
        result["eval_j_ms_per_call"] = tracer.eval_j_ms_per_call()
        dm = {}
        for label, secs in tracer.durations("units.divisor_matrix", labels):
            dm.setdefault(label, []).append(secs)
        result["divisor_matrix_s"] = dm
        spans_path = Path(spec["spans_path"])
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        payload = tracer.to_json()
        payload["op_labels"] = labels
        spans_path.write_text(json.dumps(payload))
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    try:
        res = main(spec)
    except ImportError as exc:
        print("worker: %s" % exc, file=sys.stderr)
        sys.exit(2)
    sys.stdout.write(json.dumps(res) + "\n")
    sys.stdout.flush()
    # the result is out; skip tearing down the heap the last group left
    os._exit(0)

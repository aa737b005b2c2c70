"""Outside-in tracing: wrappers installed over rungemod's module bindings.

Nothing under src/ is edited.  Each traced function is replaced, in every
rungemod module that binds it (e.g. `units.det_image` and `cusps.det_image`
besides `modnt.det_image`), by a wrapper that records a span: name, start,
end, parent, op, and for eval_j/eval_siegel the precision.  Ball and
interval arithmetic is wrapped with counters only.  Spans stay in memory
until the worker writes them out at the end.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List

# (metric prefix, module, function) for every span wrapper.
SPANNED = (
    ("modnt.preset_subgroup", "modnt", "preset_subgroup"),
    ("modnt.generate_subgroup", "modnt", "generate_subgroup"),
    ("modnt.det_image", "modnt", "det_image"),
    ("cusps.enumerate_cusps", "cusps", "enumerate_cusps"),
    ("cusps.galois_orbits", "cusps", "galois_orbits"),
    ("units.divisor_matrix", "units", "divisor_matrix"),
    ("units.ord_w", "units", "ord_w"),
    ("units.divisor_rank", "units", "divisor_rank"),
    ("units.runge_unit", "units", "runge_unit"),
    ("bounds.bound_th1", "bounds", "bound_th1"),
    ("analytic.eval_j", "analytic", "eval_j"),
    ("analytic.eval_siegel", "analytic", "eval_siegel"),
    ("analytic.reduce_fundamental", "analytic", "reduce_fundamental"),
    ("analytic.sweep", "analytic", "sweep_pqj"),
    ("analytic.sweep", "analytic", "sweep_cdplus"),
    ("analytic.sweep", "analytic", "sweep_siegel"),
    ("analytic.sweep", "analytic", "sweep_smallj"),
    ("analytic.sweep", "analytic", "sweep_everysimple"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANNED))

BALL_METHODS = {
    "ErrorBall": ("add", "sub", "neg", "rotate90", "mul", "mul_int", "mul_fraction",
                  "inverse", "div", "exp", "pow_int", "add_error", "abs_interval"),
    "RealInterval": ("add", "sub", "neg", "mul", "scale_fraction", "add_fraction",
                     "abs", "exp", "log"),
}

PRECISIONS = (128, 256, 512, 1024)

EXTRA_COUNTS = (
    "modnt.elements",
    "cusps.cusps",
    "units.entries",
    "analytic.escalated_calls",
    "analytic.ball_mul.calls",
    "analytic.ball_ops.calls",
    "bounds.interval_ops.calls",
) + tuple("analytic.eval_j.calls.%d" % b for b in PRECISIONS)

OP_SPAN = "bench.op"


def per_layer_names() -> List[str]:
    """Every per-layer metric a traced run reports, in a fixed order.

    Self time is given as a percentage of the traced op time (trace.op_s),
    not in seconds: a layer a workload never enters would otherwise report
    a time of exactly 0 on every run.
    """
    names = []
    for span in SPAN_NAMES:
        names += [span + ".calls", span + ".self_pct"]
    names += list(EXTRA_COUNTS)
    names += ["unattributed.self_pct", "trace.op_s", "trace.overhead_s"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    return "s" if name.endswith("_s") else "count"


def package_modules(package) -> list:
    """The loaded modules of a package, the package itself included."""
    prefix = package.__name__ + "."
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == package.__name__ or key.startswith(prefix))]


def _precision_arg(args, kwargs, index: int) -> int:
    if len(args) > index:
        return args[index]
    return kwargs.get("precision", 128)


class Tracer:
    """Span and counter collector for one traced worker process."""

    def __init__(self, start_precision: int) -> None:
        self.start_precision = start_precision
        self.spans: List[list] = []   # [name, start, end, parent, op, tag]
        self.stack: List[int] = []
        self.layers: List[str] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._restore: List[tuple] = []

    # -------------------------------------------------------------- spans

    def _wrap_span(self, name: str, fn: Callable, on_call=None, on_result=None) -> Callable:
        spans, stack, layers = self.spans, self.stack, self.layers
        layer = name.split(".", 1)[0]
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            tag = on_call(args, kwargs) if on_call is not None else None
            rec = [name, clock(), 0.0, stack[-1] if stack else None, tracer.op, tag]
            stack.append(len(spans))
            layers.append(layer)
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                layers.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def begin_op(self, index: int) -> None:
        self.op = index
        self.stack.append(len(self.spans))
        self.layers.append("bench")
        self.spans.append([OP_SPAN, time.perf_counter(), 0.0, None, index, None])

    def end_op(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()
        self.layers.pop()

    # ------------------------------------------------------------ install

    def _hooks(self, name: str):
        counts = self.counts
        start = self.start_precision
        if name == "analytic.eval_j" or name == "analytic.eval_siegel":
            index = 1 if name == "analytic.eval_j" else 2

            def on_call(args, kwargs):
                prec = _precision_arg(args, kwargs, index)
                if name == "analytic.eval_j":
                    counts["analytic.eval_j.calls.%d" % prec] += 1
                if prec > start:
                    counts["analytic.escalated_calls"] += 1
                return prec

            return on_call, None
        if name in ("modnt.preset_subgroup", "modnt.generate_subgroup"):
            return None, lambda G: counts.update({"modnt.elements": G.order})
        if name == "cusps.enumerate_cusps":
            return None, lambda cs: counts.update({"cusps.cusps": len(cs)})
        if name == "units.divisor_matrix":
            return None, lambda M: counts.update({"units.entries": len(M.entries) * len(M.columns)})
        return None, None

    def _wrap_count(self, fn: Callable, is_mul: bool) -> Callable:
        counts, layers = self.counts, self.layers

        def wrapper(*args, **kwargs):
            layer = layers[-1] if layers else "bench"
            if layer == "analytic":
                counts["analytic.ball_ops.calls"] += 1
                if is_mul:
                    counts["analytic.ball_mul.calls"] += 1
            else:
                counts[layer + ".interval_ops.calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Replace every rungemod module binding of the traced functions."""
        modules = package_modules(package)
        for name, mod_name, fn_name in SPANNED:
            original = getattr(sys.modules[package.__name__ + "." + mod_name], fn_name)
            on_call, on_result = self._hooks(name)
            wrapper = self._wrap_span(name, original, on_call, on_result)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        analytic = sys.modules[package.__name__ + ".analytic"]
        for cls_name, methods in BALL_METHODS.items():
            cls = getattr(analytic, cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap_count(original, cls_name == "ErrorBall" and meth == "mul"))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ results

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: duration minus the children's durations."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] is not None:
                child[rec[3]] += rec[2] - rec[1]
        out: Dict[str, float] = {}
        for i, rec in enumerate(self.spans):
            out[rec[0]] = out.get(rec[0], 0.0) + (rec[2] - rec[1]) - child[i]
        return out

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics, less trace.overhead_s, which needs an untraced run."""
        selfs = self.self_times()
        calls = Counter(rec[0] for rec in self.spans)
        op_s = sum(rec[2] - rec[1] for rec in self.spans if rec[0] == OP_SPAN)
        out: Dict[str, float] = {}
        for span in SPAN_NAMES:
            out[span + ".calls"] = calls.get(span, 0)
            out[span + ".self_pct"] = 100.0 * selfs.get(span, 0.0) / op_s
        for key in EXTRA_COUNTS:
            out[key] = self.counts.get(key, 0)
        out["unattributed.self_pct"] = 100.0 * selfs.get(OP_SPAN, 0.0) / op_s
        out["trace.op_s"] = op_s
        return out

    def durations(self, name: str, op_labels: List[str]):
        """(op label, inclusive seconds) for each span of one name."""
        return [(op_labels[rec[4]], rec[2] - rec[1]) for rec in self.spans if rec[0] == name]

    def eval_j_ms_per_call(self) -> Dict[str, float]:
        """Mean inclusive eval_j time per call, by the precision it ran at."""
        out: Dict[str, List[float]] = {}
        for rec in self.spans:
            if rec[0] == "analytic.eval_j":
                out.setdefault(str(rec[5]), []).append(rec[2] - rec[1])
        return {k: 1000.0 * sum(v) / len(v) for k, v in out.items()}

    def to_json(self) -> Dict:
        return {
            "fields": ["name", "start", "end", "parent", "op", "tag"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }

"""Spans around the calls into each qsph module, recorded from outside.

``Tracer.install`` replaces each public function where its caller looks it
up (``qsph.harness.encode``, ``qsph.sph_encoding.build_w``,
``StateVector.__post_init__`` ...) with a wrapper that records a span:
name, start, end, parent and thread. A span opened in a pool thread with
nothing open on that thread takes the open ``harness.run_experiment`` span
as its parent. ``uninstall`` puts the originals back. Spans stay in memory
until ``write``.
"""
from __future__ import annotations

import csv
import threading
import time
from collections import defaultdict

# (span name, module, attribute, work count taken from (args, kwargs, result))
_SIXTEEN_BYTES = 16  # one complex128 amplitude
LAYERS = [
    ("sph_encoding.encode", "qsph.harness", "encode", None),
    ("sph_encoding.build_a", "qsph.sph_encoding", "build_a", None),
    ("sph_encoding.build_w", "qsph.sph_encoding", "build_w", None),
    ("sph_encoding.reconstruct", "qsph.harness", "reconstruct", None),
    ("sph_encoding.classical_sph_sum", "qsph.harness", "classical_sph_sum", None),
    ("sph_encoding.integral_norm_estimate", "qsph.harness", "integral_norm_estimate", None),
    ("quantum_state.normalize", "qsph.sph_encoding", "normalize", None),
    ("quantum_state.inner_product", "qsph.sph_encoding", "inner_product", None),
    ("quantum_state.inner_product", "qsph.swap_test", "inner_product", None),
    ("swap_test.build_swap_state", "qsph.swap_test", "build_swap_state",
     lambda a, k, r: r.phi.amplitudes.size * _SIXTEEN_BYTES),
    ("swap_test.estimate_sampled", "qsph.harness", "estimate_sampled",
     lambda a, k, r: r.shots),
    ("swap_test.estimate_phase", "qsph.harness", "estimate_phase", None),
    ("kernels.evaluate", "qsph.sph_encoding", "evaluate",
     lambda a, k, r: getattr(r, "size", 1)),
    ("discretization.uniform_discretise", "qsph.harness", "uniform_discretise", None),
    ("harness.run_experiment", "qsph.cli", "run_experiment",
     lambda a, k, r: len(r)),
    ("harness.run_experiment", "qsph.harness", "run_experiment",
     lambda a, k, r: len(r)),
    ("harness.write_rows", "qsph.harness", "write_rows", None),
    ("harness.write_sweep", "qsph.harness", "write_sweep", None),
]
RUN_SPAN = "harness.run_experiment"

# per-layer metrics: (name, unit, better)
METRICS = [
    ("sph_encoding.build_a.calls", "count", "lower"),
    ("sph_encoding.build_a.self_s", "s", "lower"),
    ("sph_encoding.build_w.calls", "count", "lower"),
    ("sph_encoding.build_w.self_s", "s", "lower"),
    ("sph_encoding.encode.self_s", "s", "lower"),
    ("sph_encoding.reconstruct.self_s", "s", "lower"),
    ("quantum_state.StateVector.calls", "count", "lower"),
    ("quantum_state.StateVector.self_s", "s", "lower"),
    ("quantum_state.StateVector.bytes", "B", "lower"),
    ("quantum_state.normalize.self_s", "s", "lower"),
    ("quantum_state.inner_product.self_s", "s", "lower"),
    ("swap_test.build_swap_state.calls", "count", "lower"),
    ("swap_test.build_swap_state.self_s", "s", "lower"),
    ("swap_test.build_swap_state.bytes", "B", "lower"),
    ("swap_test.estimate_sampled.self_s", "s", "lower"),
    ("swap_test.shots_drawn", "count", "lower"),
    ("swap_test.estimate_phase.self_s", "s", "lower"),
    ("kernels.evaluate.calls", "count", "lower"),
    ("kernels.evaluate.values", "count", "lower"),
    ("kernels.evaluate.self_s", "s", "lower"),
    ("kernels.evaluate.gaussian.ns_per_value", "ns", "lower"),
    ("kernels.evaluate.wendland.ns_per_value", "ns", "lower"),
    ("sph_encoding.classical_sph_sum.calls", "count", "lower"),
    ("sph_encoding.classical_sph_sum.self_s", "s", "lower"),
    ("discretization.uniform_discretise.self_s", "s", "lower"),
    ("sph_encoding.from_function.self_s", "s", "lower"),
    ("sph_encoding.integral_norm_estimate.self_s", "s", "lower"),
    ("harness.run_experiment.self_s", "s", "lower"),
    ("harness.query_points", "count", "higher"),
    ("harness.write_rows.self_s", "s", "lower"),
    ("harness.write_sweep.self_s", "s", "lower"),
    ("harness.csv_bytes", "B", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# span record fields
NAME, TAG, START, END, PARENT, THREAD, QTY = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._run = None  # the open run_experiment span
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, qty=None, tag=None):
        """Run fn(*args, **kwargs) inside a span."""
        kwargs = kwargs or {}
        stack = self._stack()
        span = [name, tag, 0.0, 0.0, stack[-1] if stack else self._run,
                threading.get_ident(), 0]
        self.spans.append(span)
        stack.append(span)
        is_run = name == RUN_SPAN
        if is_run:
            outer_run, self._run = self._run, span
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            span[END] = time.perf_counter()
            if qty is not None:
                span[QTY] = qty(args, kwargs, result)
            return result
        finally:
            if not span[END]:
                span[END] = time.perf_counter()
            if is_run:
                self._run = outer_run
            stack.pop()

    def _wrap(self, name: str, fn, qty=None, tag=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, qty,
                             tag(args, kwargs) if tag else None)
        return traced

    def install(self) -> None:
        """Wrap every layer function that the program still has."""
        import importlib

        from qsph.quantum_state import StateVector
        from qsph.sph_encoding import FunctionSamples

        for name, module, attr, qty in LAYERS:
            mod = importlib.import_module(module)
            if not hasattr(mod, attr):
                continue
            fn = getattr(mod, attr)
            tag = _kernel_family if name == "kernels.evaluate" else None
            self._set(mod, attr, self._wrap(name, fn, qty, tag))
        if "__post_init__" in vars(StateVector):
            self._set(StateVector, "__post_init__", self._wrap(
                "quantum_state.StateVector", StateVector.__post_init__,
                lambda a, k, r: a[0].amplitudes.size * _SIXTEEN_BYTES))
        if "from_function" in vars(FunctionSamples):
            fn = vars(FunctionSamples)["from_function"].__func__
            self._set(FunctionSamples, "from_function",
                      classmethod(self._wrap("sph_encoding.from_function", fn)))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_metrics(self, first: int = 0) -> dict[str, float]:
        """Per-layer totals over spans[first:] (one pass), excluding the two
        metrics the benchmark measures itself (csv_bytes, overhead)."""
        spans = self.spans[first:]
        covered = defaultdict(list)
        for s in spans:
            if s[PARENT] is not None:
                covered[id(s[PARENT])].append((s[START], s[END]))
        calls = defaultdict(int)
        qty = defaultdict(float)
        self_s = defaultdict(float)
        for s in spans:
            own = s[END] - s[START] - _union(covered.get(id(s), ()), s[START], s[END])
            for key in (s[NAME], f"{s[NAME]}.{s[TAG]}") if s[TAG] else (s[NAME],):
                calls[key] += 1
                qty[key] += s[QTY]
                self_s[key] += own

        def ns_per_value(family: str) -> float:
            key = f"kernels.evaluate.{family}"
            return 1e9 * self_s[key] / qty[key] if qty[key] else 0.0

        out = {}
        for name, _, _ in METRICS:
            layer, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = calls[layer]
            elif field == "self_s":
                out[name] = self_s[layer]
            elif field in ("bytes", "values"):
                out[name] = qty[layer]
        out["swap_test.shots_drawn"] = qty["swap_test.estimate_sampled"]
        out["harness.query_points"] = qty[RUN_SPAN]
        out["kernels.evaluate.gaussian.ns_per_value"] = ns_per_value("gaussian")
        out["kernels.evaluate.wendland.ns_per_value"] = ns_per_value("wendland")
        return out

    def write(self, path: str) -> None:
        """One CSV row per span: id, name, tag, start, end, parent id, thread, count."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("id", "name", "tag", "start_s", "end_s", "parent", "thread", "qty"))
            for i, s in enumerate(self.spans):
                parent = "" if s[PARENT] is None else ids[id(s[PARENT])]
                w.writerow((i, s[NAME], s[TAG] or "", f"{s[START]:.9f}", f"{s[END]:.9f}",
                            parent, s[THREAD], s[QTY]))


def _kernel_family(args, kwargs) -> str:
    spec = args[0] if args else kwargs["spec"]
    return spec.family.value


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total

"""Layer tracing for one CLI invocation, installed from outside ``src/``.

The tracer wraps qtrunc's public functions and class methods in place. The
modules bind each other's functions with ``from .partitions import ...``,
so a function is replaced in every qtrunc namespace that binds it, not only
in the module that defines it. Each wrapped call records a span (layer,
start, end, parent) in memory; self time is a span's duration minus the
time its direct child spans cover. Work counts are computed from operand
shapes before the call, so they repeat exactly from run to run.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import defaultdict

MODULES = ("qtrunc", "qtrunc.qseries", "qtrunc.partitions", "qtrunc.bijections",
           "qtrunc.trunclab", "qtrunc.report", "qtrunc.cli")

# Public module-level functions mapped to layers. A public function not
# listed here goes to its defining module's layer in MODULE_LAYERS.
FUNCTION_LAYERS = {
    "pochhammer": "qseries.product",
    "triple_product": "qseries.product",
    "enumerate_partitions": "partitions.enumerate",
    "set_a": "partitions.rank_classes",
    "set_a_size": "partitions.rank_classes",
    "m_k": "partitions.m_k",
    "p_euler": "partitions.p_euler",
    "divisor_diff": "partitions.divisor_diff",
    "phi": "bijections.phi",
    "psi": "bijections.psi",
    "verify_phi": "bijections.verify",
    "verify_psi": "bijections.verify",
    "theorem12_check": "bijections.verify",
    "pentagonal_check": "trunclab.checks",
    "jacobi_cube_check": "trunclab.checks",
    "am_check": "trunclab.checks",
    "mk_identity_check": "trunclab.checks",
    "conjecture_check": "trunclab.checks",
    "theorem13_check": "trunclab.checks",
    "corollary14_report": "trunclab.checks",
    "gz_check": "trunclab.checks",
    "mao_check": "trunclab.checks",
    "decomposition_check": "trunclab.checks",
    "wang_yee_check": "trunclab.checks",
    "recurrence_check": "trunclab.checks",
}
MODULE_LAYERS = {
    "qtrunc.qseries": "qseries.other",
    "qtrunc.partitions": "partitions.other",
    "qtrunc.bijections": "bijections.verify",
    "qtrunc.trunclab": "trunclab.series",
    "qtrunc.report": "report",
    "qtrunc.cli": "cli",
}

# Functions counted but not spanned: gpn runs millions of times per sweep.
COUNTED_FUNCTIONS = {"gpn": "partitions.gpn.calls"}

# (class name, method) -> layer. "mul" is split by operand shape below.
METHOD_LAYERS = {
    ("IntSeries", "__init__"): "qseries.construct",
    ("IntSeries", "__mul__"): "mul",
    ("IntSeries", "__rmul__"): "mul",
    ("IntSeries", "invert"): "qseries.invert",
    ("IntSeries", "div_one_minus"): "qseries.geometric",
    ("IntSeries", "times_one_minus"): "qseries.geometric",
    ("IntSeries", "__add__"): "qseries.arith",
    ("IntSeries", "__sub__"): "qseries.arith",
    ("IntSeries", "__neg__"): "qseries.arith",
    ("IntSeries", "scale"): "qseries.arith",
    ("IntSeries", "shifted"): "qseries.arith",
    ("IntSeries", "truncate"): "qseries.arith",
    ("IntSeries", "__pow__"): "qseries.arith",
    ("Partition", "conjugate"): "partitions.other",
    ("CheckReport", "add"): "report",
    ("CheckReport", "to_dict"): "report",
    ("CheckReport", "to_json"): "report",
    ("CheckReport", "csv_rows"): "report",
    ("Violation", "to_dict"): "report",
}

# Constructors counted but not spanned: one call per object built.
COUNTED_METHODS = {
    ("Partition", "__post_init__"): "partitions.objects",
    ("IndexedPartition", "__post_init__"): "bijections.indexed",
}

# Layers whose work count is reported, and the layers the README lists.
WORK_LAYERS = ("qseries.mul_dense", "qseries.mul_sparse", "qseries.invert",
               "qseries.product")
SPAN_LAYERS = (
    "qseries.mul_dense", "qseries.mul_sparse", "qseries.invert",
    "qseries.product", "qseries.geometric", "qseries.construct",
    "qseries.arith", "qseries.other", "partitions.enumerate",
    "partitions.rank_classes", "partitions.m_k", "partitions.p_euler",
    "partitions.divisor_diff", "partitions.other", "bijections.phi",
    "bijections.psi", "bijections.verify", "trunclab.checks",
    "trunclab.series", "report", "cli",
)
COUNTS = ("partitions.gpn.calls", "partitions.objects", "bijections.indexed",
          "partitions.enumerate.partitions")


def few_terms(nnz: int, order: int) -> bool:
    """An operand has few terms when nnz^2 <= 4(order+1), i.e. at most about
    2*sqrt(order+1) nonzero coefficients: theta numerators, low q-binomials
    and monomials, the shapes the sparse loop is built for."""
    return nnz * nnz <= 4 * (order + 1)


def _mul_shape(a, b) -> tuple[str, int]:
    """Layer and inner-loop count of ``IntSeries.__mul__``, mirroring its
    choice of the sparser operand as the outer loop."""
    if isinstance(b, int):
        return "qseries.arith", 0
    n = min(a.order, b.order)
    if len(b.coeffs) < len(a.coeffs):
        a, b = b, a
    work = sum(n - d + 1 for d in a.coeffs if d <= n)
    layer = "qseries.mul_sparse" if few_terms(len(a.coeffs), n) else "qseries.mul_dense"
    return layer, work


def _invert_work(s) -> int:
    n = s.order
    return sum(n - d + 1 for d in s.coeffs if 1 <= d <= n)


def _factor_work(bases, step: int, order: int) -> int:
    return sum(order - e + 1 for base in bases for e in range(base, order + 1, step))


def _product_work(name: str, args: tuple) -> int:
    if name == "pochhammer":
        a, step, order = args[:3]
        return _factor_work((a,), step, order) if a >= 1 and step >= 1 else 0
    R, S, order = args[:3]
    return _factor_work((S, R - S, R), R, order) if 1 <= S < R else 0


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_index: dict[str, int] = {}
        self.spans: list[list] = []  # [layer index, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- spans ---------------------------------------------------------------

    def _layer(self, name: str) -> int:
        idx = self._layer_index.get(name)
        if idx is None:
            idx = self._layer_index[name] = len(self.layers)
            self.layers.append(name)
        return idx

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self._layer(layer), time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        idx = self._open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, layer: str):
        tracer = self
        name = fn.__name__

        if layer == "mul":
            def wrapper(a, b):
                kind, work = _mul_shape(a, b)
                tracer.work[kind] += work
                return tracer.call(kind, fn, a, b)
        elif layer == "qseries.invert":
            def wrapper(self_, *args, **kwargs):
                tracer.work[layer] += _invert_work(self_)
                return tracer.call(layer, fn, self_, *args, **kwargs)
        elif layer == "qseries.product":
            def wrapper(*args, **kwargs):
                tracer.work[layer] += _product_work(name, args)
                return tracer.call(layer, fn, *args, **kwargs)
        elif layer == "partitions.enumerate":
            def wrapper(*args, **kwargs):
                result = tracer.call(layer, fn, *args, **kwargs)
                tracer.counts["partitions.enumerate.partitions"] += len(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(layer, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, original, make) -> None:
        wrapper = self._wrappers.get(id(original))
        if wrapper is None:
            wrapper = self._wrappers[id(original)] = make()
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        mods = [sys.modules[name] for name in MODULES]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("qtrunc")):
                    continue
                if attr in COUNTED_FUNCTIONS:
                    self._patch(mod, attr, value, lambda v=value, a=attr:
                                self._count_wrapper(v, COUNTED_FUNCTIONS[a]))
                    continue
                layer = FUNCTION_LAYERS.get(attr) or MODULE_LAYERS[value.__module__]
                self._patch(mod, attr, value,
                            lambda v=value, l=layer: self._span_wrapper(v, l))
        classes = {}
        for mod in mods:
            for value in vars(mod).values():
                if isinstance(value, type) and value.__module__.startswith("qtrunc"):
                    classes[value.__name__] = value
        for (cls_name, method), layer in METHOD_LAYERS.items():
            cls = classes[cls_name]
            original = cls.__dict__[method]
            self._patch(cls, method, original,
                        lambda v=original, l=layer: self._span_wrapper(v, l))
        for (cls_name, method), counter in COUNTED_METHODS.items():
            cls = classes[cls_name]
            original = cls.__dict__[method]
            self._patch(cls, method, original,
                        lambda v=original, c=counter: self._count_wrapper(v, c))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        """Calls and self time per layer, work and object counts, and the
        lru_cache memo statistics of every qtrunc module."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for (layer, start, end, _), inner in zip(self.spans, child_time):
            name = self.layers[layer]
            calls[name] += 1
            self_s[name] += (end - start) - inner
        out: dict[str, float] = {}
        for name in SPAN_LAYERS:
            out[name + ".calls"] = calls.get(name, 0)
            out[name + ".self_s"] = self_s.get(name, 0.0)
        for name in WORK_LAYERS:
            out[name + ".work"] = self.work.get(name, 0)
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        hits = misses = entries = 0
        seen = set()
        for name in MODULES:
            for value in vars(sys.modules[name]).values():
                info = getattr(value, "cache_info", None)
                if info is not None and id(value) not in seen:
                    seen.add(id(value))
                    stats = info()
                    hits += stats.hits
                    misses += stats.misses
                    entries += stats.currsize
        out.update({"trunclab.memo.hits": hits, "trunclab.memo.misses": misses,
                    "trunclab.memo.entries": entries})
        return out

    def dump(self, path: str) -> None:
        """Write the spans: layer names, then one [layer, start, end, parent]
        row per span, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.layers,
                       "spans": [[l, round(s - t0, 9), round(e - t0, 9), p]
                                 for l, s, e, p in self.spans]},
                      fh, separators=(",", ":"))

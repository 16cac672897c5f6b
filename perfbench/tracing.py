"""Span tracing of layeropt's stack levels, applied from outside the package.

The benchmark wraps public functions at the names where callers look them
up (``optimizer`` and ``valuation`` bind ``kernel_cost`` through
``from ._integrate import ...``, so each such binding gets its own wrapper)
and the methods of the loss-model and kernel classes.  Every wrapped call
records one span: its name, start, end, parent span, an input size and
whether it raised.  Spans stay in memory while the run lasts and are written
out when it ends; self time is a span's duration minus the time its child
spans cover.

Names a later version of the package no longer has are skipped, so the
matching metrics read zero rather than failing the run.
"""

from __future__ import annotations

import functools
import math
import re
import sys
import time
from array import array

import numpy as np

# per-layer metrics in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("losses.calls", "count"),
    ("losses.points", "count"),
    ("losses.self_ms", "ms"),
    ("kernels.k_calls", "count"),
    ("kernels.k_points", "count"),
    ("kernels.k_max_calls", "count"),
    ("kernels.self_ms", "ms"),
    ("integrate.tail_calls", "count"),
    ("integrate.tail_failed", "count"),
    ("integrate.tail_self_ms", "ms"),
    ("integrate.finite_calls", "count"),
    ("integrate.finite_self_ms", "ms"),
    ("integrate.gl_panels", "count"),
    ("integrate.gl_self_ms", "ms"),
    ("valuation.criterion_calls", "count"),
    ("valuation.self_ms", "ms"),
    ("optimizer.tsl_calls", "count"),
    ("optimizer.tsl_self_ms", "ms"),
    ("optimizer.dinkelbach_iters", "count"),
    ("optimizer.lagrange_calls", "count"),
    ("optimizer.lagrange_self_ms", "ms"),
    ("optimizer.sign_scan_ms", "ms"),
    ("optimizer.scan_fallbacks", "count"),
    ("conditions.check_calls", "count"),
    ("conditions.self_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.import_scipy_integrate_ms", "ms"),
    ("cli.parse_ms", "ms"),
    ("cli.run_ms", "ms"),
    ("cli.csv_bytes", "count"),
]


class SpanLog:
    """Spans of one process, kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.failed = array("b")
        self._stack: list[int] = []
        self.active = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, size: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.size.append(size)
        self.failed.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool) -> None:
        self.end[idx] = time.perf_counter()
        if failed:
            self.failed[idx] = 1
        self._stack.pop()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def _size_of(value) -> int:
    return int(np.size(value))


def _wrap(log: SpanLog, fn, name_of):
    """Wrap ``fn`` so each call records a span; ``name_of(args) -> (name, size)``."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not log.active:
            return fn(*args, **kwargs)
        name, size = name_of(args, kwargs)
        idx = log.open(log.name_id(name), size)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            log.close(idx, failed)

    traced.__wrapped_by_perfbench__ = fn
    return traced


def _fixed(name):
    return lambda args, kwargs: (name, 0)


def _sized(name, pos):
    return lambda args, kwargs: (name, _size_of(args[pos]) if len(args) > pos else 0)


def _quadrature(pos_b):
    """Span name of a kernel_cost/curve_cost call, by its upper limit."""

    def name_of(args, kwargs):
        b = args[pos_b] if len(args) > pos_b else kwargs.get("b")
        return ("_integrate.tail" if math.isinf(b) else "_integrate.finite"), 0

    return name_of


def _panels(args, kwargs):
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    return "_integrate.gl", max(_size_of(grid) - 1, 0)


# functions traced, by the module that defines them; every module of the
# package that binds the same function under the same name (``from ._integrate
# import kernel_cost`` and the like) gets the wrapper too
FUNCTIONS = [
    ("_integrate", "curve_cost", _quadrature(3)),
    ("_integrate", "kernel_cost", _quadrature(3)),
    ("_integrate", "cumulative_kernel_cost", _panels),
    ("valuation", "criterion", _fixed("valuation.criterion")),
    ("valuation", "expected_profit", _fixed("valuation.expected_profit")),
    ("optimizer", "best_truncated_stop_loss", _fixed("optimizer.tsl")),
    ("optimizer", "dinkelbach_optimize", _fixed("optimizer.dinkelbach")),
    ("optimizer", "lagrange_optimum", _fixed("optimizer.lagrange")),
    ("optimizer", "_sign_pattern_matches", _fixed("optimizer.sign_scan")),
    ("optimizer", "_layers_from_scan", _fixed("optimizer.scan_fallback")),
    ("conditions", "check_conditions", _fixed("conditions.check")),
    ("cli", "parse_config", _fixed("cli.parse")),
    ("cli", "run", _fixed("cli.run")),
]
LOSS_METHODS = ("cdf", "quantile", "tail_integral", "tail_expectation", "var_level")
KERNEL_METHODS = (
    ("k", _sized("kernels.k", 1)),
    ("k0", _sized("kernels.k", 1)),
    ("k_max", _fixed("kernels.k_max")),
)


def install(log: SpanLog, package) -> None:
    """Wrap the traced functions and methods of ``package`` (idempotent)."""
    import importlib

    prefix = package.__name__ + "."
    for name in ("losses", "kernels", "_integrate", "valuation", "optimizer", "conditions", "cli"):
        importlib.import_module(prefix + name)
    modules = [m for key, m in sys.modules.items() if key == package.__name__ or key.startswith(prefix)]

    for modname, attr, name_of in FUNCTIONS:
        original = getattr(sys.modules[prefix + modname], attr, None)
        if original is None or hasattr(original, "__wrapped_by_perfbench__"):
            continue
        traced = _wrap(log, original, name_of)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, traced)

    def patch_method(cls, meth, name_of):
        original = cls.__dict__.get(meth)
        if original is not None and not hasattr(original, "__wrapped_by_perfbench__"):
            setattr(cls, meth, _wrap(log, original, name_of))

    # losses: the primitives of every family and the functionals built on
    # them (a functional's inner primitive calls nest under it)
    pending = [sys.modules[prefix + "losses"].LossModel]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for meth in LOSS_METHODS:
            patch_method(cls, meth, _sized(f"losses.{meth}", 1))
    for meth, name_of in KERNEL_METHODS:
        patch_method(sys.modules[prefix + "kernels"].PricingKernel, meth, name_of)


def layer_totals(spans: dict) -> dict:
    """Per-layer sums over a set of spans (as returned by ``SpanLog.arrays``)."""
    names = [str(n) for n in spans["names"]] + [""]
    name = spans["name"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    n = len(dur)
    has_parent = parent >= 0
    parent_or_root = np.where(has_parent, parent, n)
    child = np.zeros(n + 1)
    np.add.at(child, parent_or_root, dur)
    self_ms = (dur - child[:n]) * 1e3

    layers = sorted({s.split(".", 1)[0] for s in names})
    layer_of_name = np.array([layers.index(s.split(".", 1)[0]) for s in names])
    label = np.append(name, len(names) - 1)  # the root sentinel has the empty name
    layer = layer_of_name[label]
    outer = layer[:n] != layer[parent_or_root]

    # a quadrature span belongs to the kind (tail, finite, gl) of its
    # outermost quadrature ancestor, so nested pieces are not counted twice
    quad_layer = layers.index("_integrate") if "_integrate" in layers else -1
    kind = label.copy()
    nested = np.flatnonzero((layer[:n] == quad_layer) & ~outer)
    for i in nested:  # parents precede their children
        kind[i] = kind[parent[i]]

    def id_of(span_name):  # -2 matches nothing: that span never occurred
        return names.index(span_name) if span_name in names else -2

    def is_(span_name):
        return label[:n] == id_of(span_name)

    def in_layer(layer_name):
        return layer[:n] == (layers.index(layer_name) if layer_name in layers else -2)

    def of_kind(span_name):
        return kind[:n] == id_of(span_name)

    def total(mask, values=None):
        return float(mask.sum()) if values is None else float(values[mask].sum())

    dur_ms = dur * 1e3
    size = spans["size"].astype(float)
    failed = spans["failed"].astype(bool)
    in_dinkelbach = label[parent_or_root] == id_of("optimizer.dinkelbach")
    return {
        "losses.calls": total(in_layer("losses") & outer),
        "losses.points": total(in_layer("losses") & outer, size),
        "losses.self_ms": total(in_layer("losses"), self_ms),
        "kernels.k_calls": total(is_("kernels.k")),
        "kernels.k_points": total(is_("kernels.k"), size),
        "kernels.k_max_calls": total(is_("kernels.k_max")),
        "kernels.self_ms": total(in_layer("kernels"), self_ms),
        "integrate.tail_calls": total(is_("_integrate.tail") & outer),
        "integrate.tail_failed": total(is_("_integrate.tail") & outer & failed),
        "integrate.tail_self_ms": total(of_kind("_integrate.tail"), self_ms),
        "integrate.finite_calls": total(is_("_integrate.finite") & outer),
        "integrate.finite_self_ms": total(of_kind("_integrate.finite"), self_ms),
        "integrate.gl_panels": total(is_("_integrate.gl") & outer, size),
        "integrate.gl_self_ms": total(of_kind("_integrate.gl"), self_ms),
        "valuation.criterion_calls": total(is_("valuation.criterion") & outer),
        "valuation.self_ms": total(in_layer("valuation"), self_ms),
        "optimizer.tsl_calls": total(is_("optimizer.tsl") & outer),
        "optimizer.tsl_self_ms": total(is_("optimizer.tsl"), self_ms),
        "optimizer.dinkelbach_iters": total(is_("optimizer.lagrange") & in_dinkelbach),
        "optimizer.lagrange_calls": total(is_("optimizer.lagrange")),
        "optimizer.lagrange_self_ms": total(is_("optimizer.lagrange"), self_ms),
        "optimizer.sign_scan_ms": total(is_("optimizer.sign_scan"), dur_ms),
        "optimizer.scan_fallbacks": total(is_("optimizer.scan_fallback")),
        "conditions.check_calls": total(is_("conditions.check") & outer),
        "conditions.self_ms": total(in_layer("conditions"), self_ms),
        "cli.parse_ms": total(is_("cli.parse"), dur_ms),
        "cli.run_ms": total(is_("cli.run"), dur_ms),
    }


_IMPORT_LINE = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_times_ms(stderr_text: str) -> dict:
    """Cumulative import times of ``layeropt`` and ``scipy.integrate`` from
    ``python -X importtime`` output (absent modules read zero)."""
    found = {}
    for line in stderr_text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            found[m.group(2)] = int(m.group(1)) / 1e3
    return {
        "cli.import_ms": found.get("layeropt", 0.0),
        "cli.import_scipy_integrate_ms": found.get("scipy.integrate", 0.0),
    }


def merge(span_sets: list[dict]) -> dict:
    """Concatenate span sets from several processes into one."""
    names: list[str] = []
    ids: dict[str, int] = {}
    parts = {k: [] for k in ("name", "parent", "start", "end", "size", "failed")}
    offset = 0
    for spans in span_sets:
        remap = []
        for s in spans["names"]:
            s = str(s)
            if s not in ids:
                ids[s] = len(names)
                names.append(s)
            remap.append(ids[s])
        remap = np.array(remap, dtype=np.int32)
        parts["name"].append(remap[spans["name"]] if len(spans["name"]) else spans["name"])
        parts["parent"].append(np.where(spans["parent"] >= 0, spans["parent"] + offset, -1).astype(np.int32))
        for key in ("start", "end", "size", "failed"):
            parts[key].append(spans[key])
        offset += len(spans["start"])
    out = {k: (np.concatenate(v) if v else np.array([])) for k, v in parts.items()}
    out["names"] = np.array(names, dtype=str)
    return out

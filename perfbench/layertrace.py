"""Outside-in tracing of flagposet's layers.

The tracer wraps every public module-level function of each layer
module, everywhere the function object is bound in the package (module
globals, ``from .x import f`` copies, the package namespace), so calls
between layers record a span.  Spans are kept in memory and reduced to
per-layer metrics when the traced pass ends.  Nothing in the package is
edited; ``uninstall`` puts every original binding back.

Methods of the package's classes are not wrapped: their time counts as
self time of the layer function that called them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = {
    "kernel": ("flagposet.kernel", "flagposet._kernel_py"),
    "homology": ("flagposet.homology",),
    "complexes": ("flagposet.complexes",),
    "covers": ("flagposet.covers",),
    "ideals": ("flagposet.ideals",),
    "characterize": ("flagposet.characterize",),
    "posets": ("flagposet.posets",),
    "cli": ("flagposet.cli",),
}


def _gf2_entries(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = max(rows, default=0).bit_length()
    return {"kernel.matrix_entries": len(rows) * ncols}


def _mod_p_entries(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return {"kernel.matrix_entries": len(rows) * (len(rows[0]) if rows else 0)}


# Counts read from arguments and return values, keyed by span name.
COUNTERS = {
    "kernel.rank_gf2": _gf2_entries,
    "kernel.rank_mod_p": _mod_p_entries,
    "kernel.faces_from_nonfaces": lambda a, k, r: {"kernel.faces": len(r)},
    "kernel.faces_from_facets": lambda a, k, r: {"kernel.faces": len(r)},
    "covers.minimal_transversals": lambda a, k, r: {
        "covers.transversals": len(r)},
    "homology.betti_multidegree": lambda a, k, r: {
        "homology.multidegrees": 1,
        "homology.nonzero_multidegrees": int(any(r))},
}


class Tracer:
    """Records one span per call of a wrapped function.

    A span is ``[parent index, name, start, end]``; a call made while
    the innermost open span has the same name (the kernel dispatcher
    handing over to its pure twin, or direct recursion) joins that span
    instead of opening a new one.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][1] == name:
                return fn(*args, **kwargs)
            span = [stack[-1] if stack else -1, name, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, module_names in LAYERS.items():
            for module_name in module_names:
                module = importlib.import_module(module_name)
                for attr, value in vars(module).items():
                    if (not attr.startswith("_") and inspect.isfunction(value)
                            and value.__module__ == module_name):
                        wrappers[id(value)] = self._wrap(f"{layer}.{attr}",
                                                         value)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "flagposet":
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def functions(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (_, name, start, end) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out


COUNT_METRICS = ("kernel.matrix_entries", "kernel.faces",
                 "homology.multidegrees", "covers.transversals")


def is_count(metric: str) -> bool:
    """Counts repeat exactly across traced passes of the same ops."""
    return metric.endswith(".calls") or metric in COUNT_METRICS


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics named in ``BENCHMARK.json``."""
    fns = tracer.functions()
    counts = tracer.counts

    def get(name, field):
        return fns.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(row["self_s"] for name, row in fns.items()
                                     if name.split(".")[0] == layer)
    for field in ("calls", "busy_s"):
        out[f"kernel.rank.{field}"] = (get("kernel.rank_gf2", field)
                                       + get("kernel.rank_mod_p", field))
        for name in ("kernel.faces_from_nonfaces", "kernel.faces_from_facets",
                     "kernel.cohomology_dims", "homology.full_betti_table",
                     "complexes.x_complexes", "complexes.independence_complex",
                     "covers.minimal_transversals", "ideals.alexander_dual",
                     "characterize.check_cm_structural",
                     "posets.are_isomorphic"):
            out[f"{name}.{field}"] = get(name, field)
    for name in ("homology.is_cm_oracle", "homology.has_linear_resolution_oracle",
                 "homology.betti_polynomial_fast",
                 "homology.betti_polynomial_bruteforce",
                 "characterize.check_unmixed_structural",
                 "characterize.check_weak_conditions", "characterize.is_bi_cm",
                 "cli.main"):
        out[f"{name}.busy_s"] = get(name, "busy_s")
    for name in COUNT_METRICS:
        out[name] = counts[name]
    visited = counts["homology.multidegrees"]
    out["homology.nonzero_ratio"] = (
        counts["homology.nonzero_multidegrees"] / visited if visited else 0.0)
    return out

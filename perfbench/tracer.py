"""Outside-in tracer: spans around the package's public functions.

The package is not modified. ``Tracer.install`` replaces every public
function and public method of the layer modules (plus the arithmetic
operators of their classes) by a wrapper that records a span, and patches
every binding of each original: the defining module, the names other
modules import (``cli`` imports most of them), the re-exports in the
package ``__init__`` and class attributes, aliases such as ``__rmul__``
included. Private helpers are not wrapped, so their time counts as self
time of the nearest public caller.

Spans (name, start, end, parent, run id) are kept in memory; ``summary``
turns them into per-function calls and self times, self time being span
time minus the time covered by child spans, and ``write`` stores them as
CSV when the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

#: The package's modules, one layer each; ``errors`` has no run-time cost.
LAYERS = ("cli", "catalog", "core", "halfq", "invariants", "deform", "strata")

#: Operators wrapped besides public methods; a span is named without underscores.
OPERATORS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__")


def _den_degree(counters, args, result):
    # a canonical denominator has valuation 0, so its degree is its top power
    name = "halfq.RatFunc.den_degree.max"
    counters[name] = max(counters.get(name, 0), max(result.den.coeffs))


def _count_results(metric):
    def probe(counters, args, result):
        counters[metric] = counters.get(metric, 0) + len(result)

    return probe


def _box_cells(counters, args, result):
    cells = 1
    for c in args[0].coords:
        cells *= c + 1
    counters["core.box_scan.cells"] = counters.get("core.box_scan.cells", 0) + cells


#: Work counters read from a wrapped call's arguments or result. They touch
#: only plain attributes, never wrapped functions, so they add no spans.
PROBES = {
    "halfq.RatFunc.from_ratio": _den_degree,
    "invariants.hn_decompositions": _count_results("invariants.hn_decompositions.count"),
    "strata.luna_types": _count_results("strata.luna_types.count"),
    "core.box_iter": _box_cells,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.counters: dict[str, int] = {}
        self.run_id = 0
        self._stack = [-1]

    def begin_run(self, run_id: int) -> None:
        """Start the spans of one item; an aborted item leaves no open span behind."""
        self.run_id = run_id
        del self._stack[1:]

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, tracer.run_id)
            if probe is not None:
                probe(tracer.counters, args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer and patch all their bindings."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for member, value in vars(obj).items():
                        if member.startswith("_") and member not in OPERATORS:
                            continue
                        fn = getattr(value, "__func__", value)
                        if inspect.isfunction(fn) and fn not in wrappers:
                            label = member.strip("_")
                            wrappers[fn] = self._wrap(f"{layer}.{attr}.{label}", fn)
        for name, module in list(sys.modules.items()):
            if name != package.__name__ and not name.startswith(package.__name__ + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    _patch_class(obj, wrappers)

    def summary(self) -> tuple[dict[str, tuple[int, float]], float]:
        """Per span name (calls, self seconds), and the time covered by root spans."""
        spans = self.spans
        covered = [0.0] * len(spans)
        root_time = 0.0
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
            else:
                root_time += end - start
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for index, (name_id, start, end, _, _) in enumerate(spans):
            calls[name_id] += 1
            self_s[name_id] += end - start - covered[index]
        table = {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}
        return table, root_time

    def write(self, path: str) -> None:
        """Store the spans as CSV, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,run_id\n")
            fh.writelines(
                f"{self.names[n]},{s - origin:.9f},{e - origin:.9f},{p},{r}\n"
                for n, s, e, p, r in self.spans
            )


def _patch_class(cls, wrappers) -> None:
    for member, value in list(vars(cls).items()):
        fn = getattr(value, "__func__", value)
        if not inspect.isfunction(fn) or fn not in wrappers:
            continue
        wrapper = wrappers[fn]
        if isinstance(value, classmethod):
            wrapper = classmethod(wrapper)
        elif isinstance(value, staticmethod):
            wrapper = staticmethod(wrapper)
        setattr(cls, member, wrapper)

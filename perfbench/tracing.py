"""Spans around the public functions of the program's modules.

``Tracer.install`` rebinds every public function of each layer module to
a wrapper, in every ``gieseker`` module namespace that holds it, so calls
between modules and within one module are both seen.  No program file
changes.  A span records its function, start, end, parent span and
request id; self time is the span's duration minus the time its direct
child spans cover, so the self times of all spans add up to the time
spent inside the outermost spans.

Spans are kept in flat arrays (a bounded number of them, see
``MAX_SPANS``) and written out when the run ends; the per-function
totals that the per-layer metrics come from are accumulated for every
span, kept or not.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("cli", "modular_graph", "degeneration", "atlas", "character", "invariants")

# Beyond this many spans (about 40 bytes each) spans are only aggregated.
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, int] = {}
        self.request_id = -1
        self.span_count = 0
        self._id = array("i")
        self._name_of = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._request = array("i")
        self._stack: list[list] = []  # [span index or -1, child time]
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, qualname: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.self_s.append(0.0)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.span_count
            self.span_count += 1
            parent = stack[-1][0] if stack else -1
            frame = [index if index < MAX_SPANS else -1, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[nid] += 1
                self.self_s[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index < MAX_SPANS:
                    self._id.append(index)
                    self._name_of.append(nid)
                    self._start.append(start)
                    self._end.append(end)
                    self._parent.append(parent)
                    self._request.append(self.request_id)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- installing -------------------------------------------------------

    def install(self, result_hooks=None) -> None:
        """Rebind every public function of each layer module, in every
        ``gieseker`` namespace that refers to it."""
        result_hooks = result_hooks or {}
        package = importlib.import_module("gieseker")
        modules = {layer: importlib.import_module(f"gieseker.{layer}") for layer in LAYERS}
        namespaces = [package, importlib.import_module("gieseker.errors"), *modules.values()]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                qualname = f"{layer}.{name}"
                wrapper = self.wrap(qualname, obj, result_hooks.get(qualname))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, attr, wrapper)
                            self._installed.append((ns, attr, obj))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._installed):
            setattr(ns, attr, original)
        self._installed.clear()

    # -- reporting ----------------------------------------------------------

    def function_totals(self) -> dict[str, tuple[int, float]]:
        return {n: (c, s) for n, c, s in zip(self.names, self.calls, self.self_s)}

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        out = {layer: (0, 0.0) for layer in LAYERS}
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            layer = name.split(".", 1)[0]
            c, s = out[layer]
            out[layer] = (c + calls, s + self_s)
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as CSV; returns how many were written."""
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,request\n")
            for i in range(len(self._start)):
                fh.write(
                    f"{self._id[i]},{self.names[self._name_of[i]]},{self._start[i]:.9f},"
                    f"{self._end[i]:.9f},{self._parent[i]},{self._request[i]}\n"
                )
        return len(self._start)

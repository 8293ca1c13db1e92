"""Spans around every call into the program's public functions.

The tracer wraps, from outside the program, each public plain function
of a layer module (its `__all__`, or else every name without a leading
underscore), and rebinds the wrapper wherever
the `minrank` package or its modules hold the original.  Calls between
modules go through those bindings, so nested calls become child spans.
A call to a function already open on the stack (recursion) gets no span
of its own, so a layer's busy time never counts the same interval twice.

Spans stay in memory as lists
    [span id, parent id, item index, layer, start s, end s, failed, n]
and are written out once, after the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

LAYER_MODULES = ("partial", "solutions", "report", "codes")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item: int | None = None
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"minrank.{short}"]
            names = getattr(mod, "__all__", None) or [
                name for name in vars(mod) if not name.startswith("_")
            ]
            for name in names:
                fn = getattr(mod, name)
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "minrank" and not modname.startswith("minrank."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._rebound.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._rebound):
            setattr(mod, attr, value)
        self._rebound.clear()

    def _wrap(self, layer: str, fn):
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer in open_:
                return fn(*args, **kwargs)
            span = [
                len(spans), stack[-1] if stack else None, self.item, layer,
                clock(), 0.0, False, getattr(args[0], "n", None) if args else None,
            ]
            spans.append(span)
            stack.append(span[0])
            open_.add(layer)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[5] = clock()
                stack.pop()
                open_.discard(layer)

        return traced

    def write(self, path) -> None:
        keys = ("id", "parent", "item", "layer", "start", "end", "failed", "n")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def percentile_ms(seconds: list[float], q: int) -> float:
    """The q-th percentile of durations in seconds, in ms; 0 without any."""
    if len(seconds) < 2:
        return seconds[0] * 1000 if seconds else 0.0
    return statistics.quantiles(seconds, n=100)[q - 1] * 1000


def layer_metrics(spans: list[list], tight_items: set[int]) -> dict[str, float]:
    """Per-layer numbers from the spans of one run, for every layer seen.

    busy_s is the summed duration of a layer's spans; self_s subtracts
    the time its direct child spans cover.
    """
    by_layer: dict[str, list[list]] = {}
    child_s = [0.0] * len(spans)
    for span in spans:
        by_layer.setdefault(span[3], []).append(span)
        if span[1] is not None:
            child_s[span[1]] += span[5] - span[4]

    def durations(layer, keep=lambda s: True):
        return [s[5] - s[4] for s in by_layer.get(layer, ()) if keep(s)]

    out: dict[str, float] = {}
    for layer, own in by_layer.items():
        d = durations(layer)
        out[f"{layer}.calls"] = len(own)
        out[f"{layer}.busy_s"] = sum(d)
        out[f"{layer}.self_s"] = sum(d) - sum(child_s[s[0]] for s in own)
        out[f"{layer}.failed"] = sum(1 for s in own if s[6])
        out[f"{layer}.p50_ms"] = percentile_ms(d, 50)
        out[f"{layer}.p90_ms"] = percentile_ms(d, 90)
        out[f"{layer}.max_ms"] = max(d, default=0.0) * 1000
    opt = "solutions.opt_exact"
    for n in (8, 10, 12):
        out[f"{opt}.p50_ms.n{n}"] = percentile_ms(durations(opt, lambda s: s[7] == n), 50)
    out[f"{opt}.col_bound_tight_s"] = sum(durations(opt, lambda s: s[2] in tight_items))
    return out

"""Outside-in span tracing of the program's layers.

The tracer wraps the listed public functions of each ``mcastcap`` module.
A function is found under its listed module first, or, if it has moved, in
whichever loaded ``mcastcap`` module now defines it.  The wrapper then
replaces every reference to that function object in every loaded
``mcastcap`` module, so calls made through a ``from ... import`` in another
module are traced too.  Nothing inside the program is changed on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "cli": ("main", "analyze_instance"),
    "multigraph": ("load_instance", "validate", "prune_to_core", "scale_capacities"),
    "connectivity": ("terminal_connectivity", "max_flow"),
    "packing": (
        "max_integer_packing",
        "half_integer_capacity",
        "fractional_capacity_lp",
        "verify_packing",
    ),
    "strength": ("edge_strength",),
    "splitting": ("eliminate_relays", "is_admissible", "split_off", "lift_packing"),
}
SPANS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)
# Spans whose boolean result is counted, to measure wasted attempts.
PREDICATES = frozenset({"splitting.is_admissible"})


def _program_modules() -> list:
    return [
        m
        for n, m in list(sys.modules.items())
        if m is not None and (n == "mcastcap" or n.startswith("mcastcap."))
    ]


def _resolve(module: str, name: str):
    try:
        fn = getattr(importlib.import_module(f"mcastcap.{module}"), name, None)
    except ModuleNotFoundError:
        fn = None
    if inspect.isfunction(fn):
        return fn
    for m in _program_modules():
        fn = getattr(m, name, None)
        if inspect.isfunction(fn) and fn.__module__ == m.__name__:
            return fn
    return None


class Tracer:
    """Records one span per call of a wrapped function, in memory.

    A span is (request, id, parent id, name, start, end, self seconds,
    outermost, result flag).  Self time is the span's duration minus the
    durations of its direct child spans.
    """

    def __init__(self) -> None:
        self.request = -1
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self._patched: list[tuple] = []

    def install(self) -> None:
        for module in LAYERS:
            try:
                importlib.import_module(f"mcastcap.{module}")
            except ModuleNotFoundError:
                pass
        for label in SPANS:
            module, name = label.split(".")
            fn = _resolve(module, name)
            if fn is None:
                continue
            wrapper = self._wrap(label, fn)
            for m in _program_modules():
                for attr in [a for a, v in vars(m).items() if v is fn]:
                    self._patched.append((m, attr, fn))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def _wrap(self, label: str, fn):
        predicate = label in PREDICATES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, label, 0.0]
            self._stack.append(frame)
            self._depth[label] += 1
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._depth[label] -= 1
                if self._stack:
                    self._stack[-1][2] += end - start
                self.spans.append(
                    (
                        self.request,
                        span_id,
                        parent,
                        label,
                        start,
                        end,
                        end - start - frame[2],
                        self._depth[label] == 0,
                        bool(result) if predicate else None,
                    )
                )

        return traced

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, total seconds, true results."""
        out = {label: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "true": 0} for label in SPANS}
        for _, _, _, label, start, end, self_s, outermost, flag in self.spans:
            t = out[label]
            t["calls"] += 1
            t["self_s"] += self_s
            if outermost:
                t["total_s"] += end - start
            if flag:
                t["true"] += 1
        return out

    def write(self, path) -> None:
        fields = ("request", "id", "parent", "name", "start", "end", "self_s", "outermost", "result")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")

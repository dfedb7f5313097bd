"""In-memory spans around calls into the layers of ``tailmoments``.

A :class:`Tracer` replaces chosen public functions of the package with
wrappers that record one span per call: its name, start, end, the span
that was open when it began (its parent) and the benchmark's current run
id.  The wrappers are installed from outside the package, on every module
namespace that holds the function, and removed again on exit, so the
package itself is unchanged.  Spans stay in memory until :meth:`dump`.

Wrappers run only in the process that installed them; work done inside
pool workers of the harness is not traced.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to trace.

    ``namer`` may derive the span name from the call's arguments, ``after``
    sees the arguments and result once the span has closed, and ``only_in``
    restricts patching to the named module namespaces.
    """

    module: str
    attr: str
    span: str
    namer: Callable | None = None
    after: Callable | None = None
    only_in: tuple[str, ...] | None = None


class Tracer:
    """Span recorder with install/remove of the wrappers as a context manager."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.runs: list[str] = []
        self.stack: list[int] = []
        self.run_id = ""
        self.counts: dict[str, list] = {}
        self._patched: list[tuple[object, str, object]] = []

    def count(self, key: str, value) -> None:
        self.counts.setdefault(key, []).append(value)

    def _wrap(self, target: Target, fn):
        tracer = self

        def traced(*args, **kwargs):
            name = target.namer(args, kwargs) if target.namer else target.span
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.runs.append(tracer.run_id)
            tracer.starts.append(0)
            tracer.ends.append(0)
            tracer.stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.starts[idx] = start
                tracer.ends[idx] = end
            if target.after is not None:
                target.after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "tailmoments"
                                           or name.startswith("tailmoments."))]
        for target in self.targets:
            original = getattr(sys.modules[target.module], target.attr)
            wrapper = self._wrap(target, original)
            for mod in modules:
                if target.only_in is not None and mod.__name__ not in target.only_in:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def span_table(self) -> dict[str, dict]:
        """Per span name: call count, total and self nanoseconds.

        Self time is a span's duration minus the durations of its direct
        children; spans of one process never overlap their siblings.
        """
        child = [0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        table: dict[str, dict] = {}
        for idx, name in enumerate(self.names):
            row = table.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            duration = self.ends[idx] - self.starts[idx]
            row["calls"] += 1
            row["total_ns"] += duration
            row["self_ns"] += duration - child[idx]
        return table

    def outermost_ns(self, runs: set[str], skip_layers: tuple[str, ...]) -> int:
        """Time covered by the outermost spans whose layer is not in ``skip_layers``.

        A span counts when no enclosing span belongs to a counted layer, so
        nested calls are not added twice.
        """
        counted = [False] * len(self.names)
        total = 0
        for idx, name in enumerate(self.names):
            if self.runs[idx] not in runs or name.split(".")[0] in skip_layers:
                continue
            counted[idx] = True
            parent = self.parents[idx]
            while parent >= 0 and not counted[parent]:
                parent = self.parents[parent]
            if parent < 0:
                total += self.ends[idx] - self.starts[idx]
        return total

    def dump(self, path) -> None:
        """Write every span as ``[name, start_ns, end_ns, parent, run]``."""
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "run"],
                       "spans": [list(row) for row in zip(
                           self.names, self.starts, self.ends,
                           self.parents, self.runs)]}, handle)
            handle.write("\n")

"""In-memory spans around calls into the library's public functions.

A `Tracer` replaces each traced function with a wrapper that records one
span per call: name, start, end, parent span and the item being run. The
binding is replaced in every `cak` module that holds the function, because
`from .model import solve_under` copies the name into each importer, and
methods are replaced on their class. Spans are kept in flat arrays while a
pass runs and summarised afterwards; `write` dumps them as tab-separated
text.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced function: `module.attr` or `module.Class.method`.

    `measure`, when given, maps a call's result to a number that is summed
    over calls (items returned, bytes written, successes counted).
    """

    module: str
    attr: str
    measure: Callable[[object], float] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = list(targets)
        self.names = [t.name for t in self.targets]
        self.active = False
        self.item = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.items = array("l")
        self.value = array("d")

    def __len__(self) -> int:
        return len(self.kind)

    def _wrap(self, kind: int, fn, measure):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.kind)
            self.kind.append(kind)
            self.parent.append(stack[-1] if stack else -1)
            self.items.append(self.item)
            self.end.append(0.0)
            self.value.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if measure is not None:
                self.value[idx] = measure(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target's bindings with traced wrappers."""
        modules = [
            m for n, m in list(sys.modules.items()) if n == "cak" or n.startswith("cak.")
        ]
        for kind, target in enumerate(self.targets):
            owner = sys.modules[f"cak.{target.module}"]
            path = target.attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapped = self._wrap(kind, original, target.measure)
            if isinstance(owner, type):
                self._patch(owner, path[-1], wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, self seconds and summed measure."""
        return summarize(
            self.names, self.kind, self.start, self.end, self.parent, self.value
        )

    def write(self, path, item_names: list[str]) -> None:
        """One line per span: index, name, start and end in microseconds
        from the first span, parent index (-1 for none), item, measure.
        Names and items are written as indexes into the header lists."""
        origin = self.start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("# names\t" + "\t".join(self.names) + "\n")
            out.write("# items\t" + "\t".join(item_names) + "\n")
            out.write("span\tname\tstart_us\tend_us\tparent\titem\tvalue\n")
            for i in range(len(self)):
                out.write(
                    f"{i}\t{self.kind[i]}\t{(self.start[i] - origin) * 1e6:.1f}\t"
                    f"{(self.end[i] - origin) * 1e6:.1f}\t{self.parent[i]}\t"
                    f"{self.items[i]}\t{self.value[i]:g}\n"
                )


def summarize(names, kind, start, end, parent, value) -> dict[str, dict[str, float]]:
    """Self time of a span is its duration minus the time its child spans
    cover; children of one span never overlap, since one thread runs them
    one after another."""
    covered = [0.0] * len(kind)
    for i in range(len(kind)):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    out = {n: {"calls": 0, "self_s": 0.0, "value": 0.0} for n in names}
    for i in range(len(kind)):
        row = out[names[kind[i]]]
        row["calls"] += 1
        row["self_s"] += (end[i] - start[i]) - covered[i]
        row["value"] += value[i]
    return out


class GcClock:
    """Time spent in, and number of, garbage collections, via gc.callbacks."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False

"""In-memory span recorder that wraps the program's public functions.

A ``Tracer`` replaces a function by a wrapper under the name it is bound to
in a calling module (for example ``plasmonqed.cli.scatter_spectrum`` and
``plasmonqed.storage.control_for_target_pulse``), so calls made by the
program itself are seen as well as calls made by the benchmark. Each call
becomes a span (name, start, end, parent). Counters read numbers off a
call's result. Nothing is written until ``dump`` is called at the end of a
run, and ``restore`` puts every original function back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or -1, round].
        self.spans: list[list] = []
        # Per round: counts read off results, and "calls", the number of
        # wrapped calls (the source of the tracing overhead).
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.round = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.round])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span, nested under any open span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, module, attr: str, name=None, on_result=None) -> bool:
        """Trace calls of ``module.attr``; False if the module lacks it.

        ``name`` is a span name or a function of the call's arguments that
        returns one; without it the call makes no span. ``on_result(counts,
        result)`` adds what it reads off each result to the round's counts.
        """
        original = getattr(module, attr, None)
        if original is None:
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counts[self.round]["calls"] += 1
            if name is None:
                result = original(*args, **kwargs)
            else:
                label = name(*args, **kwargs) if callable(name) else name
                index = self._open(label)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(index)
            if on_result is not None:
                on_result(self.counts[self.round], result)
            return result

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, original))
        return True

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def per_round(self, self_time: bool = False) -> dict[int, dict[str, float]]:
        """Total (or self) seconds of each span name, per round."""
        child_time = defaultdict(float)
        if self_time:
            for _, start, end, parent, _ in self.spans:
                if parent >= 0:
                    child_time[parent] += end - start
        totals: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for index, (name, start, end, _, rnd) in enumerate(self.spans):
            totals[rnd][name] += (end - start) - child_time[index]
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)},
                      handle)


def wrapper_cost(repeats: int = 20000) -> float:
    """Seconds one traced call adds over a bare call, measured here."""

    class Holder:
        @staticmethod
        def noop():
            return None

    tracer = Tracer()
    bare = Holder.noop
    start = time.perf_counter()
    for _ in range(repeats):
        bare()
    bare_s = time.perf_counter() - start
    tracer.wrap(Holder, "noop", "noop")
    traced = Holder.noop
    start = time.perf_counter()
    for _ in range(repeats):
        traced()
    traced_s = time.perf_counter() - start
    return max(0.0, traced_s - bare_s) / repeats

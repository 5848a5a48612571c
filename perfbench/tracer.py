"""Outside-in spans: wrap functions at the bindings their callers look up.

`Tracer.wrap(owner, attr, name)` replaces `owner.attr` (a module global or a
class attribute) with a timing wrapper and `unwrap_all` puts the originals
back, so the traced program itself is never edited. Nested wrapped calls
form a span stack; a span's self time is its duration minus the durations
of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Span and counter store for one run; `reset` starts a new bucket."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [name, time spent in child spans]
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}

    def reset(self) -> None:
        self.spans = {}
        self.counters = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def inside(self, name: str) -> bool:
        """Whether a span called `name` is open (the caller's ancestors)."""
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, owner, attr: str, name: str, work=None) -> None:
        """Time every call of `owner.attr` as span `name`.

        `work(tracer, args, result)`, when given, runs after a successful
        call, outside the span, to record work counts."""
        original = getattr(owner, attr)
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats = self.spans.get(name)
                if stats is None:
                    stats = self.spans[name] = SpanStats()
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                stats.total_s += elapsed
                stats.durations.append(elapsed)
            if work is not None:
                work(self, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

"""Exclusive-time ledger: nested host-time spans reduced to self times.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Spans arrive two ways:

* :meth:`Ledger.enter` and :meth:`Ledger.exit` bracket a call the
  benchmark wraps from outside;
* :meth:`Ledger.closed` takes a span that is reported only after it
  ended, as a duration (the engine's ``profiler.add(name, seconds)``
  slot works this way).  Children that closed inside that interval are
  re-parented under it, so the engine's ``reference_batch`` span loses
  the fault handling nested inside it.

Every frame's duration is charged to its parent exactly once, so the
self times of all names plus the root's own self time add up to the
root's duration.  :func:`check_ledger` asserts that and that no self
time is negative.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Tuple

#: Closed children a frame remembers for re-parenting under a later
#: post-hoc span.  A post-hoc span only ever encloses the few children
#: of one engine operation (a reference batch faults at most a handful
#: of times), so a short window is enough and keeps memory flat over
#: millions of operations.
RECENT_CHILDREN = 256


class _Frame:
    __slots__ = ("name", "start", "child_s", "recent")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.recent: Deque[Tuple[float, float]] = deque(maxlen=RECENT_CHILDREN)


class Ledger:
    """Accumulates self time per span name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = {}
        self._stack: List[_Frame] = []

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, self.clock())
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        """Close *frame* (the innermost open one); returns its duration."""
        end = self.clock()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        self._stack.pop()
        duration = end - frame.start
        self._charge(frame.name, duration - frame.child_s)
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += duration
            parent.recent.append((end, duration))
        return duration

    def closed(self, name: str, seconds: float) -> None:
        """Charge a span of *seconds* that ended just now.

        It must have run inside the innermost open frame.  Children of
        that frame which closed within the span's interval become its
        children instead.
        """
        if not self._stack:
            raise RuntimeError(f"post-hoc span {name!r} outside any frame")
        now = self.clock()
        start = now - seconds
        parent = self._stack[-1]
        inner = 0.0
        recent = parent.recent
        while recent and recent[-1][0] >= start:
            inner += recent.pop()[1]
        self._charge(name, seconds - inner)
        parent.child_s += seconds - inner
        recent.append((now, seconds))

    def _charge(self, name: str, seconds: float) -> None:
        self.self_s[name] = self.self_s.get(name, 0.0) + seconds


def check_ledger(
    self_s: Mapping[str, float], wall_s: float, rel_tol: float = 1e-6
) -> List[str]:
    """Problems with a ledger whose self times should add up to *wall_s*.

    Timer reads are monotonic and every duration is charged once, so a
    negative self time or a sum that misses the wall time means the
    span nesting was accounted wrongly.
    """
    problems = []
    for name, value in sorted(self_s.items()):
        if value < -rel_tol * wall_s:
            problems.append(f"negative self time {name}={value!r}")
    total = sum(self_s.values())
    if abs(total - wall_s) > rel_tol * max(wall_s, 1e-9):
        problems.append(
            f"self times sum to {total!r}, traced wall is {wall_s!r}"
        )
    return problems

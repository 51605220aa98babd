"""A C-Threads-like thread abstraction for the simulator.

The Mach C-Threads package gives a parallel program "a single, uniform
memory" — all threads share one task.  A simulated thread is a name plus a
generator of operations; the engine interleaves the generators, or the
thread's recorded stream when :mod:`repro.sim.trace` replays one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.sim.ops import EncodedOp, Op


class ThreadState(enum.Enum):
    """Lifecycle of a simulated thread."""

    RUNNABLE = "runnable"
    WAITING = "waiting"  # parked at a barrier
    FINISHED = "finished"


@dataclass
class CThread:
    """One thread of a simulated parallel application."""

    name: str
    index: int
    body: Iterator[Op] = field(repr=False)
    state: ThreadState = ThreadState.RUNNABLE
    #: Barrier the thread is parked at, when WAITING.
    waiting_on: Optional[str] = None
    #: Operations pulled from ``body`` so far (a replayed thread pulls
    #: none; the engine's ``ops_executed`` counts every op).
    ops_executed: int = 0
    #: The Mach task (address space) this thread belongs to.  All the
    #: paper's applications are single-task; multiprogrammed mixes (the
    #: introduction's "locality needs of the entire application mix")
    #: give each application its own task id.
    task: int = 0
    #: Encoded ops to pull instead of encoding ``body`` live: a replayed
    #: or recording stream (:mod:`repro.sim.trace`).
    stream: Optional[Iterator[EncodedOp]] = field(default=None, repr=False)

    def next_op(self) -> Optional[Op]:
        """Advance the body one step; ``None`` means the thread finished."""
        try:
            op = next(self.body)
        except StopIteration:
            self.state = ThreadState.FINISHED
            return None
        self.ops_executed += 1
        return op

    @property
    def finished(self) -> bool:
        """Whether the thread has run to completion."""
        return self.state is ThreadState.FINISHED

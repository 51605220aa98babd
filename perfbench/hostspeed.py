"""Host speed probe: fixed reference work timed between operations.

The shared hosts this benchmark runs on change speed by tens of
percent from one minute to the next, for the program and for any other
code alike.  The probe runs a fixed amount of pure-Python reference
work (dictionary lookups, attribute updates, generator resumption and
float arithmetic, as the simulator does) after every set-up and every
operation, for a fixed share of the time that operation took.  The
end-to-end times are then rescaled to the speed at which one unit of
reference work takes :data:`REFERENCE_UNIT_S`, which cancels the drift
while leaving every change to the program itself in the numbers.  The
raw times and the measured factor are printed next to the result.
"""

from __future__ import annotations

import time

#: Seconds one unit of reference work takes at the reference speed.
REFERENCE_UNIT_S = 0.05
#: Calibration time after an operation, as a share of its wall time.
SHARE = 0.25


class _Node:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight

    def bump(self, amount: float) -> float:
        self.weight += amount
        return self.weight


def _keys(count: int, modulus: int):
    for index in range(count):
        yield index, (index * 2654435761) % modulus


def _kernel(count: int, modulus: int) -> float:
    nodes = {}
    total = 0.0
    for index, key in _keys(count, modulus):
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = _Node(key, 0.0)
        total += node.bump(index * 0.5) % 3.0
        if key & 1:
            total -= 1.0
    return total


def reference_unit() -> float:
    """One unit of reference work: a small and a large working set."""
    return _kernel(30_000, 1021) + _kernel(30_000, 1_000_003)


class SpeedProbe:
    """Accumulates timed units of reference work over one run."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def sample(self, budget_s: float) -> None:
        """Run whole units until *budget_s* is spent (at least one)."""
        started = time.perf_counter()
        while True:
            reference_unit()
            self.units += 1
            elapsed = time.perf_counter() - started
            if elapsed >= budget_s:
                self.seconds += elapsed
                return

    @property
    def unit_s(self) -> float:
        return self.seconds / self.units

    @property
    def factor(self) -> float:
        """Multiply a host time by this to express it at reference speed."""
        return REFERENCE_UNIT_S / self.unit_s

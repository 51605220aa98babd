"""Elapsed-time and speedup analysis.

The paper deliberately reports *total user time* rather than speedups:
"our use of total user time eliminates the concurrency and serialization
artifacts that show up in elapsed (wall clock) times and speedup curves"
(Section 3.1).  Those artifacts are themselves interesting — serialized
initialization phases, load imbalance, and the γ penalty all show up as
sublinear speedup — and the simulator can report both views.

Elapsed time is approximated as the busiest processor's virtual time,
which is exact for our engine's contention-free model.

A curve is one :class:`~repro.exp.spec.RunSpec` replayed at every
machine size: :func:`speedup_curve` runs ``replace(spec,
n_processors=n)`` for each size through
:func:`~repro.exp.batch.run_batch`, so the points are ordinary cached,
poolable specs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.exp.batch import run_batch
from repro.exp.cache import ResultCache
from repro.exp.spec import RunSpec
from repro.sim.result import RunResult


@dataclass(frozen=True)
class SpeedupPoint:
    """One machine size on a speedup curve."""

    n_processors: int
    elapsed_us: float
    total_user_us: float
    total_system_us: float
    speedup: float

    @property
    def efficiency(self) -> float:
        """Speedup per processor (1.0 = perfectly linear)."""
        return self.speedup / self.n_processors


@dataclass(frozen=True)
class SpeedupCurve:
    """A workload's speedup across machine sizes."""

    workload: str
    points: List[SpeedupPoint]

    def point(self, n_processors: int) -> SpeedupPoint:
        """The point for one machine size."""
        for point in self.points:
            if point.n_processors == n_processors:
                return point
        raise KeyError(n_processors)

    def format(self) -> str:
        """Human-readable curve."""
        lines = [f"{self.workload}: speedup curve"]
        for point in self.points:
            lines.append(
                f"  {point.n_processors}p: elapsed "
                f"{point.elapsed_us / 1e6:8.3f}s  speedup "
                f"{point.speedup:5.2f}  efficiency {point.efficiency:4.2f}"
            )
        return "\n".join(lines)


def elapsed_us(result: RunResult) -> float:
    """The run's makespan: the busiest processor's total time."""
    return max((t.total_us for t in result.per_cpu), default=0.0)


def speedup_curve(
    spec: RunSpec,
    processors: Sequence[int] = (1, 2, 4, 7),
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> SpeedupCurve:
    """Measure elapsed time across machine sizes and derive speedups.

    *spec* fixes the application, policy and everything else; only its
    processor count varies.  The single-processor run is the baseline
    (added when *processors* lacks it), so each size runs the same
    fixed-total-work application under the same policy.  ``jobs`` and
    ``cache`` pass through to :func:`~repro.exp.batch.run_batch`.
    """
    if not processors or min(processors) < 1:
        raise ConfigurationError("need at least one positive machine size")
    sizes = sorted(set(processors))
    if sizes[0] != 1:
        sizes = [1] + sizes
    batch = run_batch(
        [replace(spec, n_processors=n) for n in sizes], jobs=jobs, cache=cache
    )
    results = [row.outcome.result for row in batch.rows]
    baseline_us = elapsed_us(results[0])
    points = []
    for n, result in zip(sizes, results):
        wall = elapsed_us(result)
        points.append(
            SpeedupPoint(
                n_processors=n,
                elapsed_us=wall,
                total_user_us=result.user_time_us,
                total_system_us=result.system_time_us,
                speedup=baseline_us / wall if wall > 0 else 0.0,
            )
        )
    return SpeedupCurve(workload=results[0].workload, points=points)

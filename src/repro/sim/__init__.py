"""Simulation engine, operations, and the run/measure harness."""

from repro.sim.engine import Engine, EngineObserver
from repro.sim.harness import (
    PlacementMeasurement,
    Simulation,
    build_simulation,
    measure_placement,
)
from repro.sim.ops import (
    Barrier,
    Compute,
    FreeObjectPages,
    MemBlock,
    Op,
    Syscall,
)
from repro.sim.result import CPUTimes, RunResult

__all__ = [
    "Engine",
    "EngineObserver",
    "PlacementMeasurement",
    "Simulation",
    "build_simulation",
    "measure_placement",
    "Barrier",
    "Compute",
    "FreeObjectPages",
    "MemBlock",
    "Op",
    "Syscall",
    "CPUTimes",
    "RunResult",
]

"""repro — a reproduction of Bolosky, Fitzgerald & Scott,
"Simple But Effective Techniques for NUMA Memory Management" (SOSP '89).

The package simulates the IBM ACE multiprocessor workstation and the Mach
VM system's machine-dependent pmap layer, in which the paper implemented
automatic NUMA page placement: local memories managed as a consistent
cache of global memory, with a simple move-counting policy that pins
frequently migrating pages in global memory.

Quick start::

    from repro import measure_placement, solve_model
    from repro.workloads import IMatMult

    m = measure_placement(IMatMult(), n_processors=7)
    params = solve_model(m)          # alpha, beta, gamma (Equations 1-5)
    print(m.t_numa_s, params.alpha, params.beta, params.gamma)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.analysis import model as _model
from repro.analysis.model import ModelParameters
from repro.analysis.report import run_evaluation
from repro.core.numa_manager import NUMAManager
from repro.core.policies import (
    AllGlobalPolicy,
    AllLocalPolicy,
    MoveThresholdPolicy,
    Pragma,
    PragmaPolicy,
    ReconsiderPolicy,
)
from repro.core.policy import NUMAPolicy
from repro.exp import ResultCache, RunSpec, run_batch
from repro.machine import MachineConfig, Machine, ace_config
from repro.sim.harness import (
    PlacementMeasurement,
    build_simulation,
    measure_placement,
)
from repro.sim.result import RunResult
from repro.workloads import TABLE_3_WORKLOADS, Workload

__version__ = "1.0.0"


def solve_model(measurement: PlacementMeasurement) -> ModelParameters:
    """Solve Equations 1-5 for a completed placement measurement."""
    return _model.solve(
        measurement.t_global_s,
        measurement.t_numa_s,
        measurement.t_local_s,
        measurement.g_over_l,
    )


__all__ = [
    "ModelParameters",
    "run_evaluation",
    "NUMAManager",
    "AllGlobalPolicy",
    "AllLocalPolicy",
    "MoveThresholdPolicy",
    "Pragma",
    "PragmaPolicy",
    "ReconsiderPolicy",
    "NUMAPolicy",
    "ResultCache",
    "RunSpec",
    "run_batch",
    "MachineConfig",
    "Machine",
    "ace_config",
    "PlacementMeasurement",
    "build_simulation",
    "measure_placement",
    "RunResult",
    "TABLE_3_WORKLOADS",
    "Workload",
    "solve_model",
    "__version__",
]

"""Multiprogrammed application mixes.

The paper's introduction claims OS-level placement uniquely "address[es]
the locality needs of the entire application mix, a task that cannot be
accomplished through independent modification of individual
applications".  :func:`run_mix` makes that claim testable: several
applications run *simultaneously* on one machine — each in its own Mach
task (address space), all sharing the processors, the local memories, the
global memory pool, and a single NUMA manager + policy — and per-task
user time is attributed, so a mix run can be compared against each
application's standalone run.

Like the single-run drivers, :func:`run_mix` is a thin shim: the wiring
lives in :func:`build_mix_simulation` and the engine execution goes
through :func:`repro.sim.harness.run_engine`, so telemetry (profiled
``engine_run`` spans, finalized gauges) behaves exactly as it does for
:func:`~repro.sim.harness.run_once`.  ``check_invariants`` defaults to
``True``, the same default as every other driver (it used to default
off here; pass ``check_invariants=False`` explicitly for speed).
Parameters beyond ``(workloads, policy)`` are keyword-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.numa_manager import NUMAManager
from repro.core.policy import NUMAPolicy
from repro.core.stats import NUMAStats
from repro.machine.config import MachineConfig, ace_config
from repro.machine.machine import Machine
from repro.obs.telemetry import Telemetry
from repro.sim.engine import Engine
from repro.sim.harness import run_engine
from repro.threads.cthreads import CThread
from repro.threads.scheduler import AffinityScheduler
from repro.vm.address_space import AddressSpace
from repro.vm.fault import FaultHandler
from repro.vm.page_pool import PagePool
from repro.vm.pmap import ACEPmap
from repro.workloads.base import BuildContext, Workload


@dataclass(frozen=True)
class TaskResult:
    """One application's share of a mix run."""

    task: int
    workload: str
    user_time_us: float

    @property
    def user_time_s(self) -> float:
        """User time in seconds."""
        return self.user_time_us / 1e6


@dataclass(frozen=True)
class MixResult:
    """Everything measured during one multiprogrammed run."""

    tasks: List[TaskResult]
    total_user_us: float
    total_system_us: float
    stats: NUMAStats
    rounds: int

    def task_named(self, workload: str) -> TaskResult:
        """The result for one application (first match by name)."""
        for task in self.tasks:
            if task.workload == workload:
                return task
        raise KeyError(workload)


@dataclass
class MixSimulation:
    """A fully wired multiprogrammed simulation."""

    machine: Machine
    numa: NUMAManager
    pool: PagePool
    pmap: ACEPmap
    engine: Engine
    threads: List[CThread]
    spaces: List[AddressSpace]
    #: task id → application name, in task order.
    task_names: Dict[int, str]


def build_mix_simulation(
    workloads: List[Workload],
    policy: NUMAPolicy,
    n_processors: int = 7,
    machine_config: Optional[MachineConfig] = None,
    check_invariants: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> MixSimulation:
    """Wire several applications onto one machine, one Mach task each.

    Each workload gets its own address space and fault handler (its own
    Mach task); all tasks share the machine, the logical page pool, and
    the NUMA manager, so their pages genuinely compete for local memory
    and the policy sees the whole mix's behaviour — the scenario the
    paper's introduction argues only the operating system can serve.
    """
    if machine_config is None:
        machine_config = ace_config(n_processors)
    machine = Machine(machine_config)
    numa = NUMAManager(machine, policy, check_invariants=check_invariants)
    pool = PagePool(numa)
    pmap = ACEPmap(numa)

    threads: List[CThread] = []
    spaces: List[AddressSpace] = []
    handlers: Dict[int, FaultHandler] = {}
    names: Dict[int, str] = {}
    thread_index = 0
    for task_id, workload in enumerate(workloads):
        # Disjoint virtual ranges per task: the simulated MMUs have no
        # address-space identifiers, so shared vpage numbers would let
        # one task translate into another's frames.
        space = AddressSpace(
            name=f"{workload.name}-task{task_id}",
            first_vpage=0x100 + task_id * 0x100000,
        )
        spaces.append(space)
        handler = FaultHandler(machine, space, pool, pmap)
        handlers[task_id] = handler
        names[task_id] = workload.name
        ctx = BuildContext(
            space=space,
            n_threads=machine.n_cpus,
            n_processors=machine.n_cpus,
            machine_config=machine_config,
        )
        for body in workload.build(ctx):
            threads.append(
                CThread(
                    name=f"{workload.name}-{thread_index}",
                    index=thread_index,
                    body=body,
                    task=task_id,
                )
            )
            thread_index += 1

    primary = handlers[0]
    extra = {task: h for task, h in handlers.items() if task != 0}
    engine = Engine(
        machine,
        primary,
        AffinityScheduler(machine.n_cpus),
        extra_handlers=extra,
    )
    numa.bus = engine.bus
    if telemetry is not None:
        telemetry.attach(machine, numa, pool, engine)
    return MixSimulation(
        machine=machine,
        numa=numa,
        pool=pool,
        pmap=pmap,
        engine=engine,
        threads=threads,
        spaces=spaces,
        task_names=names,
    )


def run_mix(
    workloads: List[Workload],
    policy: NUMAPolicy,
    *,
    n_processors: int = 7,
    machine_config: Optional[MachineConfig] = None,
    check_invariants: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> MixResult:
    """Run several applications concurrently on one machine.

    ``check_invariants`` defaults to True, as in :func:`~repro.sim.
    harness.run_once` (this driver historically defaulted it off).
    """
    sim = build_mix_simulation(
        workloads,
        policy,
        n_processors=n_processors,
        machine_config=machine_config,
        check_invariants=check_invariants,
        telemetry=telemetry,
    )
    rounds = run_engine(sim.engine, sim.threads, telemetry)
    tasks = [
        TaskResult(
            task=task_id,
            workload=sim.task_names[task_id],
            user_time_us=sim.engine.task_user_us.get(task_id, 0.0),
        )
        for task_id in sorted(sim.task_names)
    ]
    return MixResult(
        tasks=tasks,
        total_user_us=sim.machine.total_user_time_us(),
        total_system_us=sim.machine.total_system_time_us(),
        stats=sim.numa.stats,
        rounds=rounds,
    )

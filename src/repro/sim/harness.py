"""High-level run harness: build, run, and measure workloads.

:func:`build_simulation` is the one function that wires a simulation:
it constructs the :class:`~repro.machine.machine.Machine`, the
:class:`~repro.core.numa_manager.NUMAManager` and the
:class:`~repro.sim.engine.Engine` for single runs, multiprogrammed
mixes, chaos runs and declarative :class:`~repro.exp.spec.RunSpec`
executions alike, so every capability it has — machine-bound policies,
the sanitizer, fault injection, scheduler factories, the TLB fast path —
reaches every driver.  Every parameter after ``(workload, policy)`` is
keyword-only.  :meth:`Simulation.run` is the one step that runs what it
wired::

    result = build_simulation(workload, policy, n_processors=4).run()

A mix is the same call with a list of workloads; per-task user time is
read from ``sim.engine.task_user_us`` after the run.

:func:`measure_placement` performs the paper's full Section 3.1
methodology for one application:

* ``Tnuma`` — the real policy on an N-processor machine;
* ``Tglobal`` — the all-writable-data-in-global baseline, same machine;
* ``Tlocal`` — a single thread on a single-processor machine, everything
  local.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

from repro.check.sanitizer import attach_sanitizer, maybe_attach_sanitizer
from repro.core.numa_manager import NUMAManager
from repro.core.policy import NUMAPolicy
from repro.machine.config import MachineConfig, ace_config
from repro.machine.machine import Machine
from repro.obs.telemetry import Telemetry
from repro.sim.engine import Engine, EngineObserver
from repro.sim.result import CPUTimes, RunResult
from repro.threads.cthreads import CThread
from repro.threads.scheduler import AffinityScheduler, Scheduler
from repro.threads.unix_master import UnixMaster
from repro.vm.address_space import AddressSpace
from repro.vm.fault import FaultHandler
from repro.vm.page_pool import PagePool
from repro.vm.pmap import ACEPmap
from repro.workloads.base import BuildContext, Workload

SchedulerFactory = Callable[[int], Scheduler]


@dataclass
class Simulation:
    """A fully wired simulation, exposed for tests and custom drivers."""

    machine: Machine
    numa: NUMAManager
    pool: PagePool
    pmap: ACEPmap
    engine: Engine
    threads: list
    #: One build context per Mach task, in task order; each carries the
    #: task's address space and the regions its workload mapped.
    contexts: list
    #: The ``REPRO_SANITIZE``-attached :class:`ProtocolSanitizer`, when
    #: the environment opted this process in (``None`` otherwise).
    #: Chaos runs reuse it instead of attaching a second instance.
    sanitizer: object = None
    #: The attached :class:`~repro.obs.telemetry.Telemetry`, if any;
    #: :meth:`run` profiles the engine under it and finalizes it.
    telemetry: Optional[Telemetry] = None

    @property
    def context(self) -> BuildContext:
        """The first task's build context (a single run's only one)."""
        return self.contexts[0]

    @property
    def space(self) -> AddressSpace:
        """The first task's address space (a single run's only one)."""
        return self.contexts[0].space

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Subscribe *telemetry* to this simulation before :meth:`run`."""
        telemetry.attach(self.machine, self.numa, self.pool, self.engine)
        self.telemetry = telemetry

    def run(self) -> RunResult:
        """Run the threads to completion and collect the result.

        With telemetry attached, the engine runs inside the profiler's
        ``engine_run`` span and the end-of-run instruments are
        finalized afterwards — the same way for every driver.
        """
        telemetry = self.telemetry
        if telemetry is None:
            rounds = self.engine.run(self.threads)
        else:
            with telemetry.profiler.span("engine_run"):
                rounds = self.engine.run(self.threads)
            telemetry.finalize()
        machine = self.machine
        per_cpu = [
            CPUTimes(
                cpu=c.id, user_us=c.user_time_us, system_us=c.system_time_us
            )
            for c in machine.cpus
        ]
        data_refs = machine.cpus[0].data_refs
        all_refs = machine.cpus[0].all_refs
        for c in machine.cpus[1:]:
            data_refs = data_refs.merged_with(c.data_refs)
            all_refs = all_refs.merged_with(c.all_refs)
        return RunResult(
            workload=self.context.space.name,
            policy=self.numa.policy.name,
            n_processors=machine.n_cpus,
            n_threads=len(self.threads),
            per_cpu=per_cpu,
            stats=self.numa.stats,
            data_refs=data_refs,
            all_refs=all_refs,
            rounds=rounds,
            migrations=self.engine.scheduler.migrations(),
        )


def build_simulation(
    workload: Union[Workload, Sequence[Workload]],
    policy: NUMAPolicy,
    *,
    n_processors: int = 7,
    n_threads: Optional[int] = None,
    machine_config: Optional[MachineConfig] = None,
    scheduler_factory: Optional[SchedulerFactory] = None,
    unix_master: Optional[UnixMaster] = None,
    observer: Optional[EngineObserver] = None,
    check_invariants: bool = True,
    telemetry: Optional[Telemetry] = None,
    injector: Optional["FaultInjector"] = None,
    fast_path: bool = True,
    sanitize: Optional[bool] = None,
) -> Simulation:
    """Assemble machine, VM, NUMA layer, and threads for one run.

    *workload* is one workload or a sequence of them.  Each becomes its
    own Mach task — its own address space and fault handler, with
    ``n_threads`` threads (default: one per processor) — while all
    tasks share the machine, the page pool, and the NUMA manager and
    policy, so a multiprogrammed mix is wired exactly like a single run.

    ``observer`` and ``telemetry`` compose: both end up subscribed to
    the engine's event bus.  ``injector``
    wires a :class:`~repro.faults.injector.FaultInjector` into the NUMA
    manager's hot paths and the engine's policy tick (chaos runs).
    ``fast_path=False`` disables the engine's software-TLB fast path
    (simulated results are identical either way; bench_hotpath measures
    the difference in simulator throughput).  ``sanitize`` overrides the
    ``REPRO_SANITIZE`` environment: ``None`` lets the environment
    decide, ``False`` never attaches (the race-fixture runs, which
    deliberately corrupt protocol state, use this), ``True`` always
    attaches.
    """
    workloads = (
        [workload] if isinstance(workload, Workload) else list(workload)
    )
    if machine_config is None:
        machine_config = ace_config(n_processors)
    machine = Machine(machine_config)
    # Policies that watch the machine itself — interconnect contention,
    # bandit reward counters — declare a bind_machine hook; the policy
    # interface proper stays machine-free.
    bind = getattr(policy, "bind_machine", None)
    if bind is not None:
        bind(machine)
    numa = NUMAManager(machine, policy, check_invariants=check_invariants)
    pool = PagePool(numa)
    pmap = ACEPmap(numa)
    if n_threads is None:
        n_threads = machine.n_cpus
    handlers: List[FaultHandler] = []
    contexts: List[BuildContext] = []
    threads: List[CThread] = []
    for task, each in enumerate(workloads):
        # Disjoint virtual ranges per task: the simulated MMUs have no
        # address-space identifiers, so shared vpage numbers would let
        # one task translate into another's frames.
        space = AddressSpace(
            name=(
                each.name if len(workloads) == 1
                else f"{each.name}-task{task}"
            ),
            first_vpage=0x100 + task * 0x100000,
        )
        handlers.append(FaultHandler(machine, space, pool, pmap))
        ctx = BuildContext(
            space=space,
            n_threads=n_threads,
            n_processors=machine.n_cpus,
            machine_config=machine_config,
        )
        contexts.append(ctx)
        for body in each.build(ctx):
            index = len(threads)
            threads.append(
                CThread(
                    name=f"{each.name}-{index}",
                    index=index,
                    body=body,
                    task=task,
                )
            )
    scheduler = (
        scheduler_factory(machine.n_cpus)
        if scheduler_factory is not None
        else AffinityScheduler(machine.n_cpus)
    )
    engine = Engine(
        machine,
        handlers[0],
        scheduler,
        unix_master=unix_master,
        extra_handlers=dict(enumerate(handlers[1:], start=1)),
        fast_path=fast_path,
    )
    if observer is not None:
        engine.add_observer(observer)
    numa.bus = engine.bus
    if injector is not None:
        injector.bind(machine, engine.bus)
        numa.injector = injector
        engine.injector = injector
    sim = Simulation(
        machine=machine,
        numa=numa,
        pool=pool,
        pmap=pmap,
        engine=engine,
        threads=threads,
        contexts=contexts,
    )
    if telemetry is not None:
        sim.attach_telemetry(telemetry)
    if sanitize is None:
        sim.sanitizer = maybe_attach_sanitizer(numa, engine.bus)
    elif sanitize:
        sim.sanitizer = attach_sanitizer(numa, engine.bus)
    return sim


@dataclass(frozen=True)
class PlacementMeasurement:
    """The three runs of the paper's methodology for one application."""

    workload: str
    g_over_l: float
    numa: RunResult
    all_global: RunResult
    local: RunResult

    @property
    def t_numa_s(self) -> float:
        """Tnuma in seconds."""
        return self.numa.user_time_s

    @property
    def t_global_s(self) -> float:
        """Tglobal in seconds."""
        return self.all_global.user_time_s

    @property
    def t_local_s(self) -> float:
        """Tlocal in seconds."""
        return self.local.user_time_s


def measure_placement(
    workload: Workload,
    *,
    n_processors: int = 7,
    threshold: int = 4,
    machine_config: Optional[MachineConfig] = None,
    check_invariants: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> PlacementMeasurement:
    """Run the paper's three measurements for one application.

    ``Tlocal`` runs with one thread on a one-processor machine under the
    always-LOCAL policy, exactly the paper's procedure for avoiding
    spin-lock time-slicing artifacts (Section 3.1).  ``telemetry``
    attaches to the Tnuma run only — that is the run whose dynamics the
    paper's tables describe.

    The three configurations come from
    :func:`repro.exp.grid.placement_specs`, so a ``measure_placement``
    call and a batched sweep over the same application produce
    identical results.
    """
    from repro.exp.grid import placement_specs  # deferred: exp builds on sim

    specs = placement_specs(
        workload.name,
        n_processors=n_processors,
        threshold=threshold,
        check_invariants=check_invariants,
    )
    local_config = (
        None if machine_config is None
        else machine_config.scaled(n_processors=1)
    )

    def run(spec, config, spec_telemetry=None) -> RunResult:
        return build_simulation(
            workload,
            spec.resolve_policy(),
            n_processors=spec.n_processors,
            n_threads=spec.n_threads,
            machine_config=config,
            check_invariants=spec.check_invariants,
            telemetry=spec_telemetry,
            fast_path=spec.fast_path,
        ).run()

    return PlacementMeasurement(
        workload=workload.name,
        g_over_l=workload.g_over_l,
        numa=run(specs.tnuma, machine_config, telemetry),
        all_global=run(specs.tglobal, machine_config),
        local=run(specs.tlocal, local_config),
    )

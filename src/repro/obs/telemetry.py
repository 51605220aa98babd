"""The :class:`Telemetry` facade: one object that wires everything.

``Telemetry()`` bundles a metrics registry, a phase profiler, and (once
attached to a simulation) a per-round sampler and the standard
:class:`MetricsObserver`.  The harness attaches it with one call::

    telemetry = Telemetry()
    result = build_simulation(workload, policy, telemetry=telemetry).run()
    write_jsonl(telemetry.to_records(), "out.jsonl")

Everything here observes; nothing charges simulated time, so a run's
Table 3 numbers are identical with and without telemetry attached.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.state import AccessKind
from repro.machine.timing import MemoryLocation
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import PhaseProfiler
from repro.obs.sampler import DEFAULT_INTERVAL, RoundSample, RoundSampler

#: Simulated fault latency buckets, µs.  ACE page copies cost hundreds
#: of µs, simple mapping faults tens — these bounds split the two modes.
FAULT_LATENCY_BOUNDS = (10, 20, 50, 100, 200, 500, 1000, 2000, 5000)

#: Page move-count buckets.  The paper's default threshold pins after
#: four moves, so the interesting mass sits in 0..4 with a tail for
#: reconsider-style policies that keep moving.
MOVE_COUNT_BOUNDS = (0, 1, 2, 3, 4, 8, 16)


class MetricsObserver:
    """Event-bus observer that feeds the standard instruments.

    Counts references and faults, and fills the simulated
    fault-latency histogram from ``on_fault_resolved``.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._refs = registry.counter("references")
        self._reads = registry.counter("reads")
        self._writes = registry.counter("writes")
        self._local_refs = registry.counter("local_references")
        self._fault_counters = {
            kind: registry.counter(f"{kind.value}_faults")
            for kind in AccessKind
        }
        self._fault_latency = registry.histogram(
            "fault_latency_us", FAULT_LATENCY_BOUNDS
        )

    def on_reference(
        self,
        round_index: int,
        cpu: int,
        vpage: int,
        page_id: int,
        reads: int,
        writes: int,
        location: MemoryLocation,
        writable_data: bool,
    ) -> None:
        """Count one reference block."""
        del round_index, cpu, vpage, page_id, writable_data
        self._refs.inc(reads + writes)
        self._reads.inc(reads)
        self._writes.inc(writes)
        if location is MemoryLocation.LOCAL:
            self._local_refs.inc(reads + writes)

    def on_fault(
        self, round_index: int, cpu: int, vpage: int, kind: AccessKind
    ) -> None:
        """Count one fault by access kind."""
        del round_index, cpu, vpage
        self._fault_counters[kind].inc()

    def on_fault_resolved(
        self,
        round_index: int,
        cpu: int,
        vpage: int,
        kind: AccessKind,
        system_us: float,
    ) -> None:
        """Record the simulated system time one fault handling charged."""
        del round_index, cpu, vpage, kind
        self._fault_latency.observe(system_us)


class Telemetry:
    """Registry + profiler + sampler, attachable to one simulation."""

    def __init__(
        self,
        sample_interval: int = DEFAULT_INTERVAL,
        registry: Optional[MetricsRegistry] = None,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        self.sampler: Optional[RoundSampler] = None
        self._sample_interval = sample_interval
        self._metrics_observer = MetricsObserver(self.registry)
        self._machine = None
        self._numa = None
        self._finalized = False

    # -- wiring --------------------------------------------------------------

    def attach(self, machine, numa, pool, engine) -> None:
        """Wire this telemetry into a built simulation.

        Subscribes the metrics observer and a fresh round sampler to the
        engine's event bus and installs the profiler; called through
        :meth:`repro.sim.harness.Simulation.attach_telemetry`.
        """
        self.sampler = RoundSampler(
            machine, numa, pool, interval=self._sample_interval
        )
        engine.bus.subscribe(self._metrics_observer)
        engine.bus.subscribe(self.sampler)
        engine.profiler = self.profiler
        self._machine = machine
        self._numa = numa

    def finalize(self) -> None:
        """Fill the end-of-run instruments (idempotent).

        Gauges and the page move-count histogram only make sense once
        the run is over; :meth:`repro.sim.harness.Simulation.run` calls
        this after the engine finishes.
        """
        if self._finalized or self._machine is None:
            return
        self._finalized = True
        for cpu in self._machine.cpus:
            counters = cpu.data_refs
            total = counters.total()
            self.registry.gauge(f"cpu{cpu.id}_local_hit").set(
                counters.total_to(MemoryLocation.LOCAL) / total
                if total
                else None
            )
        tlb = self._machine.tlb_counters()
        for key in ("hits", "misses", "fills", "evictions",
                    "invalidations", "shootdowns", "flushes"):
            self.registry.counter(f"tlb_{key}").inc(tlb[key])
        lookups = tlb["hits"] + tlb["misses"]
        self.registry.gauge("tlb_hit_ratio").set(
            tlb["hits"] / lookups if lookups else None
        )
        policy = self._numa.policy
        move_counts = getattr(policy, "move_counts", None)
        if callable(move_counts):
            histogram = self.registry.histogram(
                "page_move_count", MOVE_COUNT_BOUNDS
            )
            for count in move_counts().values():
                histogram.observe(count)

    # -- output --------------------------------------------------------------

    @property
    def samples(self) -> List[RoundSample]:
        """The per-round time series (empty before attachment)."""
        if self.sampler is None:
            return []
        return self.sampler.samples

    def to_records(
        self, meta: Optional[Dict[str, object]] = None
    ) -> List[Dict[str, object]]:
        """Everything as flat records: meta, samples, metrics, phases."""
        records: List[Dict[str, object]] = []
        if meta is not None:
            record: Dict[str, object] = {"t": "meta"}
            record.update(meta)
            records.append(record)
        records.extend(s.as_record() for s in self.samples)
        records.extend(self.registry.as_records())
        records.extend(self.profiler.as_records())
        return records

    def summary(self, meta: Optional[Dict[str, object]] = None) -> str:
        """Human-readable report over :meth:`to_records`."""
        from repro.obs.exporters import human_summary

        return human_summary(self.to_records(meta))

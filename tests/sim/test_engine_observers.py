"""Engine observation: the event bus and its events."""

from repro.obs.events import EventBus
from repro.sim.engine import Engine
from repro.sim.ops import Compute, MemBlock
from repro.threads.cthreads import CThread
from repro.threads.scheduler import AffinityScheduler
from repro.vm.vm_object import shared_object
from tests.conftest import make_rig


def run_bodies(rig, bodies, **kwargs):
    engine = Engine(
        rig.machine,
        rig.faults,
        AffinityScheduler(rig.machine.n_cpus),
        **kwargs,
    )
    threads = [
        CThread(name=f"t{i}", index=i, body=body)
        for i, body in enumerate(bodies)
    ]
    engine.run(threads)
    return engine


class RoundWatcher:
    def __init__(self):
        self.rounds = []
        self.run_end = None

    def on_round_end(self, round_index):
        self.rounds.append(round_index)

    def on_run_end(self, rounds):
        self.run_end = rounds


class TestBusEvents:
    def test_round_end_emitted_per_round(self):
        rig = make_rig()
        watcher = RoundWatcher()
        engine = run_bodies(
            rig,
            [iter([Compute(1.0), Compute(1.0)])],
            bus=EventBus([watcher]),
        )
        assert watcher.rounds == list(range(engine.rounds))

    def test_run_end_reports_round_count(self):
        rig = make_rig()
        watcher = RoundWatcher()
        engine = run_bodies(
            rig, [iter([Compute(1.0)])], bus=EventBus([watcher])
        )
        assert watcher.run_end == engine.rounds

    def test_run_end_emitted_for_empty_thread_list(self):
        rig = make_rig()
        watcher = RoundWatcher()
        engine = Engine(
            rig.machine,
            rig.faults,
            AffinityScheduler(rig.machine.n_cpus),
            bus=EventBus([watcher]),
        )
        assert engine.run([]) == 0
        assert watcher.run_end == 0

    def test_fault_resolved_carries_simulated_latency(self):
        rig = make_rig()

        class LatencyWatcher:
            def __init__(self):
                self.latencies = []

            def on_fault_resolved(
                self, round_index, cpu, vpage, kind, system_us
            ):
                self.latencies.append(system_us)

        watcher = LatencyWatcher()
        region = rig.space.map_object(shared_object("d", 1))
        run_bodies(
            rig,
            [iter([MemBlock(region.vpage_at(0), reads=1)])],
            bus=EventBus([watcher]),
        )
        assert watcher.latencies, "first touch must fault"
        assert all(latency > 0 for latency in watcher.latencies)

    def test_unobserved_run_has_empty_bus(self):
        rig = make_rig()
        engine = run_bodies(rig, [iter([Compute(1.0)])])
        assert len(engine.bus) == 0

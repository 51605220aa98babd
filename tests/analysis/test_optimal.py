"""The offline optimal-placement dynamic program."""

import pytest

from repro.analysis.optimal import (
    compare_to_optimal,
    compress_events,
    optimal_page_cost,
)
from repro.analysis.tracing import RefEvent, TraceCollector
from repro.core.policies import MoveThresholdPolicy
from repro.machine.config import MachineConfig, TimingParameters
from repro.machine.timing import MemoryLocation, TimingModel
from repro.sim.harness import build_simulation
from repro.workloads import small_workloads


def timing(page_words=1024) -> TimingModel:
    return TimingModel(TimingParameters(), page_words)


def event(cpu, reads=0, writes=0, vpage=1):
    return RefEvent(
        sequence=0,
        round_index=0,
        cpu=cpu,
        vpage=vpage,
        page_id=vpage,
        reads=reads,
        writes=writes,
        location=MemoryLocation.LOCAL,
        writable_data=True,
    )


class TestCompression:
    def test_consecutive_same_cpu_merged(self):
        blocks = compress_events(
            [event(0, reads=1), event(0, writes=2), event(1, reads=3)]
        )
        assert len(blocks) == 2
        assert blocks[0].reads == 1 and blocks[0].writes == 2
        assert blocks[1].cpu == 1

    def test_empty(self):
        assert compress_events([]) == []


class TestOptimalPageCost:
    def test_single_writer_chooses_local(self):
        """One CPU hammering a page: optimum ≈ copy-in + local refs."""
        t = timing()
        events = [event(0, writes=5000)]
        cost = optimal_page_cost(events, t)
        local_cost = 5000 * t.store_us(MemoryLocation.LOCAL)
        global_cost = 5000 * t.store_us(MemoryLocation.GLOBAL)
        assert cost < global_cost
        assert cost >= local_cost  # transition overhead on top

    def test_tiny_traffic_stays_global(self):
        """One reference is cheaper served global than paying a copy."""
        t = timing()
        cost = optimal_page_cost([event(0, reads=1)], t)
        assert cost == pytest.approx(t.fetch_us(MemoryLocation.GLOBAL))

    def test_ping_pong_pins_immediately_in_the_optimum(self):
        """Alternating writers: the optimum never migrates."""
        t = timing()
        events = [event(i % 2, writes=10) for i in range(20)]
        cost = optimal_page_cost(events, t)
        all_global = 200 * t.store_us(MemoryLocation.GLOBAL)
        assert cost == pytest.approx(all_global)

    def test_read_sharing_prefers_replication(self):
        """Heavy read sharing: the optimum replicates once per reader."""
        t = timing()
        events = [event(cpu, reads=5000) for cpu in range(3)]
        cost = optimal_page_cost(events, t)
        all_global = 15000 * t.fetch_us(MemoryLocation.GLOBAL)
        assert cost < all_global

    def test_empty_trace_is_free(self):
        assert optimal_page_cost([], timing()) == 0.0

    def test_write_then_heavy_reads_by_others(self):
        """A single init write shouldn't prevent later replication."""
        t = timing()
        events = [event(0, writes=10)] + [
            event(cpu, reads=5000) for cpu in (1, 2)
        ]
        cost = optimal_page_cost(events, t)
        all_global = (
            10 * t.store_us(MemoryLocation.GLOBAL)
            + 10000 * t.fetch_us(MemoryLocation.GLOBAL)
        )
        assert cost < all_global


class TestCompareToOptimal:
    @pytest.mark.parametrize("name", ["IMatMult", "Primes3", "Gfetch"])
    def test_policy_is_never_better_than_the_bound(self, name):
        workload = small_workloads()[name]
        trace = TraceCollector()
        result = build_simulation(
            workload,
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
            observer=trace,
        ).run()
        config = MachineConfig(n_processors=4)
        comparison = compare_to_optimal(
            trace,
            TimingModel(config.timing, config.page_size_words),
            result.system_time_us,
        )
        assert comparison.optimal_us > 0
        assert comparison.ratio >= 0.99  # optimal is a lower bound

    def test_threshold_policy_is_near_optimal_for_imatmult(self):
        """The paper's headline claim: the simple policy is close to the
        best any placement could do."""
        workload = small_workloads()["IMatMult"]
        trace = TraceCollector()
        result = build_simulation(
            workload,
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
            observer=trace,
        ).run()
        config = MachineConfig(n_processors=4)
        comparison = compare_to_optimal(
            trace,
            TimingModel(config.timing, config.page_size_words),
            result.system_time_us,
        )
        assert comparison.ratio < 2.0

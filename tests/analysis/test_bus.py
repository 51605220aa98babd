"""The IPC-bus utilization model."""

import pytest

from repro.analysis.bus import BUS_WORD_US, BusReport, analyze_bus
from repro.core.policies import AllGlobalPolicy, MoveThresholdPolicy
from repro.machine.config import ace_config
from repro.sim.harness import build_simulation
from repro.workloads.gfetch import Gfetch
from repro.workloads.primes import Primes1


class TestBusReport:
    def test_word_time_is_80_mb_per_second(self):
        # 4 bytes at 80 MB/s = 0.05 us.
        assert BUS_WORD_US == pytest.approx(0.05)

    def test_utilization(self):
        report = BusReport(
            reference_words=1000,
            protocol_words=1000,
            busy_us=100.0,
            elapsed_us=1000.0,
        )
        assert report.total_words == 2000
        assert report.utilization == pytest.approx(0.1)

    def test_contention_factor_grows_with_rho(self):
        low = BusReport(0, 0, busy_us=50.0, elapsed_us=1000.0)
        high = BusReport(0, 0, busy_us=500.0, elapsed_us=1000.0)
        assert low.contention_factor < high.contention_factor

    def test_contention_factor_capped_at_saturation(self):
        saturated = BusReport(0, 0, busy_us=5000.0, elapsed_us=1000.0)
        assert saturated.contention_factor == pytest.approx(20.0)

    def test_zero_elapsed_is_zero_utilization(self):
        assert BusReport(0, 0, 0.0, 0.0).utilization == 0.0

    def test_contention_free_threshold(self):
        assert BusReport(0, 0, 50.0, 1000.0).contention_free
        assert not BusReport(0, 0, 150.0, 1000.0).contention_free


class TestAnalyzeBus:
    def test_local_only_run_has_no_reference_traffic(self):
        result = build_simulation(
            Primes1.small(),
            MoveThresholdPolicy(threshold=4),
            n_processors=1,
            n_threads=1,
        ).run()
        report = analyze_bus(result, ace_config(1))
        assert report.reference_words == 0

    def test_gfetch_is_the_bus_hog(self):
        config = ace_config(7)
        gfetch = analyze_bus(
            build_simulation(
                Gfetch.small(), MoveThresholdPolicy(threshold=4), n_processors=7
            ).run(),
            config,
        )
        primes = analyze_bus(
            build_simulation(
                Primes1.small(), MoveThresholdPolicy(threshold=4), n_processors=7
            ).run(),
            config,
        )
        assert gfetch.utilization > primes.utilization * 3

    def test_all_global_policy_increases_bus_traffic(self):
        config = ace_config(4)
        numa = analyze_bus(
            build_simulation(
                Primes1.small(), MoveThresholdPolicy(threshold=4), n_processors=4
            ).run(),
            config,
        )
        all_global = analyze_bus(
            build_simulation(
                Primes1.small(), AllGlobalPolicy(), n_processors=4
            ).run(),
            config,
        )
        assert all_global.reference_words > numa.reference_words * 10

    def test_protocol_words_include_copies(self):
        result = build_simulation(
            Gfetch.small(), MoveThresholdPolicy(threshold=4), n_processors=4
        ).run()
        report = analyze_bus(result, ace_config(4))
        expected = (
            result.stats.copies_to_local
            + result.stats.syncs
            + result.stats.global_zero_fills
        ) * 1024
        assert report.protocol_words == expected

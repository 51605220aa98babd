"""The round sampler and the Telemetry facade, on real simulations."""

import pytest

from repro.core.policies import MoveThresholdPolicy
from repro.core.stats import NUMAStats
from repro.errors import ConfigurationError
from repro.obs import RoundSampler, Telemetry
from repro.sim.harness import build_simulation
from repro.workloads import small_workloads


def small(name):
    return small_workloads()[name]


def run_with_telemetry(name, interval=8, processors=3, threshold=4):
    telemetry = Telemetry(sample_interval=interval)
    result = build_simulation(
        small(name),
        MoveThresholdPolicy(threshold=threshold),
        n_processors=processors,
        check_invariants=False,
        telemetry=telemetry,
    ).run()
    return result, telemetry


class TestRoundSampler:
    def test_rejects_zero_interval(self, rig):
        with pytest.raises(ConfigurationError):
            RoundSampler(rig.machine, rig.numa, rig.pool, interval=0)

    def test_sample_cadence_and_final_flush(self):
        result, telemetry = run_with_telemetry("Primes3", interval=4)
        samples = telemetry.samples
        assert samples, "run must produce at least one sample"
        # Every window spans at least the configured interval except the
        # final flush, which covers whatever remained.
        for sample in samples[:-1]:
            assert sample.window_rounds >= 4
        # The series ends at the last executed round.
        assert samples[-1].round_index == result.rounds - 1

    def test_deltas_sum_to_final_totals(self):
        result, telemetry = run_with_telemetry("Primes2", interval=4)
        samples = telemetry.samples
        for key, total in samples[-1].stats_total.items():
            assert sum(s.stats_delta[key] for s in samples) == total, key
        assert samples[-1].stats_total["moves"] == result.stats.moves

    def test_rounds_are_monotonic(self):
        _, telemetry = run_with_telemetry("FFT", interval=4)
        rounds = [s.round_index for s in telemetry.samples]
        assert rounds == sorted(rounds)
        assert len(set(rounds)) == len(rounds)

    def test_occupancy_and_times_present(self):
        _, telemetry = run_with_telemetry("IMatMult", interval=8)
        last = telemetry.samples[-1]
        assert last.pool_capacity > 0
        assert last.directory_pages >= 0
        assert last.user_us > 0
        assert len(last.per_cpu_user_us) == 3
        assert last.pinned_pages is not None  # MoveThresholdPolicy exposes it

    def test_local_hit_window_fraction_in_range(self):
        _, telemetry = run_with_telemetry("Primes1", interval=4)
        for sample in telemetry.samples:
            if sample.window_local_hit is not None:
                assert 0.0 <= sample.window_local_hit <= 1.0
            for per_cpu in sample.per_cpu_window_local_hit:
                assert per_cpu is None or 0.0 <= per_cpu <= 1.0

    def test_sample_record_is_flat_jsonable(self):
        import json

        _, telemetry = run_with_telemetry("PlyTrace", interval=8)
        record = telemetry.samples[0].as_record()
        assert record["t"] == "sample"
        json.dumps(record)  # must not raise


class TestTelemetryNeutrality:
    """Acceptance: telemetry must not change any simulated-time result."""

    @pytest.mark.parametrize("name", ["ParMult", "Primes2", "FFT"])
    def test_simulated_times_identical_with_and_without(self, name):
        plain = build_simulation(
            small(name),
            MoveThresholdPolicy(threshold=4),
            n_processors=3,
            check_invariants=False,
        ).run()
        observed, _ = run_with_telemetry(name, interval=4)
        assert observed.user_time_us == plain.user_time_us
        assert observed.system_time_us == plain.system_time_us
        assert observed.rounds == plain.rounds
        assert observed.stats.as_dict() == plain.stats.as_dict()


class TestTelemetryInstruments:
    def test_fault_counters_match_stats(self):
        result, telemetry = run_with_telemetry("Primes2")
        flat = telemetry.registry.as_dict()
        stats = result.stats.as_dict()
        assert flat["read_faults"] == stats["read_faults"]
        assert flat["write_faults"] == stats["write_faults"]

    def test_fault_latency_histogram_counts_every_fault(self):
        result, telemetry = run_with_telemetry("Primes2")
        histogram = telemetry.registry.histograms["fault_latency_us"]
        assert histogram.total == result.stats.total_faults()
        assert histogram.min >= 0

    def test_page_move_histogram_from_policy(self):
        result, telemetry = run_with_telemetry("Primes2", threshold=1)
        histogram = telemetry.registry.histograms["page_move_count"]
        # Only pages that actually moved appear in the policy's counts.
        assert histogram.total >= 1
        assert result.stats.moves >= histogram.total

    def test_local_hit_gauges_per_cpu(self):
        _, telemetry = run_with_telemetry("Primes1", processors=3)
        gauges = telemetry.registry.gauges
        for cpu in range(3):
            assert f"cpu{cpu}_local_hit" in gauges

    def test_profiler_covers_engine_phases(self):
        _, telemetry = run_with_telemetry("Primes2")
        names = {stat.name for stat in telemetry.profiler.phases}
        assert "engine_run" in names
        assert "fault_handling" in names
        assert "reference_batch" in names

    def test_tlb_counters_present_and_consistent(self):
        _, telemetry = run_with_telemetry("Gfetch")
        flat = telemetry.registry.as_dict()
        for key in ("tlb_hits", "tlb_misses", "tlb_fills",
                    "tlb_shootdowns"):
            assert key in flat, key
        assert flat["tlb_hits"] > 0
        # Every miss on the reference path fills (or refreshes) an entry.
        assert flat["tlb_fills"] <= flat["tlb_misses"]

    def test_tlb_hit_ratio_gauge(self):
        _, telemetry = run_with_telemetry("Gfetch")
        flat = telemetry.registry.as_dict()
        ratio = telemetry.registry.gauges["tlb_hit_ratio"].value
        lookups = flat["tlb_hits"] + flat["tlb_misses"]
        assert ratio == flat["tlb_hits"] / lookups
        assert 0.0 < ratio <= 1.0

    def test_samples_carry_tlb_windows(self):
        _, telemetry = run_with_telemetry("Gfetch", interval=4)
        records = [s.as_record() for s in telemetry.samples]
        assert all("tlb_hit" in r and "tlb_shootdowns" in r for r in records)
        # Window hit fractions are deltas, so each stays within [0, 1].
        ratios = [r["tlb_hit"] for r in records if r["tlb_hit"] is not None]
        assert ratios and all(0.0 <= value <= 1.0 for value in ratios)

    def test_to_records_contains_all_sections(self):
        _, telemetry = run_with_telemetry("FFT")
        records = telemetry.to_records({"workload": "FFT"})
        kinds = {record["t"] for record in records}
        assert {"meta", "sample", "counter", "gauge", "histogram",
                "phase"} <= kinds

    def test_finalize_is_idempotent(self):
        _, telemetry = run_with_telemetry("ParMult")
        before = telemetry.registry.histograms["page_move_count"].total
        telemetry.finalize()
        telemetry.finalize()
        assert (
            telemetry.registry.histograms["page_move_count"].total == before
        )

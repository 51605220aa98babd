"""Speedup curves and trace persistence."""

import pytest

from repro.analysis.speedup import (
    SpeedupCurve,
    SpeedupPoint,
    elapsed_us,
    speedup_curve,
)
from repro.analysis.tracing import TraceCollector
from repro.core.policies import MoveThresholdPolicy
from repro.core.state import AccessKind
from repro.errors import ConfigurationError
from repro.exp.spec import RunSpec
from repro.machine.timing import MemoryLocation
from repro.sim.harness import build_simulation
from repro.workloads.primes import Primes1


def _quick(name):
    """The scaled-down move-threshold run of *name*, as a curve spec."""
    return RunSpec(workload=name, quick=True, check_invariants=False)


class TestSpeedupCurve:
    def test_private_workload_speeds_up_nearly_linearly(self):
        curve = speedup_curve(_quick("Primes1"), processors=(1, 2, 4))
        assert curve.point(1).speedup == pytest.approx(1.0)
        assert curve.point(4).speedup > 3.0
        assert curve.point(4).efficiency > 0.75

    def test_bus_bound_workload_speedup_is_capped_by_gamma(self):
        """Gfetch's fetches all turn global: speedup ~ n / (G/L)."""
        curve = speedup_curve(_quick("Gfetch"), processors=(1, 4))
        assert curve.point(4).speedup < 2.8  # far below linear

    def test_speedup_is_monotone_in_processors(self):
        curve = speedup_curve(_quick("Primes1"), processors=(1, 2, 4))
        speeds = [p.speedup for p in curve.points]
        assert speeds == sorted(speeds)

    def test_baseline_inserted_when_missing(self):
        curve = speedup_curve(_quick("Primes1"), processors=(2, 4))
        assert curve.points[0].n_processors == 1

    def test_format_mentions_every_size(self):
        curve = SpeedupCurve(
            workload="x",
            points=[
                SpeedupPoint(1, 100.0, 100.0, 0.0, 1.0),
                SpeedupPoint(4, 30.0, 110.0, 1.0, 3.33),
            ],
        )
        text = curve.format()
        assert "1p" in text and "4p" in text

    def test_point_lookup_raises_on_missing(self):
        curve = SpeedupCurve(workload="x", points=[])
        with pytest.raises(KeyError):
            curve.point(3)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            speedup_curve(_quick("Primes1"), processors=())
        with pytest.raises(ConfigurationError):
            speedup_curve(_quick("Primes1"), processors=(0, 2))

    def test_elapsed_is_busiest_processor(self):
        result = build_simulation(
            Primes1.small(), MoveThresholdPolicy(threshold=4), n_processors=3
        ).run()
        assert elapsed_us(result) == max(
            t.total_us for t in result.per_cpu
        )


class TestTracePersistence:
    def populate(self, trace):
        trace.on_reference(
            0, 1, 10, 100, 5, 2, MemoryLocation.LOCAL, True
        )
        trace.on_fault(0, 2, 11, AccessKind.WRITE)
        trace.on_reference(
            1, 0, 11, 101, 0, 3, MemoryLocation.GLOBAL, False
        )

    def test_round_trip(self, tmp_path):
        trace = TraceCollector()
        self.populate(trace)
        path = tmp_path / "trace.jsonl"
        assert trace.save_jsonl(path) == 3
        loaded = TraceCollector.load_jsonl(path)
        assert loaded.events == trace.events
        assert loaded.faults == trace.faults

    def test_sequence_counter_restored(self, tmp_path):
        trace = TraceCollector()
        self.populate(trace)
        path = tmp_path / "trace.jsonl"
        trace.save_jsonl(path)
        loaded = TraceCollector.load_jsonl(path)
        loaded.on_reference(2, 0, 12, 102, 1, 0, MemoryLocation.LOCAL, True)
        assert loaded.events[-1].sequence == 3

    def test_analyses_work_on_loaded_traces(self, tmp_path):
        trace = TraceCollector()
        build_simulation(
            Primes1.small(),
            MoveThresholdPolicy(threshold=4),
            n_processors=3,
            observer=trace,
        ).run()
        path = tmp_path / "primes1.jsonl"
        trace.save_jsonl(path)
        loaded = TraceCollector.load_jsonl(path)
        assert loaded.local_fraction() == trace.local_fraction()
        assert len(loaded.page_summaries()) == len(trace.page_summaries())

    def test_bad_record_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": "mystery"}\n')
        with pytest.raises(ConfigurationError):
            TraceCollector.load_jsonl(path)

    def test_blank_lines_ignored(self, tmp_path):
        trace = TraceCollector()
        self.populate(trace)
        path = tmp_path / "trace.jsonl"
        trace.save_jsonl(path)
        path.write_text(path.read_text() + "\n\n")
        loaded = TraceCollector.load_jsonl(path)
        assert len(loaded.events) == 2

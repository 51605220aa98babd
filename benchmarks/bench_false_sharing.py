"""Experiment E8 — the Section 4.2 false-sharing case studies.

Primes2: privatizing the divisor vector raises α from ~0.66 to ~1.00
(the paper's exact numbers).  PlyTrace: packing the framebuffer bands
onto shared pages (the untuned C-Threads layout) degrades α and γ; the
trace-driven detector must finger the packed pages.
"""

from __future__ import annotations

from repro.analysis.false_sharing import analyze
from repro.analysis.paper import PRIMES2_FALSE_SHARING_ALPHA
from repro.analysis.tracing import TraceCollector
from repro.core.policies import MoveThresholdPolicy
from repro.sim.harness import measure_placement, build_simulation
from repro.workloads.plytrace import PlyTrace
from repro.workloads.primes import Primes2

from conftest import assert_band, once, save_artifact

LIMIT = 60_000  # scaled Primes2 problem; alpha is scale-free


def test_primes2_shared_divisors_alpha(benchmark):
    m = once(
        benchmark,
        lambda: measure_placement(
            Primes2(limit=LIMIT, private_divisors=False),
            n_processors=7,
            check_invariants=False,
        ),
    )
    assert_band(
        m.numa.measured_alpha,
        PRIMES2_FALSE_SHARING_ALPHA["shared_divisors"],
        0.08,
        "Primes2 shared-divisor alpha",
    )


def test_primes2_private_divisors_alpha(benchmark):
    m = once(
        benchmark,
        lambda: measure_placement(
            Primes2(limit=LIMIT, private_divisors=True),
            n_processors=7,
            check_invariants=False,
        ),
    )
    assert_band(
        m.numa.measured_alpha,
        PRIMES2_FALSE_SHARING_ALPHA["private_divisors"],
        0.04,
        "Primes2 private-divisor alpha",
    )


def test_primes2_tuning_story(benchmark):
    """The before/after shape: tuning buys back nearly all global refs."""

    def run():
        shared = build_simulation(
            Primes2(limit=LIMIT, private_divisors=False),
            MoveThresholdPolicy(threshold=4),
            n_processors=7,
            check_invariants=False,
        ).run()
        private = build_simulation(
            Primes2(limit=LIMIT, private_divisors=True),
            MoveThresholdPolicy(threshold=4),
            n_processors=7,
            check_invariants=False,
        ).run()
        assert private.measured_alpha - shared.measured_alpha > 0.25
        assert private.user_time_us < shared.user_time_us
        return shared, private

    shared, private = once(benchmark, run)
    text = (
        "Primes2 false-sharing case study (Section 4.2)\n"
        f"  shared divisors : alpha={shared.measured_alpha:.2f} "
        f"(paper 0.66)  Tnuma={shared.user_time_s:.2f}s\n"
        f"  private divisors: alpha={private.measured_alpha:.2f} "
        f"(paper 1.00)  Tnuma={private.user_time_s:.2f}s"
    )
    save_artifact("false_sharing_primes2.txt", text)
    print(f"\n{text}")


def test_plytrace_packed_layout(benchmark):
    """Packing framebuffer bands onto shared pages degrades placement."""

    def run():
        padded = build_simulation(
            PlyTrace(n_polygons=2000),
            MoveThresholdPolicy(threshold=4),
            n_processors=7,
            check_invariants=False,
        ).run()
        packed = build_simulation(
            PlyTrace(n_polygons=2000, padded_framebuffer=False),
            MoveThresholdPolicy(threshold=4),
            n_processors=7,
            check_invariants=False,
        ).run()
        assert packed.measured_alpha < padded.measured_alpha - 0.10
        assert packed.user_time_us > padded.user_time_us
        return padded, packed

    padded, packed = once(benchmark, run)
    text = (
        "PlyTrace framebuffer layout\n"
        f"  padded bands: alpha={padded.measured_alpha:.2f}\n"
        f"  packed bands: alpha={packed.measured_alpha:.2f}"
    )
    save_artifact("false_sharing_plytrace.txt", text)
    print(f"\n{text}")


def test_detector_fingers_the_packed_pages(benchmark):
    """The trace analyzer finds the falsely shared pages mechanically."""

    def run():
        trace = TraceCollector()
        build_simulation(
            PlyTrace(n_polygons=1000, padded_framebuffer=False),
            MoveThresholdPolicy(threshold=4),
            n_processors=7,
            observer=trace,
            check_invariants=False,
        ).run()
        report = analyze(trace, dominance_threshold=0.6)
        # The packed framebuffer pages are writably shared...
        assert len(report.writably_shared_pages) >= 8
        return report

    report = once(benchmark, run)
    print(
        f"\nwritably shared pages: {len(report.writably_shared_pages)}, "
        f"suspects: {len(report.suspects)}"
    )

"""Ablation — attaching the race detector never changes a simulation.

The dynamic race layer (`src/repro/check/races.py`) rides the same
observer hooks the sanitizer uses: the event bus, the spin-lock
observer list, and the TLB/MMU mutation observer slots.

Two measurements, one JSON artifact:

* **Perturbation** (simulated time, asserted): attaching the detector
  must not change any simulated outcome — identical protocol counters
  and user/system times, zero race reports on the clean tree.
* **Overhead** (CPU time, best-of-N, interleaved, recorded for
  information only): host CPU seconds per run with and without the
  detector attached.  No assertion checks host time.
"""

from __future__ import annotations

import json
import time

from repro.check.races import attach_detector, detach_detector
from repro.core.policies import MoveThresholdPolicy
from repro.sim.harness import build_simulation
from repro.workloads.parmult import ParMult

from conftest import once, save_artifact

N_PROCESSORS = 4
TIMING_REPS = 15


def build_and_run(with_detector=False):
    sim = build_simulation(
        ParMult(),
        MoveThresholdPolicy(),
        n_processors=N_PROCESSORS,
        sanitize=False,
    )
    detector = None
    if with_detector:
        detector = attach_detector(
            sim.numa, sim.engine.bus, raise_on_race=False
        )
    try:
        sim.engine.run(sim.threads)
    finally:
        if detector is not None:
            detach_detector(detector, sim.machine)
    return sim, detector


def interleaved_best(reps, first, second):
    """Best-of-*reps* CPU seconds for two thunks, alternated."""
    best_first = best_second = float("inf")
    for _ in range(reps):
        start = time.process_time()
        first()
        best_first = min(best_first, time.process_time() - start)
        start = time.process_time()
        second()
        best_second = min(best_second, time.process_time() - start)
    return best_first, best_second


def test_detector_off_overhead(benchmark):
    def experiment():
        baseline_sim, _ = build_and_run()
        detector_sim, detector = build_and_run(with_detector=True)
        off_wall, on_wall = interleaved_best(
            TIMING_REPS,
            build_and_run,
            lambda: build_and_run(with_detector=True),
        )
        return baseline_sim, detector_sim, detector, off_wall, on_wall

    baseline_sim, detector_sim, detector, off_wall, on_wall = once(
        benchmark, experiment
    )

    # Perturbation: observation must not change the simulation.
    baseline_stats = baseline_sim.numa.stats.as_dict()
    assert detector_sim.numa.stats.as_dict() == baseline_stats
    assert (
        detector_sim.machine.total_user_time_us()
        == baseline_sim.machine.total_user_time_us()
    )
    assert (
        detector_sim.machine.total_system_time_us()
        == baseline_sim.machine.total_system_time_us()
    )
    assert detector.reports == []
    assert detector.accesses > 0  # it really watched the run

    # Host-time overhead is recorded for information only; nothing here
    # gates on it.  Both timings come from the same build, so a dormant
    # hook that grew a real cost would show up as a rising off-time in
    # the artifact history.
    overhead = on_wall / off_wall - 1.0
    artifact = {
        "t": "bench_races",
        "workload": "ParMult",
        "n_processors": N_PROCESSORS,
        "timing_reps": TIMING_REPS,
        "detector_off_cpu_s": round(off_wall, 6),
        "detector_on_cpu_s": round(on_wall, 6),
        "detector_on_overhead_fraction": round(overhead, 4),
        "races_reported": detector.reported,
        "accesses_observed": detector.accesses,
        "numa_stats": baseline_stats,
    }
    save_artifact("bench_races.json", json.dumps(artifact, indent=2))


def test_fixtures_catch_both_seeded_races(benchmark):
    """The detector's wiring proof runs at benchmark scale too."""
    from repro.check.fixtures import (
        run_missed_shootdown_fixture,
        run_unguarded_write_fixture,
    )

    def experiment():
        unguarded = run_unguarded_write_fixture()
        shootdown = run_missed_shootdown_fixture()
        return unguarded, shootdown

    unguarded, shootdown = once(benchmark, experiment)
    assert any(
        r.kind == "unguarded-state-write" for r in unguarded.reports
    )
    assert any(
        r.kind == "missed-shootdown" for r in shootdown.reports
    )
    summary = {
        "unguarded_write": [r.as_record() for r in unguarded.reports],
        "missed_shootdown": [r.as_record() for r in shootdown.reports],
    }
    save_artifact(
        "bench_races_fixtures.json", json.dumps(summary, indent=2)
    )

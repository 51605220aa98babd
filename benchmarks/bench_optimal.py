"""Ablation A2 — Tnuma versus the offline optimum (Toptimal).

Section 3.1: "We would have liked to compare Tnuma to Toptimal but had no
way to measure the latter."  The simulator can: the per-page dynamic
program of :mod:`repro.analysis.optimal` lower-bounds what any placement
with future knowledge could achieve on the same reference trace.  The
paper's claim — "our simple page placement strategy worked about as well
as any operating system level strategy could have" — translates to an
actual/optimal ratio close to 1 for the applications whose sharing is
placement-fixable, with the gap concentrated in exactly the workloads the
paper calls out as having legitimate (unfixable) sharing.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.analysis.optimal import (
    OptimalComparison,
    compare_to_optimal,
    protocol_cost_us,
)
from repro.analysis.tracing import TraceCollector
from repro.core.policies import MoveThresholdPolicy
from repro.machine.config import ace_config
from repro.machine.timing import TimingModel
from repro.sim.harness import build_simulation
from repro.workloads import small_workloads

from conftest import once, save_artifact

#: Acceptable actual/optimal ratios.  The bound is generous: the DP can
#: replicate without protocol overhead, so even perfect online play shows
#: a gap where traffic is fault-heavy at small scale.
RATIO_LIMITS = {
    # ParMult is excluded: it makes almost no data references, so the DP
    # bound is a few microseconds and any ratio against it is vacuous.
    "Gfetch": 3.2,  # pin-forever vs optimal's re-replication (footnote 4!)
    "IMatMult": 1.8,
    "Primes1": 1.5,
    "Primes2": 1.9,
    "Primes3": 1.8,
    "FFT": 1.3,
    "PlyTrace": 2.0,
}

_ratios: Dict[str, float] = {}


def _compare(name: str) -> OptimalComparison:
    workload = small_workloads()[name]
    trace = TraceCollector(keep_faults=False)
    result = build_simulation(
        workload,
        MoveThresholdPolicy(threshold=4),
        n_processors=7,
        observer=trace,
        check_invariants=False,
    ).run()
    config = ace_config(7)
    timing = TimingModel(config.timing, config.page_size_words)
    return compare_to_optimal(
        trace, timing, protocol_cost_us(result.stats, timing)
    )


@pytest.mark.parametrize("name", sorted(RATIO_LIMITS))
def test_policy_vs_offline_optimum(benchmark, name):
    comparison = once(benchmark, lambda: _compare(name))
    _ratios[name] = comparison.ratio
    assert comparison.ratio >= 0.99, "optimal must lower-bound actual"
    assert comparison.ratio <= RATIO_LIMITS[name], (
        f"{name}: actual/optimal {comparison.ratio:.2f}"
    )


def test_parmult_gap_is_absolutely_tiny(benchmark):
    """ParMult's placement cost is negligible in absolute terms, so the
    ratio is meaningless; what matters is that the total gap is tiny
    compared to the run (67 simulated seconds in the paper)."""
    comparison = once(benchmark, lambda: _compare("ParMult"))
    assert comparison.actual_us - comparison.optimal_us < 50_000  # 50 ms


def test_render_optimal_table(benchmark):
    assert _ratios

    def render() -> str:
        lines = ["Tnuma placement cost vs offline optimum (scaled workloads)"]
        for name in sorted(_ratios):
            lines.append(f"  {name:10s} actual/optimal = {_ratios[name]:5.2f}")
        return "\n".join(lines)

    text = once(benchmark, render)
    save_artifact("optimal.txt", text)
    print(f"\n{text}")

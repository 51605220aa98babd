"""Ablation A14 — placement for the whole application mix.

The paper's introduction: OS-level management "address[es] the locality
needs of the entire application mix, a task that cannot be accomplished
through independent modification of individual applications."  The bench
runs pairs of applications *simultaneously* — separate Mach tasks sharing
the processors, local memories, and one NUMA manager — and compares each
application's attributed user time against its standalone run.  Automatic
placement keeps each application's locality intact in the mix; placing
everything in global memory hurts the mix exactly as much as it hurts the
applications alone.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.core.policies import AllGlobalPolicy, MoveThresholdPolicy
from repro.sim.harness import build_simulation
from repro.workloads.imatmult import IMatMult
from repro.workloads.primes import Primes1, Primes2, Primes3

from conftest import once, save_artifact

FACTORIES = {
    "IMatMult": lambda: IMatMult(n=96),
    "Primes1": lambda: Primes1(limit=40_000),
    "Primes2": lambda: Primes2(limit=40_000),
    "Primes3": lambda: Primes3(limit=200_000),
}

PAIRS = [
    ("IMatMult", "Primes3"),
    ("Primes1", "Primes2"),
    ("IMatMult", "Primes1"),
]

_ratios: Dict[str, float] = {}


@pytest.mark.parametrize("pair", PAIRS, ids=["+".join(p) for p in PAIRS])
def test_mix_preserves_each_applications_locality(benchmark, pair):
    def run():
        standalone = {
            name: build_simulation(
                FACTORIES[name](),
                MoveThresholdPolicy(threshold=4),
                n_processors=7,
                check_invariants=False,
            ).run().user_time_us
            for name in pair
        }
        mix = build_simulation(
            [FACTORIES[name]() for name in pair],
            MoveThresholdPolicy(threshold=4),
            n_processors=7,
            check_invariants=False,
        )
        mix.run()
        return standalone, mix.engine.task_user_us

    standalone, in_mix = once(benchmark, run)
    for task, name in enumerate(pair):
        ratio = in_mix.get(task, 0.0) / standalone[name]
        _ratios[f"{name} in {'+'.join(pair)}"] = ratio
        # Sharing the machine must not destroy placement: attributed
        # user time within a few percent of the standalone run.
        assert ratio == pytest.approx(1.0, abs=0.06), (
            f"{name} degraded {ratio:.2f}x when mixed with {pair}"
        )


def test_global_placement_hurts_the_mix_too(benchmark):
    """The comparison that shows placement is doing the work."""

    def run():
        pair = ("IMatMult", "Primes3")
        numa = build_simulation(
            [FACTORIES[name]() for name in pair],
            MoveThresholdPolicy(threshold=4),
            n_processors=7,
            check_invariants=False,
        ).run()
        all_global = build_simulation(
            [FACTORIES[name]() for name in pair],
            AllGlobalPolicy(),
            n_processors=7,
            check_invariants=False,
        ).run()
        return numa, all_global

    numa, all_global = once(benchmark, run)
    assert all_global.user_time_us > numa.user_time_us * 1.15


def test_mix_report(benchmark):
    assert _ratios

    def render() -> str:
        lines = [
            "Application mix: attributed user time relative to standalone"
        ]
        for label, ratio in _ratios.items():
            lines.append(f"  {label:30s} {ratio:5.3f}x")
        return "\n".join(lines)

    text = once(benchmark, render)
    save_artifact("mix.txt", text)
    print(f"\n{text}")

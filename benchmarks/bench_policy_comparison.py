"""Ablation A10 — the paper's policy against its contemporaries.

Section 5: "The comparison of alternative policies for NUMA page
placement is an active topic of current research.  It is tempting to
consider ever more complex policies, but our work suggests that a simple
policy can work extremely well."

Six policies race across three reference patterns — IMatMult (read
sharing + ping-pong output), Primes3 (heavy writable sharing), and
Handoff (one productive ownership transfer).  Each extreme policy has a
catastrophic case; the paper's move-threshold policy is never worse than
~1.3x the per-workload winner, which is exactly what "simple but
effective" means.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.core.policies import (
    AllGlobalPolicy,
    AllLocalPolicy,
    DecayPolicy,
    MigrationOnlyPolicy,
    MoveThresholdPolicy,
    ReplicationOnlyPolicy,
)
from repro.sim.harness import build_simulation
from repro.workloads.handoff import Handoff
from repro.workloads.imatmult import IMatMult
from repro.workloads.primes import Primes3

from conftest import once, save_artifact

POLICY_FACTORIES = {
    "move-threshold(4)": lambda: MoveThresholdPolicy(threshold=4),
    "migration-only": MigrationOnlyPolicy,
    "replication-only": ReplicationOnlyPolicy,
    "decay": lambda: DecayPolicy(threshold=4, decay_us=50_000.0),
    "all-local": AllLocalPolicy,
    "all-global": AllGlobalPolicy,
}

WORKLOAD_FACTORIES = {
    "IMatMult": lambda: IMatMult(n=96),
    "Primes3": lambda: Primes3(limit=300_000),
    "Handoff": lambda: Handoff(),
}

#: totals[workload][policy] = user + system simulated µs.
_totals: Dict[str, Dict[str, float]] = {}


@pytest.mark.parametrize("workload_name", list(WORKLOAD_FACTORIES))
def test_policy_race(benchmark, workload_name):
    def race() -> Dict[str, float]:
        row = {}
        for policy_name, policy_factory in POLICY_FACTORIES.items():
            result = build_simulation(
                WORKLOAD_FACTORIES[workload_name](),
                policy_factory(),
                n_processors=7,
                check_invariants=False,
            ).run()
            row[policy_name] = result.user_time_us + result.system_time_us
        return row

    _totals[workload_name] = once(benchmark, race)


def test_every_extreme_policy_has_a_catastrophe(benchmark):
    assert len(_totals) == len(WORKLOAD_FACTORIES)

    def check() -> None:
        paper = "move-threshold(4)"
        # Unbounded migration melts down on the sieve's writable sharing.
        for loser in ("migration-only", "all-local"):
            assert _totals["Primes3"][loser] > 3 * _totals["Primes3"][paper]
        # Pin-on-first-move loses the handoff.
        assert (
            _totals["Handoff"]["replication-only"]
            > 1.3 * _totals["Handoff"][paper]
        )
        # No NUMA management loses wherever replication matters.
        assert (
            _totals["IMatMult"]["all-global"]
            > 1.2 * _totals["IMatMult"][paper]
        )

    once(benchmark, check)


def test_simple_policy_is_robust(benchmark):
    """Never catastrophic: within 1.35x of every per-workload winner."""
    assert len(_totals) == len(WORKLOAD_FACTORIES)

    def check() -> str:
        paper = "move-threshold(4)"
        lines = ["Policy comparison: total (user+system) simulated seconds"]
        header = f"  {'workload':>10s}" + "".join(
            f" {name:>18s}" for name in POLICY_FACTORIES
        )
        lines.append(header)
        for workload_name, row in _totals.items():
            best = min(row.values())
            assert row[paper] <= best * 1.35, (
                f"{workload_name}: paper policy {row[paper] / best:.2f}x best"
            )
            cells = "".join(
                f" {row[name] / 1e6:>18.2f}" for name in POLICY_FACTORIES
            )
            lines.append(f"  {workload_name:>10s}{cells}")
        return "\n".join(lines)

    text = once(benchmark, check)
    save_artifact("policy_comparison.txt", text)
    print(f"\n{text}")

"""Multiprogrammed mixes: several tasks on one machine.

A mix is ``build_simulation([a, b, ...], policy, ...)`` followed by
``.run()``; machine totals come from the :class:`RunResult` and
per-task user time from ``sim.engine.task_user_us``.
"""

import pytest

from repro.core.policies import MoveThresholdPolicy
from repro.core.policies.registry import build_policy
from repro.sim.harness import build_simulation
from repro.workloads.imatmult import IMatMult
from repro.workloads.parmult import ParMult
from repro.workloads.primes import Primes1, Primes3


def mix_of(workloads, policy, **options):
    """Run *workloads* as one mix; return (simulation, result)."""
    sim = build_simulation(workloads, policy, **options)
    return sim, sim.run()


def task_times(sim):
    """Per-task attributed user time, µs, in task order."""
    return [
        sim.engine.task_user_us.get(task, 0.0)
        for task in range(len(sim.contexts))
    ]


class TestRunMix:
    def test_single_workload_mix_matches_single_run(self):
        _, mix = mix_of(
            [ParMult.small()], MoveThresholdPolicy(threshold=4), n_processors=4
        )
        solo = build_simulation(
            ParMult.small(), MoveThresholdPolicy(threshold=4), n_processors=4
        ).run()
        assert mix.user_time_us == solo.user_time_us
        assert mix.system_time_us == solo.system_time_us
        assert mix.stats.as_dict() == solo.stats.as_dict()

    def test_task_attribution_sums_to_total(self):
        sim, mix = mix_of(
            [ParMult.small(), Primes1.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
        )
        assert sum(task_times(sim)) == pytest.approx(mix.user_time_us)

    def test_task_named_lookup(self):
        """Tasks are numbered in list order and named after their
        workload; the engine attributes user time to those numbers."""
        sim, _ = mix_of(
            [ParMult.small(), Primes1.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
        )
        names = [ctx.space.name for ctx in sim.contexts]
        assert names == ["ParMult-task0", "Primes1-task1"]
        assert sorted(sim.engine.task_user_us) == [0, 1]

    def test_invariants_checked_by_default(self):
        """Mixes share single runs' check_invariants=True default."""
        import inspect

        param = inspect.signature(build_simulation).parameters[
            "check_invariants"
        ]
        assert param.kind is inspect.Parameter.KEYWORD_ONLY
        assert param.default is True

    def test_same_application_twice_does_not_cross_barriers(self):
        """Two IMatMult tasks use identical barrier names; they must
        synchronize within their own task only."""
        sim, _ = mix_of(
            [IMatMult.small(), IMatMult.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
        )
        a, b = task_times(sim)
        assert a > 0 and b > 0
        assert a == pytest.approx(b, rel=0.05)

    def test_mix_placement_matches_standalone(self):
        """The introduction's claim: each application in the mix keeps
        (almost) the locality it had standalone."""
        solo = build_simulation(
            Primes1.small(), MoveThresholdPolicy(threshold=4), n_processors=4,
            check_invariants=False,
        ).run()
        sim, _ = mix_of(
            [Primes1.small(), Primes3.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
        )
        mixed = task_times(sim)[0]
        assert mixed == pytest.approx(solo.user_time_us, rel=0.05)

    def test_mix_invariants_hold(self):
        sim, result = mix_of(
            [IMatMult.small(), Primes3.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
            check_invariants=True,
        )
        assert result.stats.moves > 0
        sim.numa.check_all_invariants()

    def test_tasks_occupy_disjoint_virtual_ranges(self):
        """No address-space identifiers in the MMUs, so tasks must not
        collide on virtual page numbers — one task would otherwise
        translate straight into another task's frames."""
        sim = build_simulation(
            [ParMult.small(), ParMult.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=2,
        )
        vpages = [
            {vp for region in ctx.space.regions for vp in region.vpages()}
            for ctx in sim.contexts
        ]
        assert vpages[0].isdisjoint(vpages[1])

    def test_identical_twins_get_identical_times(self):
        sim, _ = mix_of(
            [ParMult.small(), ParMult.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=2,
        )
        a, b = task_times(sim)
        assert a == pytest.approx(b, rel=0.05)


class TestMixSharesTheBuilder:
    """Mixes are wired by build_simulation, so they get what single
    runs get: machine-bound policies and the REPRO_SANITIZE checkers."""

    def test_bandwidth_aware_policy_is_bound_to_the_machine(self):
        policy = build_policy("bandwidth-aware", threshold=4, params={})
        mix_of([ParMult.small(), Primes1.small()], policy, n_processors=4)
        assert policy.contention is not None

    def test_sanitizer_attaches_and_changes_nothing(self, monkeypatch):
        def mix():
            return mix_of(
                [ParMult.small(), Primes1.small()],
                MoveThresholdPolicy(threshold=4),
                n_processors=4,
            )

        plain_sim, plain = mix()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sim, sanitized = mix()
        assert sim.sanitizer is not None
        assert sim.sanitizer.checks > 0
        assert task_times(sim) == task_times(plain_sim)
        assert sanitized.to_json() == plain.to_json()

"""Multiprogrammed mixes: several tasks on one machine."""

import pytest

from repro.core.policies import MoveThresholdPolicy
from repro.sim.harness import run_once
from repro.sim.mix import run_mix
from repro.workloads.imatmult import IMatMult
from repro.workloads.parmult import ParMult
from repro.workloads.primes import Primes1, Primes3


class TestRunMix:
    def test_single_workload_mix_matches_run_once(self):
        mix = run_mix(
            [ParMult.small()], MoveThresholdPolicy(threshold=4), n_processors=4
        )
        solo = run_once(ParMult.small(), MoveThresholdPolicy(threshold=4), n_processors=4)
        assert mix.total_user_us == pytest.approx(solo.user_time_us)

    def test_task_attribution_sums_to_total(self):
        mix = run_mix(
            [ParMult.small(), Primes1.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
        )
        assert sum(t.user_time_us for t in mix.tasks) == pytest.approx(
            mix.total_user_us
        )

    def test_task_named_lookup(self):
        mix = run_mix(
            [ParMult.small(), Primes1.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
        )
        assert mix.task_named("ParMult").task == 0
        assert mix.task_named("Primes1").task == 1
        with pytest.raises(KeyError):
            mix.task_named("nope")

    def test_invariants_checked_by_default(self):
        """run_mix shares run_once's check_invariants=True default."""
        import inspect

        param = inspect.signature(run_mix).parameters["check_invariants"]
        assert param.kind is inspect.Parameter.KEYWORD_ONLY
        assert param.default is True

    def test_same_application_twice_does_not_cross_barriers(self):
        """Two IMatMult tasks use identical barrier names; they must
        synchronize within their own task only."""
        mix = run_mix(
            [IMatMult.small(), IMatMult.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
        )
        a, b = mix.tasks
        assert a.user_time_us > 0 and b.user_time_us > 0
        assert a.user_time_us == pytest.approx(b.user_time_us, rel=0.05)

    def test_mix_placement_matches_standalone(self):
        """The introduction's claim: each application in the mix keeps
        (almost) the locality it had standalone."""
        solo = run_once(
            Primes1.small(), MoveThresholdPolicy(threshold=4), n_processors=4,
            check_invariants=False,
        )
        mix = run_mix(
            [Primes1.small(), Primes3.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
        )
        mixed = mix.task_named("Primes1").user_time_us
        assert mixed == pytest.approx(solo.user_time_us, rel=0.05)

    def test_mix_invariants_hold(self):
        from repro.sim.mix import run_mix as rm

        result = rm(
            [IMatMult.small(), Primes3.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
            check_invariants=True,
        )
        assert result.stats.moves > 0

    def test_tasks_occupy_disjoint_virtual_ranges(self):
        """No address-space identifiers in the MMUs, so tasks must not
        collide on virtual page numbers — one task would otherwise
        translate straight into another task's frames."""
        from repro.core.policies import MoveThresholdPolicy as MTP
        from repro.sim.mix import run_mix as rm
        from repro.machine.machine import Machine
        from repro.machine.config import ace_config
        from repro.core.numa_manager import NUMAManager
        from repro.vm.address_space import AddressSpace
        from repro.vm.fault import FaultHandler
        from repro.vm.page_pool import PagePool
        from repro.vm.pmap import ACEPmap
        from repro.workloads.base import BuildContext

        # Build two task spaces the way run_mix does and check ranges.
        spaces = [
            AddressSpace(name=f"t{i}", first_vpage=0x100 + i * 0x100000)
            for i in range(2)
        ]
        config = ace_config(2)
        for i, space in enumerate(spaces):
            ctx = BuildContext(
                space=space,
                n_threads=2,
                n_processors=2,
                machine_config=config,
            )
            ParMult.small().build(ctx)
        vpages = [
            {vp for region in space.regions for vp in region.vpages()}
            for space in spaces
        ]
        assert vpages[0].isdisjoint(vpages[1])

    def test_identical_twins_get_identical_times(self):
        mix = run_mix(
            [ParMult.small(), ParMult.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=2,
        )
        a, b = mix.tasks
        assert a.user_time_us == pytest.approx(b.user_time_us, rel=0.05)

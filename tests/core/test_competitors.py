"""The alternative policies of Section 5's related-work comparison."""

import pytest

from repro.core.policies import (
    DecayPolicy,
    MigrationOnlyPolicy,
    MoveThresholdPolicy,
    ReplicationOnlyPolicy,
)
from repro.core.state import AccessKind, PageState
from repro.machine.memory import FrameKind
from repro.sim.harness import build_simulation
from repro.vm.vm_object import shared_object
from repro.workloads.handoff import Handoff
from repro.workloads.imatmult import IMatMult
from tests.conftest import make_rig


def drive(policy, accesses, pages=1):
    rig = make_rig(n_processors=3, policy=policy)
    region = rig.space.map_object(shared_object("d", pages))
    frames = []
    for cpu, is_write in accesses:
        kind = AccessKind.WRITE if is_write else AccessKind.READ
        frames.append(rig.faults.handle(cpu, region.vpage_at(0), kind))
        rig.numa.check_all_invariants()
    return rig, region, frames


class TestMigrationOnly:
    def test_writes_migrate_without_limit(self):
        rig, region, frames = drive(
            MigrationOnlyPolicy(),
            [(i % 2, True) for i in range(10)],
        )
        # Never pinned: the last write is still local to its writer.
        assert frames[-1].kind is FrameKind.LOCAL
        page = region.vm_object.resident_page(0)
        assert rig.numa.directory.get(page.page_id).move_count == 9

    def test_foreign_reads_go_global(self):
        rig, region, frames = drive(
            MigrationOnlyPolicy(),
            [(0, True), (1, False)],
        )
        assert frames[1].kind is FrameKind.GLOBAL

    def test_own_reads_stay_local(self):
        rig, region, frames = drive(
            MigrationOnlyPolicy(),
            [(0, True), (0, False)],
        )
        assert frames[1].kind is FrameKind.LOCAL

    def test_unowned_reads_replicate(self):
        """A never-written page has no owner; reading it is harmless."""
        rig, region, frames = drive(MigrationOnlyPolicy(), [(1, False)])
        assert frames[0].kind is FrameKind.LOCAL

    def test_free_forgets_ownership(self):
        policy = MigrationOnlyPolicy()
        rig, region, _ = drive(policy, [(0, True)])
        page = region.vm_object.resident_page(0)
        rig.pool.free(page, cpu=0)
        frame = rig.faults.handle(1, region.vpage_at(0), AccessKind.READ)
        assert frame.kind is FrameKind.LOCAL  # no stale owner


class TestReplicationOnly:
    def test_readers_replicate(self):
        rig, region, frames = drive(
            ReplicationOnlyPolicy(),
            [(0, False), (1, False), (2, False)],
        )
        assert all(f.kind is FrameKind.LOCAL for f in frames)

    def test_first_foreign_write_demotes_to_global_forever(self):
        rig, region, frames = drive(
            ReplicationOnlyPolicy(),
            [(0, True), (1, True), (0, True), (1, False)],
        )
        assert frames[1].kind is FrameKind.GLOBAL
        assert frames[2].kind is FrameKind.GLOBAL
        page = region.vm_object.resident_page(0)
        entry = rig.numa.directory.get(page.page_id)
        assert entry.state is PageState.GLOBAL_WRITABLE

    def test_same_owner_rewrites_stay_local(self):
        rig, region, frames = drive(
            ReplicationOnlyPolicy(),
            [(0, True), (0, True), (0, True)],
        )
        assert all(f.kind is FrameKind.LOCAL for f in frames)

    def test_demotion_cleared_on_free(self):
        policy = ReplicationOnlyPolicy()
        rig, region, _ = drive(policy, [(0, True), (1, True)])
        page = region.vm_object.resident_page(0)
        rig.pool.free(page, cpu=0)
        frame = rig.faults.handle(1, region.vpage_at(0), AccessKind.WRITE)
        assert frame.kind is FrameKind.LOCAL


class TestDecayPolicy:
    def test_name_reads_like_platinum(self):
        assert DecayPolicy(threshold=4, decay_us=1000.0).name.startswith("decay")

    def test_behaves_like_reconsider(self):
        policy = DecayPolicy(threshold=0, decay_us=100.0)
        rig, region, _ = drive(policy, [(0, True), (1, True), (0, True)])
        page = region.vm_object.resident_page(0)
        assert policy.is_pinned(page.page_id)
        policy.tick(1_000_000.0)
        assert not policy.is_pinned(page.page_id)


class TestEndToEndShape:
    def test_migration_only_melts_down_on_writable_sharing(self):
        from repro.workloads.primes import Primes3

        workload = Primes3.small()
        paper = build_simulation(
            workload, MoveThresholdPolicy(threshold=4), n_processors=4,
            check_invariants=False,
        ).run()
        migration = build_simulation(
            Primes3.small(), MigrationOnlyPolicy(), n_processors=4,
            check_invariants=False,
        ).run()
        assert migration.system_time_us > 3 * paper.system_time_us

    def test_replication_only_loses_the_handoff(self):
        paper = build_simulation(
            Handoff.small(), MoveThresholdPolicy(threshold=4), n_processors=4,
            check_invariants=False,
        ).run()
        replication = build_simulation(
            Handoff.small(), ReplicationOnlyPolicy(), n_processors=4,
            check_invariants=False,
        ).run()
        assert replication.user_time_us > 1.2 * paper.user_time_us

    def test_migration_only_matches_paper_on_private_data(self):
        from repro.workloads.primes import Primes1

        paper = build_simulation(
            Primes1.small(), MoveThresholdPolicy(threshold=4), n_processors=4,
            check_invariants=False,
        ).run()
        migration = build_simulation(
            Primes1.small(), MigrationOnlyPolicy(), n_processors=4,
            check_invariants=False,
        ).run()
        assert migration.user_time_us == pytest.approx(
            paper.user_time_us, rel=0.05
        )

    def test_replication_only_matches_paper_on_read_sharing(self):
        paper = build_simulation(
            IMatMult.small(), MoveThresholdPolicy(threshold=4), n_processors=4,
            check_invariants=False,
        ).run()
        replication = build_simulation(
            IMatMult.small(), ReplicationOnlyPolicy(), n_processors=4,
            check_invariants=False,
        ).run()
        assert replication.user_time_us <= paper.user_time_us * 1.05

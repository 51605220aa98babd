"""The simulation engine: execution, faults, barriers, syscalls."""

import pytest

from repro.core.state import AccessKind
from repro.errors import SimulationError
from repro.machine.timing import MemoryLocation
from repro.sim.engine import Engine
from repro.sim.ops import Barrier, Compute, FreeObjectPages, MemBlock, Syscall
from repro.threads.cthreads import CThread
from repro.threads.scheduler import AffinityScheduler
from repro.threads.unix_master import UnixMaster
from repro.vm.vm_object import shared_object, stack_object
from tests.conftest import make_rig


def make_engine(rig, unix_master=None, observer=None) -> Engine:
    engine = Engine(
        rig.machine,
        rig.faults,
        AffinityScheduler(rig.machine.n_cpus),
        unix_master=unix_master,
    )
    if observer is not None:
        engine.add_observer(observer)
    return engine


def run(rig, bodies, **kwargs) -> Engine:
    engine = make_engine(rig, **kwargs)
    threads = [
        CThread(name=f"t{i}", index=i, body=body)
        for i, body in enumerate(bodies)
    ]
    engine.run(threads)
    return engine


class TestBasicExecution:
    def test_compute_charges_user_time(self, rig):
        run(rig, [iter([Compute(10.0), Compute(5.0)])])
        assert rig.machine.cpu(0).user_time_us == pytest.approx(15.0)

    def test_threads_run_on_their_bound_cpus(self, rig):
        run(rig, [iter([Compute(1.0)]), iter([Compute(2.0)])])
        assert rig.machine.cpu(0).user_time_us == pytest.approx(1.0)
        assert rig.machine.cpu(1).user_time_us == pytest.approx(2.0)

    def test_empty_thread_list(self, rig):
        assert make_engine(rig).run([]) == 0

    def test_unknown_op_rejected(self, rig):
        with pytest.raises(SimulationError):
            run(rig, [iter(["bogus"])])


class TestMemoryBlocks:
    def test_first_touch_faults_then_charges_local(self, rig):
        region = rig.space.map_object(shared_object("d", 1))
        run(rig, [iter([MemBlock(region.vpage_at(0), reads=10)])])
        cpu = rig.machine.cpu(0)
        expected = 10 * rig.machine.timing.fetch_us(MemoryLocation.LOCAL)
        assert cpu.user_time_us == pytest.approx(expected)
        assert cpu.system_time_us > 0  # the fault path

    def test_second_block_does_not_fault(self, rig):
        region = rig.space.map_object(shared_object("d", 1))
        run(
            rig,
            [
                iter(
                    [
                        MemBlock(region.vpage_at(0), reads=1),
                        MemBlock(region.vpage_at(0), reads=1),
                    ]
                )
            ],
        )
        assert rig.faults.fault_count == 1

    def test_read_then_write_double_faults(self, rig):
        """min/max protection: read maps read-only, write upgrades."""
        region = rig.space.map_object(shared_object("d", 1))
        run(rig, [iter([MemBlock(region.vpage_at(0), reads=1, writes=1)])])
        assert rig.faults.fault_count == 2

    def test_data_refs_counted_for_writable_regions_only(self, rig):
        from repro.vm.vm_object import text_object

        data = rig.space.map_object(shared_object("d", 1))
        code = rig.space.map_object(text_object("c", 1))
        run(
            rig,
            [
                iter(
                    [
                        MemBlock(data.vpage_at(0), reads=5),
                        MemBlock(code.vpage_at(0), reads=7),
                    ]
                )
            ],
        )
        cpu = rig.machine.cpu(0)
        assert cpu.data_refs.total() == 5
        assert cpu.all_refs.total() == 12


class TestBarriers:
    def test_barrier_synchronizes_phases(self, rig):
        order = []

        def body_a():
            order.append("a1")
            yield Compute(1.0)
            yield Barrier("mid")
            order.append("a2")
            yield Compute(1.0)

        def body_b():
            order.append("b1")
            yield Compute(1.0)
            yield Compute(1.0)
            yield Compute(1.0)
            yield Barrier("mid")
            order.append("b2")
            yield Compute(1.0)

        run(rig, [body_a(), body_b()])
        # a2 must not appear before b reaches the barrier (b1 done).
        assert order.index("a2") > order.index("b1")
        assert "a2" in order and "b2" in order

    def test_finished_threads_release_barriers(self, rig):
        def waiter():
            yield Barrier("end")
            yield Compute(1.0)

        def quick():
            yield Compute(1.0)
            # finishes without reaching the barrier

        run(rig, [waiter(), quick()])
        assert rig.machine.cpu(0).user_time_us == pytest.approx(1.0)

    def test_mismatched_barriers_deadlock(self, rig):
        def one():
            yield Barrier("x")

        def two():
            yield Barrier("y")

        with pytest.raises(SimulationError):
            run(rig, [one(), two()])


class TestSyscalls:
    def test_service_time_lands_on_master(self, rig):
        master = UnixMaster(master_cpu=0)
        bodies = [iter([Syscall(service_us=100.0)]) for _ in range(2)]
        run(rig, bodies, unix_master=master)
        assert rig.machine.cpu(0).system_time_us == pytest.approx(200.0)
        assert rig.machine.cpu(1).system_time_us == 0.0

    def test_touched_pages_referenced_from_master(self, rig):
        """Section 4.6: syscalls referencing user memory from the master
        drag otherwise-private pages into shared state."""
        region = rig.space.map_object(stack_object("stk", 1, owner_thread=1))
        vpage = region.vpage_at(0)

        def body():
            yield MemBlock(vpage, reads=0, writes=10)  # thread 1, cpu 1
            yield Syscall(service_us=50.0, touched=((vpage, 0, 2),))
            yield MemBlock(vpage, reads=0, writes=10)

        placeholder = iter([Compute(0.5)])
        run(rig, [placeholder, body()], unix_master=UnixMaster(master_cpu=0))
        page = region.vm_object.resident_page(0)
        entry = rig.numa.directory.get(page.page_id)
        # The master's write moved ownership, so the page has a move.
        assert entry.move_count >= 1

    def test_syscall_refs_not_counted_as_user_alpha(self, rig):
        region = rig.space.map_object(shared_object("d", 1))
        vpage = region.vpage_at(0)
        run(
            rig,
            [iter([Syscall(service_us=10.0, touched=((vpage, 3, 3),))])],
        )
        assert rig.machine.cpu(0).data_refs.total() == 0


class TestFreeObjectPages:
    def test_free_op_releases_resident_pages(self, rig):
        obj = shared_object("d", 2)
        region = rig.space.map_object(obj)

        def body():
            yield MemBlock(region.vpage_at(0), writes=1)
            yield MemBlock(region.vpage_at(1), writes=1)
            yield FreeObjectPages(obj)

        run(rig, [body()])
        assert obj.resident_page(0) is None
        assert obj.resident_page(1) is None
        assert rig.numa.stats.pages_freed == 2


class TestObserver:
    def test_observer_sees_references_and_faults(self, rig):
        events = {"refs": 0, "faults": 0}

        class Spy:
            def on_reference(self, *args, **kwargs):
                events["refs"] += 1

            def on_fault(self, *args, **kwargs):
                events["faults"] += 1

        region = rig.space.map_object(shared_object("d", 1))
        run(
            rig,
            [iter([MemBlock(region.vpage_at(0), reads=1, writes=1)])],
            observer=Spy(),
        )
        assert events["refs"] == 2  # read part + write part
        assert events["faults"] == 2


class TestPolicyTick:
    def test_policy_tick_is_called(self, rig):
        ticks = []
        original = rig.policy.tick
        rig.numa.policy.tick = lambda now: ticks.append(now)  # type: ignore
        try:
            bodies = [iter([Compute(1.0) for _ in range(600)])]
            engine = Engine(
                rig.machine,
                rig.faults,
                AffinityScheduler(rig.machine.n_cpus),
                policy_tick_ops=100,
            )
            engine.run(
                [CThread(name="t", index=0, body=bodies[0])]
            )
        finally:
            rig.numa.policy.tick = original  # type: ignore
        assert len(ticks) >= 5
        assert ticks == sorted(ticks)

"""Op traces: the trace key, recording, replay and the batch store."""

import pytest

from repro.core.policies import MoveThresholdPolicy
from repro.errors import SimulationError
from repro.exp.spec import RunSpec
from repro.machine.config import ace_config
from repro.sim.harness import build_simulation
from repro.sim.ops import (
    BARRIER,
    COMPUTE,
    FREE,
    MEM,
    SYSCALL,
    Barrier,
    Compute,
    FreeObjectPages,
    MemBlock,
    Syscall,
    encode,
)
from repro.sim.trace import TraceRecorder, TraceStore
from repro.vm.address_space import AddressSpace
from repro.vm.vm_object import shared_object
from repro.workloads import TABLE_3_WORKLOADS
from repro.workloads.base import BuildContext, Workload


class _PageSizeOnly:
    """A machine config that answers ``page_size_words`` and nothing else."""

    def __init__(self, page_size_words: int) -> None:
        self._words = page_size_words

    def __getattr__(self, name: str):
        if name == "page_size_words":
            return self._words
        raise AssertionError(f"Workload.build read machine_config.{name}")


class TestTraceKey:
    @pytest.mark.parametrize("name", sorted(TABLE_3_WORKLOADS))
    @pytest.mark.parametrize("quick", [True, False])
    def test_builds_read_only_the_page_size(self, name, quick):
        """The key holds exactly what reaches Workload.build, so a build
        may read nothing of the machine beyond its page size."""
        factory = TABLE_3_WORKLOADS[name]
        workload = factory.small() if quick else factory()
        ctx = BuildContext(
            space=AddressSpace(name=name),
            n_threads=3,
            n_processors=3,
            machine_config=_PageSizeOnly(ace_config(3).page_size_words),
        )
        assert workload.build(ctx)

    def test_placement_fields_stay_out_of_the_key(self):
        base = RunSpec(workload="FFT", quick=True, n_processors=4)
        for other in (
            RunSpec(workload="fft", quick=True, n_processors=4,
                    policy="all-global"),
            RunSpec(workload="FFT", quick=True, n_processors=4,
                    threshold=0, check_invariants=False, fast_path=False),
            RunSpec(workload="FFT", quick=True, n_processors=4,
                    policy="bandit", policy_params={"seed": 3}),
        ):
            assert other.trace_key() == base.trace_key()

    def test_build_inputs_enter_the_key(self):
        base = RunSpec(workload="FFT", quick=True, n_processors=4)
        for other in (
            RunSpec(workload="FFT", n_processors=4),
            RunSpec(workload="FFT", quick=True, n_processors=2),
            RunSpec(workload="FFT", quick=True, n_processors=4,
                    n_threads=1),
            RunSpec(workload="FFT", quick=True, n_processors=4,
                    machine={"page_size_words": 512}),
            RunSpec(workload="Gfetch", quick=True, n_processors=4),
            RunSpec(workload="FFT", n_processors=4,
                    workload_params={"n": 64}),
        ):
            assert other.trace_key() != base.trace_key()

    def test_tournament_entrants_share_one_key(self):
        keys = {
            RunSpec(
                workload="FFT", quick=True, policy=policy,
                n_processors=32, machine_name="4socket32",
                page_tables=tables,
            ).trace_key()
            for policy in ("move-threshold", "adaptive-threshold")
            for tables in ("centralized", "replicated")
        }
        assert len(keys) == 1

    def test_chaos_and_unresolvable_specs_never_replay(self):
        assert RunSpec(
            workload="ParMult", fault_profile="transient"
        ).trace_key() is None
        assert RunSpec(workload="nosuch").trace_key() is None


class _FreeingWorkload(Workload):
    """Writes a scratch buffer, frees it, barriers and syscalls."""

    name = "freeing"

    def __init__(self, mapped: bool = True) -> None:
        self.mapped = mapped

    def build(self, ctx):
        scratch = shared_object("scratch", 1)
        if self.mapped:
            region = ctx.map(scratch)
        else:
            region = ctx.space.map_object(scratch)
        vpage = region.vpage_at(0)

        def body(thread):
            yield MemBlock(vpage, reads=2, writes=thread + 1)
            yield Compute(3)
            yield Barrier("mid")
            yield Syscall(5.0, touched=((vpage, 1, 0),), name="read")
            yield FreeObjectPages(scratch)
            yield MemBlock(vpage, reads=1)

        return [body(t) for t in range(ctx.n_threads)]


def _run(workload, replay=None, record=False, n_threads=None):
    sim = build_simulation(
        workload, MoveThresholdPolicy(threshold=4), n_processors=2,
        n_threads=n_threads,
    )
    recorder = TraceRecorder(sim) if record else None
    if replay is not None:
        replay.replay(sim)
    return sim, recorder, sim.run()


class TestRecordReplay:
    def test_encode_covers_every_op_kind(self):
        scratch = shared_object("s", 1)
        call = Syscall(1.0)
        assert encode(MemBlock(7, reads=1, writes=2)) == (MEM, 7, 1, 2)
        assert encode(Compute(2.5)) == (COMPUTE, 2.5, 0, 0)
        assert encode(Barrier("b")) == (BARRIER, "b", 0, 0)
        assert encode(call) == (SYSCALL, call, 0, 0)
        assert encode(FreeObjectPages(scratch)) == (FREE, scratch, 0, 0)
        with pytest.raises(SimulationError):
            encode("bogus")

    def test_replay_matches_the_recorded_run(self):
        recorded, recorder, live = _run(_FreeingWorkload(), record=True)
        trace = recorder.trace()
        assert trace is not None
        # Distinct ops only: the two threads share all but their first.
        assert len(trace.codes) == 7
        assert [len(t) for t in trace.threads] == [6, 6]
        replayed, _, again = _run(_FreeingWorkload(), replay=trace)
        assert again.as_dict() == live.as_dict()
        assert replayed.engine.ops_executed == recorded.engine.ops_executed
        assert replayed.engine.rounds == recorded.engine.rounds

    def test_unmapped_objects_make_a_trace_unreplayable(self):
        _, recorder, _ = _run(_FreeingWorkload(mapped=False), record=True)
        assert recorder.trace() is None

    def test_thread_count_mismatch_is_refused(self):
        _, recorder, _ = _run(_FreeingWorkload(), record=True)
        with pytest.raises(SimulationError, match="2 thread streams"):
            _run(_FreeingWorkload(), n_threads=1, replay=recorder.trace())


class TestTraceStore:
    def test_serial_store_keeps_a_trace_while_a_spec_needs_it(self):
        store = TraceStore(["a", "a", "b", None])
        assert store.wants("a") and not store.wants("b")
        assert not store.wants(None)
        store.add("a", "trace-a")
        store.add("b", "trace-b")
        assert store.get("a") == "trace-a" and store.get("b") is None
        assert not store.wants("a")
        store.done("a")
        assert store.get("a") == "trace-a"
        store.done("a")
        assert store.get("a") is None and len(store) == 0

    def test_worker_store_keeps_only_its_most_recent_trace(self):
        store = TraceStore()
        assert store.wants("a")
        store.add("a", "trace-a")
        store.add("b", "trace-b")
        assert store.get("a") is None and store.get("b") == "trace-b"
        assert len(store) == 1

    def test_siblings_replay_and_the_result_is_bit_identical(self):
        tnuma = RunSpec(workload="Primes3", quick=True, n_processors=3)
        tglobal = RunSpec(
            workload="Primes3", quick=True, n_processors=3,
            policy="all-global",
        )
        store = TraceStore([tnuma.trace_key(), tglobal.trace_key()])
        first = tnuma.execute(store)
        assert store.get(tnuma.trace_key()) is not None
        second = tglobal.execute(store)
        assert first.to_json() == tnuma.execute().to_json()
        assert second.to_json() == tglobal.execute().to_json()

    def test_a_failed_run_leaves_no_trace(self, monkeypatch):
        from repro.sim.engine import Engine

        spec = RunSpec(workload="ParMult", quick=True, n_processors=2)
        store = TraceStore([spec.trace_key()] * 2)
        real_run = Engine.run

        def failing_run(self, threads):
            for stream in (t.stream for t in threads):
                next(stream)  # the recorder has seen an op
            raise SimulationError("boom")

        monkeypatch.setattr(Engine, "run", failing_run)
        with pytest.raises(SimulationError, match="boom"):
            spec.execute(store)
        assert len(store) == 0
        monkeypatch.setattr(Engine, "run", real_run)
        spec.execute(store)
        assert len(store) == 1

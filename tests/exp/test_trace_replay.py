"""Batch-scoped op-trace replay: parity with specs run alone, and scope."""

from dataclasses import replace

import pytest

from repro.errors import SimulationError
from repro.exp.batch import BatchResult, SpecOutcome, run_batch
from repro.exp.grid import flatten, table3_grid
from repro.exp.spec import RunSpec
from repro.exp.supervise import SupervisorPolicy
from repro.sim.engine import Engine
from repro.sim.trace import TraceStore


def parity_specs(fast_path: bool = True):
    """The quick Table 3 grid plus quick FFT on 4socket32, both
    page-table placements: 8 Tnuma/Tglobal pairs and 4 FFT entrants
    that share trace keys."""
    grid = flatten(table3_grid(quick=True))
    fft = [
        RunSpec(
            workload="FFT", quick=True, policy=policy, n_processors=32,
            machine_name="4socket32", page_tables=tables,
        )
        for policy in ("move-threshold", "all-global")
        for tables in ("centralized", "replicated")
    ]
    return [replace(spec, fast_path=fast_path) for spec in grid + fft]


def alone_sha256(batch: BatchResult) -> str:
    """The batch's results hash, with every spec run alone and live."""
    rows = [
        SpecOutcome(spec=row.spec, outcome=row.spec.execute(), cached=False)
        for row in batch.rows
    ]
    return replace(batch, rows=rows).results_sha256


@pytest.fixture
def replays(monkeypatch):
    """Trace keys served from a store, one entry per replay."""
    served = []
    original = TraceStore.get

    def spying(self, key):
        trace = original(self, key)
        if trace is not None:
            served.append(key)
        return trace

    monkeypatch.setattr(TraceStore, "get", spying)
    return served


@pytest.fixture
def stored(monkeypatch):
    """Trace keys of every run that handed the store a finished trace."""
    added = []
    original = TraceStore.add

    def spying(self, key, trace):
        added.append(key)
        return original(self, key, trace)

    monkeypatch.setattr(TraceStore, "add", spying)
    return added


class TestReplayParity:
    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_replaying_batch_matches_each_spec_run_alone(
        self, fast_path, sanitize, replays, monkeypatch
    ):
        if sanitize:
            monkeypatch.setenv("REPRO_SANITIZE", "1")
        else:
            monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        batch = run_batch(parity_specs(fast_path))
        # One replay per Tnuma/Tglobal pair, three FFT entrants.
        assert len(replays) == 8 + 3
        assert batch.results_sha256 == alone_sha256(batch)

    def test_pooled_replay_matches_serial_replay(self):
        specs = parity_specs()
        serial = run_batch(specs)
        pooled = run_batch(
            specs, jobs=2, policy=SupervisorPolicy.strict(auto_serial=False)
        )
        assert pooled.results_sha256 == serial.results_sha256


class TestStoreScope:
    def test_consecutive_batches_each_compile_their_traces(
        self, stored, replays
    ):
        specs = parity_specs()
        first = run_batch(specs)
        assert (len(stored), len(replays)) == (9, 11)
        second = run_batch(specs)
        assert (len(stored), len(replays)) == (18, 22)
        assert second.results_sha256 == first.results_sha256

    def test_a_failed_attempt_leaves_no_trace(
        self, stored, replays, monkeypatch
    ):
        """The first run of a shared key dies mid-stream; its retry
        records afresh and the sibling replays that, not the wreck."""
        specs = [
            spec for spec in parity_specs() if spec.workload == "Primes3"
        ]
        real_run = Engine.run
        failures = {"left": 1}

        def flaky(self, threads):
            if len(threads) > 1 and failures["left"]:
                failures["left"] -= 1
                for thread in threads:
                    next(thread.stream)
                raise SimulationError("injected mid-run failure")
            return real_run(self, threads)

        monkeypatch.setattr(Engine, "run", flaky)
        batch = run_batch(
            specs, policy=SupervisorPolicy(max_attempts=2, backoff_base_s=0)
        )
        assert batch.supervision.retries == 1
        assert (len(stored), len(replays)) == (1, 1)
        monkeypatch.setattr(Engine, "run", real_run)
        assert batch.results_sha256 == alone_sha256(batch)

    def test_a_quarantined_spec_leaves_its_sibling_live(
        self, stored, replays, monkeypatch
    ):
        specs = [
            spec for spec in parity_specs() if spec.workload == "Primes3"
        ]
        real_run = Engine.run
        failures = {"left": 1}

        def flaky(self, threads):
            if len(threads) > 1 and failures["left"]:
                failures["left"] -= 1
                for thread in threads:
                    next(thread.stream)
                raise SimulationError("injected mid-run failure")
            return real_run(self, threads)

        monkeypatch.setattr(Engine, "run", flaky)
        batch = run_batch(specs, policy=SupervisorPolicy(max_attempts=1))
        assert len(batch.quarantined) == 1
        assert (len(stored), len(replays)) == (0, 0)
        assert batch.lost == []

"""The supervision layer: retry, backoff, quarantine, recycle, fallback."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.exp.journal import BatchJournal
from repro.exp.spec import RunSpec
from repro.exp.supervise import (
    SupervisedRunner,
    SupervisorPolicy,
    execute_supervised,
)
from repro.faults.harness import (
    HarnessChaosPlan,
    HarnessChaosProfile,
    make_harness_plan,
)
from repro.obs.events import EventBus


def good_spec(n_processors=2):
    return RunSpec(workload="ParMult", quick=True, n_processors=n_processors)


def bad_spec():
    return RunSpec(workload="nope", quick=True)


def pair(spec):
    return (spec.fingerprint(), spec)


class TestPolicy:
    def test_defaults_are_resilient(self):
        policy = SupervisorPolicy()
        assert policy.max_attempts == 3
        assert not policy.raise_on_failure
        assert policy.auto_serial

    def test_strict_reproduces_the_legacy_contract(self):
        policy = SupervisorPolicy.strict()
        assert policy.max_attempts == 1
        assert policy.raise_on_failure
        assert policy.backoff_s("fp", 1) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(backoff_base_s=-1.0)

    def test_backoff_is_capped_exponential_with_deterministic_jitter(self):
        policy = SupervisorPolicy(
            backoff_base_s=0.1, backoff_cap_s=0.4, backoff_jitter=0.25,
            seed=9,
        )
        b1 = policy.backoff_s("fp", 1)
        b2 = policy.backoff_s("fp", 2)
        b9 = policy.backoff_s("fp", 9)
        assert 0.1 <= b1 <= 0.1 * 1.25
        assert 0.2 <= b2 <= 0.2 * 1.25
        assert 0.4 <= b9 <= 0.4 * 1.25  # capped
        # pure function of (seed, fp, attempt)
        assert policy.backoff_s("fp", 1) == b1
        assert SupervisorPolicy(
            backoff_base_s=0.1, backoff_cap_s=0.4, backoff_jitter=0.25,
            seed=9,
        ).backoff_s("fp", 1) == b1
        # different fp or seed draws different jitter
        assert policy.backoff_s("other", 1) != b1


class TestSerialSupervision:
    def test_happy_path_matches_direct_execution(self):
        spec = good_spec()
        runner = SupervisedRunner(jobs=1, policy=SupervisorPolicy())
        outcomes, quarantined, stats = runner.run([pair(spec)])
        assert not quarantined
        assert stats.executed == 1
        direct = spec.execute()
        assert outcomes[spec.fingerprint()].to_json() == direct.to_json()

    def test_poison_spec_is_quarantined_not_fatal(self):
        good, bad = good_spec(), bad_spec()
        policy = SupervisorPolicy(max_attempts=2, backoff_base_s=0.0)
        runner = SupervisedRunner(jobs=1, policy=policy)
        outcomes, quarantined, stats = runner.run([pair(bad), pair(good)])
        assert good.fingerprint() in outcomes
        assert bad.fingerprint() in quarantined
        assert "nope" in quarantined[bad.fingerprint()]
        assert stats.quarantined == 1
        assert stats.retries == 1  # attempt 1 failed, retried, gave up

    def test_strict_policy_raises_the_original_error(self):
        runner = SupervisedRunner(jobs=1, policy=SupervisorPolicy.strict())
        with pytest.raises(ConfigurationError) as excinfo:
            runner.run([pair(bad_spec())])
        assert "nope" in str(excinfo.value)

    def test_chaos_kill_in_serial_mode_retries_and_converges(self):
        spec = good_spec()
        profile = HarnessChaosProfile(name="always-kill", kill_rate=1.0)
        plan = HarnessChaosPlan(profile, seed=0)
        policy = SupervisorPolicy(
            max_attempts=3, backoff_base_s=0.0, chaos=plan
        )
        runner = SupervisedRunner(jobs=1, policy=policy)
        outcomes, quarantined, stats = runner.run([pair(spec)])
        assert not quarantined
        assert spec.fingerprint() in outcomes
        assert stats.retries == 1  # killed once (first attempt only)
        assert plan.fired["kill"] == 1

    def test_prior_failures_carry_across_resume(self):
        """A spec that already burned its budget in a crashed run stays
        quarantined — a poison spec must not sink every resume too."""
        bad = bad_spec()
        policy = SupervisorPolicy(max_attempts=2, backoff_base_s=0.0)
        runner = SupervisedRunner(
            jobs=1, policy=policy,
            prior_failures={bad.fingerprint(): 2},
        )
        outcomes, quarantined, stats = runner.run([pair(bad)])
        assert quarantined == {
            bad.fingerprint(): "quarantined in a previous run"
        }
        assert stats.retries == 0  # never re-attempted

    def test_retry_and_quarantine_events_reach_the_bus(self):
        events = []

        class Observer:
            def on_spec_retry(self, fp, label, attempt, backoff_s, reason):
                events.append(("retry", attempt, reason))

            def on_spec_quarantined(self, fp, label, attempts, reason):
                events.append(("quarantined", attempts, reason))

        bus = EventBus([Observer()])
        policy = SupervisorPolicy(max_attempts=2, backoff_base_s=0.0)
        runner = SupervisedRunner(jobs=1, policy=policy, bus=bus)
        runner.run([pair(bad_spec())])
        assert events[0][0] == "retry" and events[0][1] == 1
        assert events[1][0] == "quarantined" and events[1][1] == 2

    def test_failures_and_quarantine_reach_the_journal(self, tmp_path):
        journal = BatchJournal(tmp_path / "j.jsonl")
        journal.begin("b", [], {}, jobs=1)
        policy = SupervisorPolicy(max_attempts=2, backoff_base_s=0.0)
        runner = SupervisedRunner(jobs=1, policy=policy, journal=journal)
        bad = bad_spec()
        runner.run([pair(bad)])
        segment = BatchJournal.replay(journal.path).last
        assert segment.failures == {bad.fingerprint(): 2}
        assert segment.states[bad.fingerprint()] == "quarantined"


class TestPoolSupervision:
    """Pool paths need auto_serial=False on a starved CI host — the
    clamp would otherwise (correctly) route everything serial."""

    def test_pool_results_match_serial(self):
        specs = [good_spec(p) for p in (1, 2, 3)]
        serial = SupervisedRunner(jobs=1, policy=SupervisorPolicy())
        out_s, _, _ = serial.run([pair(s) for s in specs])
        pool = SupervisedRunner(
            jobs=2, policy=SupervisorPolicy(auto_serial=False)
        )
        out_p, quarantined, _ = pool.run([pair(s) for s in specs])
        assert not quarantined
        for spec in specs:
            fp = spec.fingerprint()
            assert out_s[fp].to_json() == out_p[fp].to_json()

    def test_worker_kill_breaks_pool_and_recovers(self):
        specs = [good_spec(p) for p in (1, 2, 3, 4)]
        plan = None
        for seed in range(50):
            candidate = make_harness_plan("worker-kill", seed)
            if sum(
                candidate.would_disturb(s.fingerprint(), 1) for s in specs
            ) >= 1:
                plan = candidate
                break
        assert plan is not None
        policy = SupervisorPolicy(
            max_attempts=4, auto_serial=False, chaos=plan,
            backoff_base_s=0.01, backoff_cap_s=0.05,
        )
        runner = SupervisedRunner(jobs=2, policy=policy)
        outcomes, quarantined, stats = runner.run([pair(s) for s in specs])
        assert not quarantined
        assert len(outcomes) == len(specs)
        assert stats.pool_recycles >= 1
        assert stats.retries >= 1

    def test_hung_worker_times_out_and_recovers(self):
        specs = [good_spec(p) for p in (1, 2, 3)]
        profile = HarnessChaosProfile(
            name="hang-one", hang_rate=0.5, hang_s=5.0
        )
        plan = None
        for seed in range(50):
            candidate = HarnessChaosPlan(profile, seed)
            if sum(
                candidate.would_disturb(s.fingerprint(), 1) for s in specs
            ) >= 1:
                plan = candidate
                break
        assert plan is not None
        policy = SupervisorPolicy(
            max_attempts=3, auto_serial=False, chaos=plan, timeout_s=1.0,
            backoff_base_s=0.01, backoff_cap_s=0.05,
        )
        runner = SupervisedRunner(jobs=2, policy=policy)
        outcomes, quarantined, stats = runner.run([pair(s) for s in specs])
        assert not quarantined
        assert len(outcomes) == len(specs)
        assert stats.timeouts >= 1
        assert stats.pool_recycles >= 1

    def test_dying_pool_falls_back_to_serial(self):
        """With every first attempt killed and a recycle budget of one,
        the supervisor must abandon multiprocessing and still finish
        every spec in-process."""
        specs = [good_spec(p) for p in (1, 2, 3)]
        profile = HarnessChaosProfile(name="always-kill", kill_rate=1.0)
        plan = HarnessChaosPlan(profile, seed=0)
        policy = SupervisorPolicy(
            max_attempts=4, auto_serial=True, chaos=plan,
            max_pool_recycles=1, backoff_base_s=0.0,
        )
        runner = SupervisedRunner(jobs=2, policy=policy)
        runner.jobs_effective = 2  # force the pool path despite 1 core
        runner._window = 4
        outcomes, quarantined, stats = runner.run([pair(s) for s in specs])
        assert not quarantined
        assert len(outcomes) == len(specs)
        assert stats.serial_fallbacks == 1
        assert stats.pool_recycles == 1

    def test_jobs_clamp_to_host_cores_under_auto_serial(self):
        from repro.exp.runner import usable_cpus

        cores = usable_cpus()
        runner = SupervisedRunner(
            jobs=cores + 8, policy=SupervisorPolicy(auto_serial=True)
        )
        assert runner.jobs_effective == cores
        unclamped = SupervisedRunner(
            jobs=cores + 8, policy=SupervisorPolicy(auto_serial=False)
        )
        assert unclamped.jobs_effective == cores + 8

    def test_jobs_clamp_counts_the_affinity_mask(self, monkeypatch):
        """A taskset/cpuset-restricted process gets no more workers
        than the CPUs it may run on, however many the host has."""
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        runner = SupervisedRunner(
            jobs=4, policy=SupervisorPolicy(auto_serial=True)
        )
        assert runner.jobs_effective == 1

    def test_strict_pool_failure_carries_spec_context(self):
        runner = SupervisedRunner(
            jobs=2, policy=SupervisorPolicy.strict(auto_serial=False)
        )
        with pytest.raises(SimulationError) as excinfo:
            runner.run([pair(bad_spec())])
        assert "nope" in str(excinfo.value)
        assert "worker failed on spec" in str(excinfo.value)


class TestWorkerEntry:
    def test_execute_supervised_without_action_matches_payload(self):
        spec = good_spec()
        payload = execute_supervised(spec.key(), None)
        assert payload == spec.execute().as_dict()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(SimulationError):
            SupervisedRunner(jobs=0)

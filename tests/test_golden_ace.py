"""Golden backward-compat: the flat ACE is byte-identical pre/post topology.

The topology layer (PR 9) must be totally inert on the paper's machine:
these hashes were captured on the commit *before* the layer existed, so
any drift — a changed float association, a new counter in a serialized
dict, a fingerprint perturbation — fails here first, with the offending
artifact named.
"""

import hashlib

import pytest

#: sha256 of ``format_table3``/``format_table4`` over the quick
#: ParMult+Gfetch evaluation, captured pre-topology.
TABLE3_SHA = "d03b66ec06c339482ffb686374aff17d2e573bd6ac3d58e5e363055574d5115d"
TABLE4_SHA = "2cac26ba87a218633c0ddf187cf92f85b5555bdea15241722260b5df5fbc3ea7"

#: sha256 of ``ChaosReport.to_json()`` for ParMult.small under the
#: transient profile, seed 0, captured pre-topology.
CHAOS_SHA = "75a9e340990d9a08233908c07486ba68c6aa4cd4f154d9c5e3be872a0bae03bd"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenTables:
    @pytest.fixture(scope="class")
    def evaluation(self):
        from repro.analysis.report import run_evaluation

        return run_evaluation(apps=["ParMult", "Gfetch"], quick=True)

    def test_table3_bytes_unchanged(self, evaluation):
        from repro.analysis.report import format_table3

        assert _sha(format_table3(evaluation)) == TABLE3_SHA

    def test_table4_bytes_unchanged(self, evaluation):
        from repro.analysis.report import format_table4

        assert _sha(format_table4(evaluation)) == TABLE4_SHA


class TestGoldenChaos:
    def test_chaos_summary_bytes_unchanged(self):
        from repro.faults.chaos import run_chaos
        from repro.workloads.parmult import ParMult

        report = run_chaos(ParMult.small(), "transient", seed=0)
        assert _sha(report.to_json()) == CHAOS_SHA


class TestGoldenRunOnce:
    def test_simulated_times_unchanged(self):
        from repro.core.policies import MoveThresholdPolicy
        from repro.sim.harness import build_simulation
        from repro.workloads.parmult import ParMult

        result = build_simulation(ParMult.small(), MoveThresholdPolicy()).run()
        assert result.user_time_us == 14814.74
        assert result.system_time_us == 15431.744000000004
        assert result.rounds == 5

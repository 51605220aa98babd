"""The Handoff and LopsidedSharing microworkloads."""

import pytest

from repro.core.policies import HomeNodePolicy, MoveThresholdPolicy
from repro.core.policies.pragma import Pragma
from repro.sim.harness import build_simulation
from repro.workloads.handoff import Handoff
from repro.workloads.lopsided import LopsidedSharing


class TestHandoff:
    def test_default_threshold_keeps_consumer_local(self):
        result = build_simulation(
            Handoff.small(), MoveThresholdPolicy(threshold=4), n_processors=4
        ).run()
        assert result.measured_alpha > 0.9

    def test_threshold_zero_pins_the_buffer(self):
        pinned = build_simulation(
            Handoff.small(), MoveThresholdPolicy(threshold=0), n_processors=4
        ).run()
        default = build_simulation(
            Handoff.small(), MoveThresholdPolicy(threshold=4), n_processors=4
        ).run()
        assert pinned.measured_alpha < default.measured_alpha
        assert pinned.user_time_us > default.user_time_us

    def test_extra_threads_idle_harmlessly(self):
        few = build_simulation(
            Handoff.small(), MoveThresholdPolicy(threshold=4), n_processors=2
        ).run()
        many = build_simulation(
            Handoff.small(), MoveThresholdPolicy(threshold=4), n_processors=7
        ).run()
        assert many.user_time_us == pytest.approx(
            few.user_time_us, rel=0.05
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            Handoff(pages=0)
        with pytest.raises(ValueError):
            Handoff(sweeps=0)

    def test_ownership_moves_are_few_under_the_default(self):
        result = build_simulation(
            Handoff.small(), MoveThresholdPolicy(threshold=4), n_processors=4
        ).run()
        # One productive transfer per page, plus the peek-induced
        # re-claims; far below the pathological ping-pong counts.
        assert result.stats.moves <= Handoff.small().pages * 4


class TestLopsidedSharing:
    def test_share_validation(self):
        with pytest.raises(ValueError):
            LopsidedSharing(dominant_share=0.0)
        with pytest.raises(ValueError):
            LopsidedSharing(dominant_share=1.5)
        with pytest.raises(ValueError):
            LopsidedSharing(total_refs=0)

    def test_name_embeds_share(self):
        assert "80%" in LopsidedSharing(dominant_share=0.8).name

    def test_automatic_policy_pins_the_hot_region(self):
        result = build_simulation(
            LopsidedSharing(dominant_share=0.5, total_refs=40_000),
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
        ).run()
        assert result.measured_alpha < 0.35  # hot refs mostly global

    def test_remote_pragma_keeps_the_home_local(self):
        result = build_simulation(
            LopsidedSharing(
                dominant_share=0.9, total_refs=40_000, pragma=Pragma.REMOTE
            ),
            HomeNodePolicy(MoveThresholdPolicy(threshold=4)),
            n_processors=4,
        ).run()
        assert result.stats.remote_mappings > 0
        assert result.stats.moves == 0
        # ~90% of references are the home's, made locally.
        assert result.measured_alpha > 0.75

    def test_dominant_share_controls_the_split(self):
        lop = build_simulation(
            LopsidedSharing(
                dominant_share=0.9, total_refs=40_000, pragma=Pragma.REMOTE
            ),
            HomeNodePolicy(MoveThresholdPolicy(threshold=4)),
            n_processors=4,
        ).run()
        balanced = build_simulation(
            LopsidedSharing(
                dominant_share=0.3, total_refs=40_000, pragma=Pragma.REMOTE
            ),
            HomeNodePolicy(MoveThresholdPolicy(threshold=4)),
            n_processors=4,
        ).run()
        assert lop.measured_alpha > balanced.measured_alpha

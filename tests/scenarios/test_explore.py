"""Tests of the coverage-guided explorer and the ``repro explore`` CLI."""

import json

import pytest

from repro.campaign.cache import ArtifactCache
from repro.cli import main
from repro.gpca.scenarios import gpca_scenario_space
from repro.scenarios.explore import CoverageGuidedExplorer
from repro.systems import get_pack
from repro.systems.gpca import EXTENDED_MODEL_SHIFT_US


@pytest.fixture(scope="module")
def fig2_artifacts_cached():
    return ArtifactCache().artifacts_for_model("fig2")


def build_explorer(artifacts, seed=0):
    pack = get_pack("gpca")

    def factory():
        return pack.build_system(1, seed=11, artifacts=artifacts)

    return CoverageGuidedExplorer(
        gpca_scenario_space(),
        factory,
        artifacts.code_model,
        seed=seed,
        schedule=lambda program, compile_seed: pack.schedule(program, compile_seed, "fig2"),
    )


class TestCoverageGuidedExplorer:
    def test_exploration_is_seed_deterministic(self, fig2_artifacts_cached):
        first = build_explorer(fig2_artifacts_cached, seed=0).explore(6)
        second = build_explorer(fig2_artifacts_cached, seed=0).explore(6)
        assert first.summary() == second.summary()
        assert first.to_dict() == second.to_dict()

    def test_coverage_ratio_is_monotonic(self, fig2_artifacts_cached):
        report = build_explorer(fig2_artifacts_cached, seed=0).explore(8)
        ratios = [episode.transition_ratio_after for episode in report.episodes]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))
        assert report.transition_coverage.ratio == ratios[-1] > 0.0

    def test_productive_programs_are_mutated(self, fig2_artifacts_cached):
        """Once a program uncovers transitions, later episodes exploit it."""
        report = build_explorer(fig2_artifacts_cached, seed=0).explore(8)
        assert any(episode.new_transitions for episode in report.episodes)
        assert any(episode.source == "mutation" for episode in report.episodes)

    def test_new_transitions_are_disjoint_across_episodes(self, fig2_artifacts_cached):
        report = build_explorer(fig2_artifacts_cached, seed=0).explore(8)
        seen = set()
        for episode in report.episodes:
            gained = set(episode.new_transitions)
            assert not gained & seen
            seen |= gained
        assert seen == set(report.transition_coverage.covered)

    def test_plateau_forces_rich_fresh_sampling(self, fig2_artifacts_cached):
        """After a dry streak, picks become structurally rich fresh draws."""
        report = build_explorer(fig2_artifacts_cached, seed=0).explore(24)
        rich = [episode for episode in report.episodes if episode.source == "rich"]
        assert rich, "exploration never hit the plateau path"
        for episode in rich:
            assert episode.program.setup and episode.program.teardown
        # The rich draws are what complete fig2 transition coverage at seed 0.
        assert report.transition_coverage.ratio == 1.0

    def test_schedule_is_required(self, fig2_artifacts_cached):
        """No default compiles a program past the pack, so no model shift is skipped."""
        with pytest.raises(TypeError, match="schedule"):
            CoverageGuidedExplorer(
                gpca_scenario_space(), lambda: None, fig2_artifacts_cached.code_model, seed=0
            )

    def test_extended_model_episodes_run_shifted_schedules(self):
        """Each episode runs the case its ``schedule`` writes for its program."""
        pack = get_pack("gpca")
        artifacts = ArtifactCache().artifacts_for_model("extended")
        scheduled = []

        def schedule(program, compile_seed):
            case = pack.schedule(program, compile_seed, "extended")
            scheduled.append((program, compile_seed, case))
            return case

        report = CoverageGuidedExplorer(
            gpca_scenario_space(),
            lambda: pack.build_system(1, model="extended", seed=11, artifacts=artifacts),
            artifacts.code_model,
            seed=0,
            schedule=schedule,
        ).explore(2)
        assert [program for program, _, _ in scheduled] == [
            episode.program for episode in report.episodes
        ]
        for program, compile_seed, case in scheduled:
            base_times = program.compile(compile_seed).stimulus_times()
            assert case.stimulus_times() == [t + EXTENDED_MODEL_SHIFT_US for t in base_times]

    def test_report_dict_is_json_serializable(self, fig2_artifacts_cached):
        report = build_explorer(fig2_artifacts_cached, seed=1).explore(4)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["seed"] == 1
        assert len(payload["episodes"]) == 4
        assert 0.0 <= payload["transition_coverage"]["ratio"] <= 1.0


class TestExploreCommand:
    def test_explore_emits_coverage_summary(self, capsys):
        assert main(["explore", "--seed", "0", "--episodes", "4"]) == 0
        output = capsys.readouterr().out
        assert "transition coverage" in output
        assert "state coverage" in output
        assert "episode  0" in output

    def test_explore_is_deterministic(self, capsys):
        assert main(["explore", "--seed", "0", "--episodes", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["explore", "--seed", "0", "--episodes", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_explore_writes_json_report(self, tmp_path, capsys):
        target = tmp_path / "explore.json"
        assert main(["explore", "--episodes", "3", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert len(payload["episodes"]) == 3

    def test_explore_rejects_nonpositive_episodes(self, capsys):
        assert main(["explore", "--episodes", "0"]) == 2

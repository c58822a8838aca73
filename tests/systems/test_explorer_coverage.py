"""Coverage-guided exploration of the new packs' scenario spaces.

The acceptance bar from the PR: each pack's scenario space must let the
stock explorer reach *full* chart transition coverage, just as the GPCA
space does for fig2.
"""

from __future__ import annotations

import pytest

from repro.campaign import ArtifactCache
from repro.scenarios import CoverageGuidedExplorer
from repro.systems import CRUISE_PACK, PACEMAKER_PACK


def explore(pack, episodes, *, seed=0):
    artifacts = ArtifactCache().artifacts_for_model(pack.default_model)

    def factory():
        return pack.build_system(1, seed=11, artifacts=artifacts)

    explorer = CoverageGuidedExplorer(
        pack.scenario_space(),
        factory,
        artifacts.code_model,
        seed=seed,
        schedule=lambda program, compile_seed: pack.schedule(
            program, compile_seed, pack.default_model
        ),
    )
    return explorer.explore(episodes)


@pytest.mark.slow
class TestFullTransitionCoverage:
    def test_cruise_reaches_full_coverage(self):
        report = explore(CRUISE_PACK, 40)
        assert report.transition_coverage.ratio == 1.0, sorted(
            report.transition_coverage.uncovered
        )

    def test_pacemaker_reaches_full_coverage(self):
        report = explore(PACEMAKER_PACK, 60)
        assert report.transition_coverage.ratio == 1.0, sorted(
            report.transition_coverage.uncovered
        )


class TestExplorationSmoke:
    @pytest.mark.parametrize("pack", [PACEMAKER_PACK, CRUISE_PACK], ids=lambda p: p.system_id)
    def test_short_runs_are_deterministic_and_productive(self, pack):
        first = explore(pack, 6)
        second = explore(pack, 6)
        assert first.to_dict() == second.to_dict()
        assert first.transition_coverage.ratio > 0.0

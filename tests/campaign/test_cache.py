"""Hit/miss behaviour of the content-keyed artifact cache."""

from __future__ import annotations

import pytest

from repro.campaign.cache import ArtifactCache, chart_fingerprint, process_cache
from repro.gpca.model import build_extended_statechart, build_fig2_statechart


class TestArtifactCache:
    def test_first_model_lookup_is_a_miss_then_hits(self):
        cache = ArtifactCache()
        first = cache.artifacts_for_model("fig2")
        assert cache.stats() == {"hits": 0, "misses": 1, "entries": 1}
        second = cache.artifacts_for_model("fig2")
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_models_generate_separately(self):
        cache = ArtifactCache()
        fig2 = cache.artifacts_for_model("fig2")
        extended = cache.artifacts_for_model("extended")
        assert fig2 is not extended
        assert cache.generation_count == 2

    def test_structurally_identical_charts_share_one_generation(self):
        cache = ArtifactCache()
        first = cache.artifacts_for_chart(build_fig2_statechart())
        second = cache.artifacts_for_chart(build_fig2_statechart())
        assert second is first
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_named_lookup_shares_with_equivalent_explicit_chart(self):
        cache = ArtifactCache()
        by_chart = cache.artifacts_for_chart(build_fig2_statechart())
        by_name = cache.artifacts_for_model("fig2")
        assert by_name is by_chart
        assert cache.generation_count == 1

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError, match="unknown model"):
            ArtifactCache().artifacts_for_model("fig9")

    def test_clear_resets_entries_and_counters(self):
        cache = ArtifactCache()
        cache.artifacts_for_model("fig2")
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        assert chart_fingerprint(build_fig2_statechart()) == chart_fingerprint(
            build_fig2_statechart()
        )

    def test_distinguishes_models(self):
        assert chart_fingerprint(build_fig2_statechart()) != chart_fingerprint(
            build_extended_statechart()
        )

    def test_sensitive_to_structural_change(self):
        chart = build_fig2_statechart()
        baseline = chart_fingerprint(chart)
        from repro.model.statechart import State

        chart.add_state(State("Extra"))
        assert chart_fingerprint(chart) != baseline

    def test_sensitive_to_behavioural_transition_changes(self):
        """Same wiring, different behaviour must not collide (stale-cache guard)."""
        from repro.model.statechart import Statechart, State, Transition
        from repro.model.declarations import Assign, InputEvent, OutputVariable
        from repro.model.temporal import at

        def build(ticks: int, value: int, priority: int, guarded: bool) -> Statechart:
            chart = Statechart("variant")
            chart.add_state(State("A"), initial=True)
            chart.add_state(State("B"))
            chart.add_input_event(InputEvent("go"))
            chart.add_output_variable(OutputVariable("out", initial=0))
            chart.add_transition(
                Transition(
                    "t1",
                    "A",
                    "B",
                    event="go",
                    actions=(Assign("out", value),),
                    priority=priority,
                    guard=(lambda ctx: ctx.get("x", 0) > 0) if guarded else None,
                )
            )
            chart.add_transition(Transition("t2", "B", "A", temporal=at(ticks)))
            return chart

        base = chart_fingerprint(build(4000, 1, 0, False))
        assert chart_fingerprint(build(4000, 1, 0, False)) == base  # stable
        assert chart_fingerprint(build(8000, 1, 0, False)) != base  # temporal trigger
        assert chart_fingerprint(build(4000, 2, 0, False)) != base  # action value
        assert chart_fingerprint(build(4000, 1, 5, False)) != base  # priority
        assert chart_fingerprint(build(4000, 1, 0, True)) != base   # guard presence

    def test_sensitive_to_closure_captured_guard_constants(self):
        """Guards differing only in captured state must not collide."""
        from repro.campaign.cache import _stable_value_key

        def guard_with(threshold):
            return lambda ctx: ctx.get("x", 0) > threshold

        assert _stable_value_key(guard_with(1)) == _stable_value_key(guard_with(1))
        assert _stable_value_key(guard_with(1)) != _stable_value_key(guard_with(100))

        def guard_default(ctx, threshold=1):
            return ctx.get("x", 0) > threshold

        def guard_default_100(ctx, threshold=100):
            return ctx.get("x", 0) > threshold

        assert _stable_value_key(guard_default) != _stable_value_key(guard_default_100)


def test_process_cache_is_a_singleton_per_process():
    assert process_cache() is process_cache()

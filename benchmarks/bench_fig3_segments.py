"""Benchmark: Fig. 3 — the four timing views of the R-M testing framework.

Fig. 3 of the paper illustrates, for one bolus request, (a) the model-level
timing, (b) the R-testing view (m -> c), (c) the M-testing I/O view
(Input/CODE(M)/Output delays) and (d) the M-testing transition view
(Trans1/Trans2 delays).  This benchmark regenerates all four views — the
scheme executions now run through the campaign engine — and checks their
internal consistency.
"""

from __future__ import annotations

from repro.analysis.figures import fig3_views, model_timing_view
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, CasePoint, SchemePoint
from repro.gpca.model import build_fig2_statechart
from repro.gpca.requirements import req1_bolus_start


def fig3_spec(scheme: int, seed: int) -> CampaignSpec:
    """A one-run campaign: one scheme executing the Fig. 3 bolus scenario."""
    return CampaignSpec(
        name=f"fig3-scheme{scheme}",
        schemes=(SchemePoint(scheme, sut_seed=seed),),
        cases=(CasePoint("bolus-request", samples=5, seed=3),),
    )


def build_views(scheme: int, seed: int):
    chart = build_fig2_statechart()
    requirement = req1_bolus_start()
    record = CampaignRunner(fig3_spec(scheme, seed)).run().records[0]
    return record.r_report(), fig3_views(chart, requirement, record.m_report())


def test_fig3_model_view(benchmark, write_artifact):
    """Fig. 3-(a): the model responds instantaneously, within the verified bound."""
    view = benchmark.pedantic(
        lambda: model_timing_view(build_fig2_statechart(), req1_bolus_start()),
        rounds=1,
        iterations=1,
    )
    write_artifact(
        "fig3a_model_view.txt",
        f"trigger at tick {view.trigger_tick}, response at tick {view.response_tick}, "
        f"deadline {view.deadline_ticks} ticks",
    )
    assert view.within_deadline
    assert view.response_latency_ticks == 0


def test_fig3_views_scheme1(benchmark, write_artifact):
    r_report, views = benchmark.pedantic(lambda: build_views(1, 11), rounds=1, iterations=1)
    write_artifact("fig3_scheme1.txt", "\n\n".join(view.render() for view in views))
    for view in views:
        segments = view.segments
        if segments.complete:
            assert segments.segments_consistent()
            # R-view latency equals the m->c difference of the I/O view.
            m_time, c_time = view.r_view
            assert c_time - m_time == segments.end_to_end_us
        # Transition spans fall between the i-event and the o-event.
        for _, start, end in view.transition_view:
            assert segments.i_time_us <= start <= end
            assert segments.o_time_us is None or end <= segments.o_time_us


def test_fig3_views_scheme3_show_inflated_transitions(benchmark, write_artifact):
    """Under interference the wall-clock transition spans inflate (preemption)."""
    _, scheme1_views = build_views(1, 11)
    _, scheme3_views = benchmark.pedantic(lambda: build_views(3, 33), rounds=1, iterations=1)
    write_artifact("fig3_scheme3.txt", "\n\n".join(view.render() for view in scheme3_views))

    def worst_transition_span(views):
        spans = [
            end - start
            for view in views
            for _, start, end in view.transition_view
        ]
        return max(spans) if spans else 0

    assert worst_transition_span(scheme3_views) > worst_transition_span(scheme1_views)

"""Benchmark: Table I — measured time-delays for the bolus-request scenario.

Reproduces the paper's Table I through the campaign engine: the ten R-testing
samples of REQ1 per implementation scheme plus the M-testing delay segments
are one three-run campaign grid (:func:`repro.campaign.spec.table_one_spec`).  The
qualitative shape the paper reports is then checked on the aggregate:

* scheme 2 (multi-threaded, period sum < 100 ms) conforms;
* scheme 1 (single-threaded 25 ms loop) shows occasional, marginal violations;
* scheme 3 (with interfering threads) violates heavily, including MAX
  (time-out) samples, and is the worst of the three.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import TableOne
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import table_one_spec

SAMPLES = 10
CASE_SEED = 7


def build_table() -> TableOne:
    """Run the Table I campaign grid and rebuild the table from the aggregate."""
    result = CampaignRunner(table_one_spec(samples=SAMPLES, case_seed=CASE_SEED)).run()
    return result.table_one()


@pytest.fixture(scope="module")
def table_one() -> TableOne:
    return build_table()


def test_table1_reproduction(benchmark, table_one, write_artifact):
    """Regenerate Table I and check the paper's qualitative shape."""
    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    rendered = table.render()
    write_artifact("table1.txt", rendered)

    by_scheme = {result.scheme: result for result in table.results}
    scheme1, scheme2, scheme3 = by_scheme[1], by_scheme[2], by_scheme[3]

    # Scheme 2 conforms by construction (period sum < deadline).
    assert scheme2.r_report.passed
    # Scheme 1 shows some violations but no time-outs.
    assert 0 < scheme1.r_report.violation_count < SAMPLES
    assert scheme1.r_report.timeout_count == 0
    # Scheme 3 is the worst: many violations and at least one MAX sample.
    assert scheme3.r_report.violation_count > scheme1.r_report.violation_count
    assert scheme3.r_report.timeout_count >= 1


def test_table1_m_segments_explain_violations(benchmark, table_one, write_artifact):
    """Every violating sample is decomposed into consistent delay segments."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # table built once per module
    lines = []
    for result in table_one.results:
        for segment in result.m_report.segments:
            if not segment.complete:
                continue
            assert segment.segments_consistent()
        lines.append(
            f"{result.label}: dominant segment = {result.m_report.dominant_segment()}"
        )
    write_artifact("table1_dominant_segments.txt", "\n".join(lines))
    # With one transition per 25 ms cycle the single-threaded scheme's latency
    # is dominated by the CODE(M) segment; interference also lands there.
    assert table_one.results[2].m_report.dominant_segment() in {"code", "input"}


def test_table1_transition_delays_match_paper_scale(benchmark, table_one, write_artifact):
    """Trans1/Trans2 delays on the uncontended schemes sit near 11 ms / 20 ms."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # table built once per module
    scheme1 = table_one.results[0].m_report
    trans1 = scheme1.mean_transition_delay_us("t_bolus_req")
    trans2 = scheme1.mean_transition_delay_us("t_start_infusion")
    write_artifact(
        "table1_transition_delays.txt",
        f"Trans1 (Idle->BolusRequested): {trans1 / 1000:.1f} ms (paper: 11 ms)\n"
        f"Trans2 (BolusRequested->Infusion): {trans2 / 1000:.1f} ms (paper: 20 ms)",
    )
    assert 7_000 <= trans1 <= 16_000
    assert 15_000 <= trans2 <= 26_000

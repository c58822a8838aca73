"""Tests of the analysis helpers (statistics, tables, figure series)."""

from functools import partial

import pytest

from repro.analysis.figures import SweepPoint, render_sweep, sweep_point
from repro.analysis.statistics import Summary, percentile, violation_rate
from repro.analysis.tables import SchemeResult, TableOne
from repro.core.r_testing import execute_r_test
from repro.gpca import bolus_request_program
from repro.systems import GPCA_PACK, generic_scheme_name


class TestStatistics:
    def test_summary_of_known_values(self):
        summary = Summary.of([10, 20, 30, 40])
        assert summary.mean == 25
        assert summary.median == 25
        assert summary.minimum == 10 and summary.maximum == 40

    def test_summary_of_empty_is_none(self):
        assert Summary.of([]) is None
        assert Summary.of([None]) is None

    def test_summary_scaling(self):
        summary = Summary.of([1000, 3000]).scaled(0.001)
        assert summary.mean == pytest.approx(2.0)

    def test_percentile_interpolation(self):
        assert percentile([0, 10], 50) == 5
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 150)

    def test_violation_rate(self):
        assert violation_rate([50, 150, None], 100) == pytest.approx(2 / 3)
        assert violation_rate([], 100) == 0.0


class TestSweep:
    def test_sweep_point_from_report(self):
        case = bolus_request_program(3).compile(1)
        report = execute_r_test(partial(GPCA_PACK.build_system, 2, seed=1), case)
        point = sweep_point(25.0, report)
        assert point.parameter == 25.0
        assert 0.0 <= point.violation_rate <= 1.0
        assert point.max_latency_ms is not None

    def test_render_sweep(self):
        points = [
            SweepPoint(parameter=10.0, violation_rate=0.0, timeout_count=0, max_latency_ms=50.0, mean_latency_ms=40.0),
            SweepPoint(parameter=50.0, violation_rate=0.4, timeout_count=1, max_latency_ms=None, mean_latency_ms=None),
        ]
        text = render_sweep(points, "period (ms)")
        assert "period (ms)" in text
        assert "40.00%" in text


class TestTableOneEdgeCases:
    def test_empty_table(self):
        table = TableOne()
        assert table.sample_count == 0
        assert table.rows() == []
        assert "TABLE I" in table.render()

    def test_scheme_without_m_report(self):
        case = bolus_request_program(2).compile(1)
        report = execute_r_test(partial(GPCA_PACK.build_system, 2, seed=1), case)
        result = SchemeResult(2, generic_scheme_name(2), report, m_report=None)
        table = TableOne([result])
        row = table.rows()[0]
        assert row["scheme2_input"] == "-"
        assert result.summary_row()["dominant_segment"] is None

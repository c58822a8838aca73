"""Tests of Markdown / CSV export of analysis artefacts."""

import csv
import io
from functools import partial

import pytest

from repro.analysis.tables import SchemeResult, TableOne
from repro.analysis.export import table_one_to_csv, table_one_to_markdown
from repro.core.m_testing import MTestAnalyzer
from repro.core.r_testing import execute_r_test
from repro.gpca.interface import build_pump_interface
from repro.gpca.requirements import req1_bolus_start
from repro.gpca.scenarios import bolus_request_program
from repro.systems import generic_scheme_name
from repro.systems.gpca import GPCA_PACK


@pytest.fixture(scope="module")
def small_table():
    table = TableOne()
    test_case = bolus_request_program(3).compile(2)
    for scheme in (1, 2):
        r_report = execute_r_test(partial(GPCA_PACK.build_system, scheme, seed=scheme), test_case)
        m_report = MTestAnalyzer(build_pump_interface(), req1_bolus_start()).analyze(
            r_report.trace, sut_name=r_report.sut_name
        )
        table.add(SchemeResult(scheme, generic_scheme_name(scheme), r_report, m_report))
    return table


class TestTableExport:
    def test_markdown_contains_all_samples_and_schemes(self, small_table):
        markdown = table_one_to_markdown(small_table)
        assert markdown.count("\n| ") >= 3  # header + 3 sample rows
        assert "Scheme 1" in markdown and "Scheme 2" in markdown
        assert markdown.startswith("###")

    def test_markdown_summary_lines(self, small_table):
        markdown = table_one_to_markdown(small_table)
        assert "R-testing PASS" in markdown or "R-testing FAIL" in markdown

    def test_csv_round_trips_through_csv_reader(self, small_table):
        text = table_one_to_csv(small_table)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3
        assert "scheme1_r" in rows[0] and "scheme2_code" in rows[0]

    def test_empty_table_csv(self):
        assert table_one_to_csv(TableOne()) == ""

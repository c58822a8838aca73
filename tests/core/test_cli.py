"""Tests of the command-line interface."""

import argparse
import json

import pytest

from repro.campaign.worker import execution_count
from repro.cli import OUTPUT_FLAGS, build_parser, main


class TestVerifyCommand:
    def test_verify_passes_on_fig2_model(self, capsys):
        assert main(["verify"]) == 0
        output = capsys.readouterr().out
        assert "REQ1" in output and "PASS" in output

    def test_verify_extended_model(self, capsys):
        assert main(["verify", "--extended"]) == 0
        assert "gpca_extended" in capsys.readouterr().out


class TestCodegenCommand:
    def test_codegen_prints_source(self, capsys):
        assert main(["codegen"]) == 0
        output = capsys.readouterr().out
        assert "gpca_fig2_step" in output

    def test_codegen_writes_file(self, tmp_path, capsys):
        target = tmp_path / "gpca.c"
        assert main(["codegen", "--output", str(target)]) == 0
        assert "switch" in target.read_text()


class TestRtestCommand:
    def test_rtest_scheme2_passes(self, capsys):
        exit_code = main(["rtest", "--scheme", "2", "--samples", "3", "--seed", "5"])
        assert exit_code == 0
        assert "R-testing report" in capsys.readouterr().out

    def test_rtest_scheme3_fails_and_writes_artifacts(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "samples.csv"
        m_json_path = tmp_path / "m_report.json"
        exit_code = main(
            [
                "rtest",
                "--scheme",
                "3",
                "--samples",
                "3",
                "--seed",
                "9",
                "--m-test",
                "--json",
                str(json_path),
                "--csv",
                str(csv_path),
                "--m-json",
                str(m_json_path),
            ]
        )
        assert exit_code == 1
        output = capsys.readouterr().out
        assert "M-testing report" in output
        payload = json.loads(json_path.read_text())
        assert payload["requirement"]["id"] == "REQ1"
        assert not payload["passed"]
        assert csv_path.read_text().startswith("sample,")
        m_payload = json.loads(m_json_path.read_text())
        assert m_payload["segments"]

    def test_m_json_without_m_test_is_a_usage_error_before_anything_runs(self, tmp_path, capsys):
        m_json_path = tmp_path / "m_report.json"
        argv = ["rtest", "--scheme", "2", "--samples", "2", "--m-json", str(m_json_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro rtest: error: --m-json needs --m-test\n"
        assert captured.out == ""
        assert not m_json_path.exists()

    def test_a_passing_run_says_why_no_m_json_was_written(self, tmp_path, capsys):
        m_json_path = tmp_path / "m_report.json"
        argv = ["rtest", "--scheme", "2", "--samples", "2", "--m-test", "--m-json", str(m_json_path)]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert output.endswith("no M-test report written: no sample violated REQ1\n")
        assert not m_json_path.exists()

    def test_rtest_requires_scheme(self):
        with pytest.raises(SystemExit):
            main(["rtest"])


class TestTable1Command:
    def test_table1_renders_and_writes(self, tmp_path, capsys):
        target = tmp_path / "table1.txt"
        exit_code = main(["table1", "--samples", "3", "--output", str(target)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "TABLE I" in output
        assert "Scheme 3" in target.read_text()


class TestRejectedValues:
    @pytest.mark.parametrize(
        "argv",
        [["rtest", "--scheme", "1", "--samples", "0"], ["table1", "--samples", "0"]],
        ids=["rtest", "table1"],
    )
    def test_a_non_positive_sample_count_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"repro {argv[0]}: error: sample count must be positive\n"

    @pytest.mark.parametrize(
        "argv",
        [["faults", "--samples", "1", "--hunt", "-1"], ["faults", "--list", "--hunt", "-1"]],
        ids=["run", "list"],
    )
    def test_a_negative_hunt_is_a_usage_error_before_anything_runs(self, argv, capsys):
        before = execution_count()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro faults: error: hunt episode count cannot be negative\n"
        assert captured.out == ""
        assert execution_count() == before


class TestUnwritableOutputPath:
    """Output files are written after the work, so a path in a directory
    that does not exist, or a directory, is a usage error caught before
    anything runs."""

    CASES = [
        ["codegen", "--output"],
        ["rtest", "--scheme", "2", "--samples", "1", "--json"],
        ["rtest", "--scheme", "2", "--samples", "1", "--csv"],
        ["rtest", "--scheme", "3", "--samples", "1", "--m-test", "--m-json"],
        ["table1", "--samples", "1", "--output"],
        ["profile", "--timeline"],
        ["campaign", "--samples", "1", "--json"],
        ["campaign", "--samples", "1", "--csv"],
        ["faults", "--samples", "1", "--json"],
        ["faults", "--samples", "1", "--csv"],
        ["systems", "--json"],
        ["explore", "--episodes", "1", "--json"],
        ["store", "diff", "--db", "runs.db", "latest", "prev", "--json"],
        ["store", "export", "--db", "runs.db", "--json"],
        ["store", "export", "--db", "runs.db", "--csv"],
        ["store", "export", "--db", "runs.db", "--table1"],
        ["store", "export", "--db", "runs.db", "--table1-csv"],
    ]

    @pytest.mark.parametrize(
        "argv", CASES, ids=lambda argv: " ".join(argv[: 2 if argv[0] == "store" else 1] + argv[-1:])
    )
    def test_a_missing_directory_is_a_usage_error_before_anything_runs(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "missing" / "out.txt"
        before = execution_count()
        assert main(argv + [str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"repro {argv[0]}: error: {argv[-1]} {target}: not a file in an existing directory\n"
        )
        assert captured.out == ""
        assert execution_count() == before
        assert list(tmp_path.iterdir()) == []

    def test_a_directory_is_a_usage_error_before_anything_runs(self, tmp_path, capsys):
        before = execution_count()
        assert main(["faults", "--samples", "1", "--json", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"repro faults: error: --json {tmp_path}: not a file in an existing directory\n"
        )
        assert captured.out == ""
        assert execution_count() == before

    def test_every_file_writing_flag_is_checked(self):
        """A new ``--flag`` whose help says it writes a file must be listed."""
        writers = set()
        pending = [build_parser()]
        while pending:
            parser = pending.pop()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    pending.extend(action.choices.values())
                elif action.option_strings and (action.help or "").startswith("write"):
                    writers.add(action.dest)
        assert writers == set(OUTPUT_FLAGS)
        checked = {argv[-1] for argv in self.CASES}
        assert checked == {"--" + dest.replace("_", "-") for dest in OUTPUT_FLAGS}


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_grid_choices_are_the_campaign_presets(self):
        from repro.campaign.spec import PRESETS
        from repro.cli import GRIDS

        assert GRIDS == PRESETS

    def test_version_prints_the_package_version(self, capsys):
        from repro.cli import package_version

        with pytest.raises(SystemExit) as exited:
            main(["--version"])
        assert exited.value.code == 0
        assert capsys.readouterr().out == f"repro {package_version()}\n"

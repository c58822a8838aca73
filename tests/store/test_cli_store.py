"""CLI coverage of ``repro --version``, ``repro campaign --store/--resume``,
``repro store ...`` and the serve plumbing."""

from __future__ import annotations

import json

import pytest

from repro import __version__
from repro.campaign.results import CampaignResult
from repro.campaign.worker import execution_count
from repro.cli import main, package_version
from repro.store import RunStore


def test_version_flag_prints_package_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert package_version() in capsys.readouterr().out


def test_package_version_matches_module_fallback():
    # Installed metadata may legitimately lag the source tree inside the dev
    # environment; both surfaces must at least be well-formed versions.
    assert package_version().count(".") >= 1
    assert __version__.count(".") >= 1


def test_campaign_store_and_resume_round_trip(tmp_path, capsys):
    db = str(tmp_path / "runs.db")
    assert main(["campaign", "--grid", "table1", "--samples", "2", "--store", db]) == 0
    cold = capsys.readouterr().out
    assert "3 run(s) executed" in cold
    assert "snapshot" in cold

    assert main(
        ["campaign", "--grid", "table1", "--samples", "2", "--store", db, "--resume"]
    ) == 0
    warm = capsys.readouterr().out
    assert "0 run(s) executed, 3 reused from store" in warm

    with RunStore(db) as store:
        assert store.counts() == {"runs": 3, "campaigns": 1}


def test_campaign_resume_requires_store(capsys):
    assert main(["campaign", "--grid", "table1", "--resume"]) == 2
    assert "--resume needs --store" in capsys.readouterr().err


def test_store_backed_campaign_leaves_a_finished_progress_snapshot(tmp_path):
    db = str(tmp_path / "runs.db")
    argv = ["campaign", "--grid", "table1", "--samples", "2", "--store", db]
    assert main(argv) == 0
    with RunStore(db) as store:
        cold = store.load_progress("table1")
    assert cold["finished"] is True
    assert (cold["completed"], cold["cached"], cold["total_runs"]) == (3, 0, 3)

    assert main([*argv, "--resume"]) == 0
    with RunStore(db) as store:
        warm = store.load_progress("table1")
    assert warm["finished"] is True
    assert (warm["completed"], warm["cached"], warm["total_runs"]) == (0, 3, 3)


def test_campaign_rejects_unusable_store_file(tmp_path, capsys):
    bogus = tmp_path / "bogus.db"
    bogus.write_text("not sqlite", encoding="utf-8")
    assert main(["campaign", "--grid", "table1", "--samples", "2", "--store", str(bogus)]) == 1
    assert "not a usable run store" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    (
        ["campaign", "--grid", "table1", "--samples", "1"],
        ["faults", "--samples", "1"],
    ),
    ids=("campaign", "faults"),
)
@pytest.mark.parametrize("where", ("missing-directory", "directory"))
def test_unopenable_store_path_is_a_clean_error_before_any_run(command, where, tmp_path, capsys):
    """A ``--store`` path SQLite cannot open is an exit-1 error line, not a traceback."""
    path = tmp_path / "missing" / "x.db" if where == "missing-directory" else tmp_path
    before = execution_count()
    assert main([*command, "--store", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"repro {command[0]}: error: {path} is not a usable run store: "
        "unable to open database file\n"
    )
    assert execution_count() == before


def test_store_list_and_runs(tmp_path, capsys):
    db = str(tmp_path / "runs.db")
    assert main(["campaign", "--grid", "table1", "--samples", "2", "--store", db]) == 0
    capsys.readouterr()

    assert main(["store", "list", "--db", db]) == 0
    listing = capsys.readouterr().out
    assert "3 stored run(s), 1 campaign snapshot(s)" in listing
    assert "table1" in listing

    assert main(["store", "runs", "--db", db, "--scheme", "2"]) == 0
    runs = capsys.readouterr().out
    assert "1 matching run(s) of 3" in runs
    assert "scheme2/bolus-request" in runs


def test_store_diff_cli_flags_regressions(tmp_path, capsys):
    db = str(tmp_path / "runs.db")
    assert main(["campaign", "--grid", "table1", "--samples", "2", "--store", db]) == 0
    capsys.readouterr()

    assert main(["store", "diff", "--db", db, "latest", "latest"]) == 0
    assert "no changes" in capsys.readouterr().out

    # Plant a regressed snapshot, then gate on it.
    with RunStore(db) as store:
        payload = json.loads(store.load_campaign(store.latest_campaign_id()).to_json())
        payload["runs"][1]["r"]["passed"] = False
        store.save_campaign(CampaignResult.from_dict(payload))

    assert main(["store", "diff", "--db", db, "prev", "latest"]) == 0
    assert "REGRESSED" in capsys.readouterr().out
    assert (
        main(["store", "diff", "--db", db, "prev", "latest", "--fail-on-regression"]) == 1
    )


def test_store_diff_unknown_snapshot_is_exit_1(tmp_path, capsys):
    db = str(tmp_path / "runs.db")
    RunStore(db).close()
    assert main(["store", "diff", "--db", db, "latest", "latest"]) == 1
    assert "cannot resolve" in capsys.readouterr().err


def test_store_export_writes_artifacts(tmp_path, capsys):
    db = str(tmp_path / "runs.db")
    assert main(["campaign", "--grid", "table1", "--samples", "2", "--store", db]) == 0
    capsys.readouterr()

    json_path = tmp_path / "campaign.json"
    csv_path = tmp_path / "summary.csv"
    table_md = tmp_path / "table1.md"
    table_csv = tmp_path / "table1.csv"
    assert (
        main(
            [
                "store",
                "export",
                "--db",
                db,
                "--json",
                str(json_path),
                "--csv",
                str(csv_path),
                "--table1",
                str(table_md),
                "--table1-csv",
                str(table_csv),
            ]
        )
        == 0
    )
    assert len(json.loads(json_path.read_text())["runs"]) == 3
    assert csv_path.read_text().startswith("index,label,scheme,")
    assert table_md.read_text().startswith("### ")
    assert table_csv.read_text().splitlines()[0].startswith("sample,")


def test_store_export_table1_of_an_unknown_case_is_exit_1(tmp_path, capsys):
    db = str(tmp_path / "runs.db")
    assert main(["campaign", "--grid", "table1", "--samples", "2", "--store", db]) == 0
    capsys.readouterr()

    json_path = tmp_path / "campaign.json"
    table_path = tmp_path / "table1.txt"
    argv = ["store", "export", "--db", db, "--case", "nope"]
    assert main([*argv, "--json", str(json_path), "--table1", str(table_path)]) == 1
    assert capsys.readouterr().err == (
        "repro store: error: no clean run at case 'nope' to build Table I from\n"
    )
    assert not table_path.exists()
    assert not json_path.exists()


@pytest.mark.parametrize("flag", ["--limit", "--offset"])
def test_store_runs_rejects_a_negative_window(tmp_path, capsys, flag):
    db = str(tmp_path / "runs.db")
    RunStore(db).close()
    assert main(["store", "runs", "--db", db, flag, "-3"]) == 2
    name = flag.lstrip("-")
    assert capsys.readouterr().err == f"repro store: error: {name} cannot be negative\n"


def _no_server(*args, **kwargs):
    raise AssertionError("repro serve started")


@pytest.mark.parametrize(
    "argv",
    [
        ["store", "list", "--db"],
        ["store", "runs", "--db"],
        ["store", "diff", "latest", "prev", "--db"],
        ["store", "export", "--db"],
        ["serve", "--port", "0", "--store"],
    ],
    ids=["store-list", "store-runs", "store-diff", "store-export", "serve"],
)
def test_read_only_commands_refuse_a_missing_store(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr("repro.store.server.StoreServer", _no_server)
    typo = tmp_path / "typo.db"
    assert main([*argv, str(typo)]) == 1
    assert f"no run store at {typo}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_serve_rejects_a_port_out_of_range(tmp_path, capsys):
    db = tmp_path / "runs.db"
    assert main(["serve", "--store", str(db), "--port", "70000"]) == 2
    assert capsys.readouterr().err == "repro serve: error: port 70000 outside 0..65535\n"
    assert not db.exists()


def test_faults_store_resume(tmp_path, capsys, monkeypatch):
    """The kill-matrix CLI shares the same persistence plumbing.

    The stock matrix is 112 runs; a two-plan, one-mutant, one-scenario matrix
    exercises the identical CLI path at test speed.
    """
    from repro.faults.matrix import FaultMatrixSpec
    from repro.faults.models import default_fault_suite
    from repro.faults.mutants import generate_mutants
    from repro.gpca.model import build_fig2_statechart

    small = FaultMatrixSpec(
        fault_plans=default_fault_suite()[:2],
        mutants=generate_mutants(build_fig2_statechart())[:1],
        cases=("bolus-request",),
        samples=1,
    )
    monkeypatch.setattr("repro.faults.matrix.default_matrix_spec", lambda **kwargs: small)

    db = str(tmp_path / "matrix.db")
    base = ["faults", "--samples", "1", "--seed", "0"]
    assert main([*base, "--store", db]) == 0
    cold = capsys.readouterr().out
    assert f"{small.size} run(s) executed" in cold
    assert main([*base, "--store", db, "--resume"]) == 0
    warm = capsys.readouterr().out
    assert f"0 run(s) executed, {small.size} reused from store" in warm


def test_faults_resume_requires_store(capsys):
    assert main(["faults", "--resume"]) == 2
    assert "--resume needs --store" in capsys.readouterr().err

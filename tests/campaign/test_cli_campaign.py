"""CLI coverage of the ``repro campaign`` sub-command."""

from __future__ import annotations

import json

from repro.cli import main


def test_campaign_table1_prints_summary_and_table(capsys):
    assert main(["campaign", "--grid", "table1", "--samples", "2"]) == 0
    output = capsys.readouterr().out
    assert "campaign 'table1': 3 runs" in output
    assert "TABLE I." in output
    assert "wall clock:" in output


def test_campaign_writes_json_and_csv(tmp_path, capsys):
    json_path = tmp_path / "campaign.json"
    csv_path = tmp_path / "campaign.csv"
    assert (
        main(
            [
                "campaign",
                "--grid",
                "table1",
                "--samples",
                "2",
                "--json",
                str(json_path),
                "--csv",
                str(csv_path),
            ]
        )
        == 0
    )
    payload = json.loads(json_path.read_text())
    assert payload["campaign"]["name"] == "table1"
    assert len(payload["runs"]) == 3
    assert all("r" in run and "spec" in run for run in payload["runs"])
    assert csv_path.read_text().startswith("index,")


def test_campaign_sweep_grid_prints_sweep_table(capsys):
    assert main(["campaign", "--grid", "periods", "--samples", "2"]) == 0
    output = capsys.readouterr().out
    assert "period (ms)" in output
    assert "violation rate" in output


def test_campaign_rejects_invalid_samples(capsys):
    assert main(["campaign", "--samples", "0"]) == 2
    assert "sample count must be positive" in capsys.readouterr().err


def test_campaign_rejects_negative_workers(capsys):
    assert main(["campaign", "--workers", "-1"]) == 2
    assert "worker count cannot be negative" in capsys.readouterr().err

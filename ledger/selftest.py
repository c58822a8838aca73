"""Tests of the benchmark itself, at reduced size (one sample per scenario,
one iteration, short request batches).

Run from the root of a checkout with either of::

    python3 ledger/selftest.py
    python3 -m pytest ledger/selftest.py -q

The file name keeps it out of the repository's own test collection: it
exercises the benchmark, not the program, and takes about a minute.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402


@contextlib.contextmanager
def reduced():
    """Shrink every workload and leg; restores the real sizes afterwards."""
    small = {name: replace(w, samples=1) for name, w in workloads.FAULT_WORKLOADS.items()}
    settings = [
        (workloads, "FAULT_WORKLOADS", small),
        (traced, "FAULT_WORKLOADS", small),
        (workloads, "SETUP_REPEATS", 1),
        (workloads, "MIN_ITERATIONS", 1),
        (workloads, "REQUESTS_PER_CHUNK", 20),
        (workloads, "REQUESTS_PER_ITERATION", 40),
        (traced, "SERVE_LEG_REQUESTS", 20),
        (traced, "TAIL_REQUESTS", 20),
        (traced, "MICRO_REPEATS", 1),
        (traced, "IMPORT_REPEATS", 1),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in settings]
    for module, name, value in settings:
        setattr(module, name, value)
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def scratch():
    """A temporary directory inside the checkout, like the benchmark's own."""
    parent = ROOT / ".ledger_work"
    parent.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=parent)


def context(tmp: Path, seed: int = 0) -> workloads.Context:
    workdir = tmp / f"work-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.Context(
        seed=seed, seconds=0.0, workdir=workdir, cache=tmp / "cache", digest="selftest",
        expectations={},
    )


def benchmark_names(section: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert benchmark_names("end_to_end") == run.END_TO_END_UNITS
    assert benchmark_names("per_layer") == traced.PER_LAYER_UNITS
    ledger_map = json.loads((HERE / "ledger.json").read_text())
    assert set(ledger_map["per_layer"]) == set(traced.PER_LAYER_UNITS)
    assert set(ledger_map["workloads"]) == set(run.WORKLOADS)


def test_every_metric_is_emitted_for_every_workload():
    with scratch() as tmp, reduced():
        for name in run.WORKLOADS:
            metrics, ledger = workloads.run_untraced(name, context(Path(tmp)))
            assert set(metrics) == set(run.END_TO_END_UNITS), name
            assert all(value > 0 for value in metrics.values()), (name, metrics)
            assert ledger.problems == [] and ledger.failed == 0, (name, ledger)
            metrics, ledger = traced.run_traced(name, context(Path(tmp)))
            assert set(metrics) == set(traced.PER_LAYER_UNITS), name
            assert ledger.problems == [] and ledger.failed == 0, (name, ledger)
            assert metrics["spans.coverage"] > 0.9, (name, metrics["spans.coverage"])


def test_failed_operations_count_bad_routes_and_cli_exits():
    with scratch() as tmp, reduced():
        ctx = context(Path(tmp))
        ledger = harness.Ledger()
        done = ledger.command(["faults", "--system", "no-such-system", "--list"], ctx.workdir)
        assert done.returncode != 0
        assert (ledger.attempted, ledger.failed) == (1, 1)

        db = ctx.workdir / "store.db"
        ledger.command(["campaign", "--grid", "table1", "--samples", "1", "--store", str(db)],
                       ctx.workdir)
        assert ledger.failed == 1
        log = harness.RequestLog()
        with harness.Server(ledger, db, ctx.workdir) as server:
            before = (ledger.attempted, ledger.failed)
            harness.serve_batch(server, log, [
                ("runs", "/runs?limit=5", False),
                ("bad", "/no-such-route", False),
                ("runs", "/runs?limit=5", True),
            ])
        assert (ledger.attempted - before[0], ledger.failed - before[1]) == (3, 1)
        assert (log.conditional, log.not_modified) == (1, 1)


def test_output_check_trips_on_a_tampered_payload():
    with scratch() as tmp:
        ctx = context(Path(tmp))
        ledger = harness.Ledger()
        db = ctx.workdir / "store.db"
        ledger.command(["campaign", "--grid", "table1", "--samples", "1", "--store", str(db)],
                       ctx.workdir)
        from repro.campaign.spec import preset_spec

        specs = preset_spec("table1", samples=1).expand()
        reference = workloads.reference_payloads(specs, ctx.cache / "table1.json")
        workloads.verify_store(ledger, db, specs, reference)
        assert ledger.problems == []

        with sqlite3.connect(db) as connection:
            row_id, r_json = connection.execute("SELECT record_id, r_json FROM runs LIMIT 1").fetchone()
            payload = json.loads(r_json)
            payload["passed"] = not payload["passed"]
            connection.execute("UPDATE runs SET r_json = ? WHERE record_id = ?",
                               (json.dumps(payload, sort_keys=True), row_id))
        workloads.verify_store(ledger, db, specs, reference)
        assert len(ledger.problems) == 1 and "differ from the seed engine" in ledger.problems[0]


def test_no_process_outlives_its_command_or_the_run():
    """A grandchild left running by a finished child is killed and reaped, and
    the resource tracker of the reference pool is stopped at the end."""
    harness.become_subreaper()
    leaver = ("import subprocess, sys; "
              "print(subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']).pid)")
    proc = harness.spawn([sys.executable, "-c", leaver], stdout=subprocess.PIPE, text=True)
    grandchild = int(proc.stdout.readline())
    proc.stdout.close()
    saved = harness.SWEEP_GRACE_S
    harness.SWEEP_GRACE_S = 0.5
    try:
        assert harness._reap(proc, 30.0)[0] == 0
    finally:
        harness.SWEEP_GRACE_S = saved
    try:
        os.kill(grandchild, 0)
        raise AssertionError(f"grandchild {grandchild} still running")
    except ProcessLookupError:
        pass

    with scratch() as tmp:
        from repro.campaign.spec import preset_spec

        specs = preset_spec("table1", samples=1).expand()[:2]
        workloads.reference_payloads(specs, Path(tmp) / "cache" / "table1.json")
    harness.stop_strays()
    assert harness.child_pids() == []


def main() -> int:
    failures = 0
    try:
        for name, test in sorted(globals().items()):
            if name.startswith("test_") and callable(test):
                try:
                    test()
                    print(f"PASS {name}")
                except Exception as error:  # report every test, then fail
                    failures += 1
                    print(f"FAIL {name}: {error!r}")
    finally:
        harness.stop_strays()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

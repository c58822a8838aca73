#!/usr/bin/env python3
"""Persistent store end to end: run, resume, diff, serve, query.

Walks the full lifecycle of the persistence layer in a temporary directory:

1. run the Table I campaign cold with a :class:`RunStore` attached — every
   record and a campaign snapshot land in SQLite;
2. resume the identical grid — zero runs execute, the aggregate is
   byte-identical, and the wall-clock collapses (the same effect as
   ``repro campaign --store runs.db --resume`` on the command line);
3. diff the snapshot against itself (``repro store diff``) — clean;
4. start the ``repro serve`` HTTP API on an ephemeral port and query
   ``/healthz``, ``/table1`` and the ETag-conditional path like a dashboard
   would.

Run with:  python examples/store_serve.py
"""

from __future__ import annotations

import json
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import table_one_spec
from repro.store import RunStore, StoreServer
from repro.store.diff import diff_snapshots


def main() -> None:
    spec = table_one_spec(samples=4)
    with tempfile.TemporaryDirectory() as scratch:
        store = RunStore(Path(scratch) / "runs.db")

        print(f"cold: executing the {spec.name!r} grid ({spec.size} runs) ...")
        started = time.perf_counter()
        cold_runner = CampaignRunner(spec, store=store)
        cold = cold_runner.run()
        cold_s = time.perf_counter() - started
        print(f"  {cold_runner.executed_count} runs executed in {cold_s:.2f} s; "
              f"snapshot {cold_runner.campaign_id}")

        print("warm: resuming the identical grid from the store ...")
        started = time.perf_counter()
        warm_runner = CampaignRunner(spec, store=store, resume=True)
        warm = warm_runner.run()
        warm_s = time.perf_counter() - started
        print(f"  {warm_runner.executed_count} runs executed, "
              f"{warm_runner.reused_count} reused in {warm_s:.4f} s "
              f"({cold_s / warm_s:.0f}x)")
        print(f"  aggregates byte-identical: {warm.to_json() == cold.to_json()}")

        diff = diff_snapshots(store, "latest", "latest")
        print(f"diff latest vs latest: clean={diff.clean}")

        with StoreServer(store) as server:
            print(f"serving on {server.url}")
            with urllib.request.urlopen(server.url + "/healthz") as response:
                print(f"  GET /healthz -> {json.loads(response.read())}")
            with urllib.request.urlopen(server.url + "/table1") as response:
                payload = json.loads(response.read())
                etag = response.headers["ETag"]
            for row in payload["schemes"]:
                print(f"  GET /table1 -> {row['label']}: "
                      f"{'PASS' if row['passed'] else 'FAIL'} "
                      f"({row['violations']} violations)")
            conditional = urllib.request.Request(
                server.url + "/table1", headers={"If-None-Match": etag}
            )
            try:
                urllib.request.urlopen(conditional)
                print("  conditional GET unexpectedly returned a body")
            except urllib.error.HTTPError as error:
                print(f"  conditional GET /table1 -> {error.code} (cache hit)")
        store.close()


if __name__ == "__main__":
    main()

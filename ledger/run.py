"""Layer ledger: one benchmark for the commands users run and the layer each
spends its time in.

Usage, from the root of a checkout::

    python3 ledger/run.py --workload faults-gpca --seed 0 --seconds 20 --trace 0

Self-tests of the benchmark, at reduced size: ``python3 ledger/selftest.py``.

``--trace 0`` drives the workload through the real ``repro`` CLI in child
processes and prints every end-to-end metric.  ``--trace 1`` runs the same
workload's specs in-process with spans around each layer's public calls,
engine counters, micro legs for the kernel and the RTOS scheduler, and a
cProfile pass, and prints every per-layer metric.  Either way the last line
of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

``correct`` is false when any stored run's R or M payload differs from the
frozen seed engine's, when a warm ``--resume`` executes a run, or when the
default seed misses the kill-matrix outcomes pinned in ``ledger.json``; the
process then exits 1.  ``ledger.json`` also holds the interaction map (which
end-to-end metric each per-layer metric should move, on which workload) and
the first measured baseline.

Out of scope here, left for later changes: porting the nine older
``benchmarks/bench_*.py`` producers onto this harness, refreshing the stale
``BENCH_faults.json`` / ``BENCH_campaign.json`` records, CI wiring, and spans
inside the program (every span here wraps a public call from outside).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("faults-gpca", "packs-parallel")

END_TO_END_UNITS = {
    "setup_s": "s",
    "runs_per_s": "runs/s",
    "run_p50_ms": "ms",
    "run_p90_ms": "ms",
    "resume_s": "s",
    "ingest_s": "s",
    "serve_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"ledger: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from harness import become_subreaper, stop_strays

    become_subreaper()
    # A terminated benchmark still stops its children: see the finally below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return measure(args)
    finally:
        stop_strays()


def measure(args: argparse.Namespace) -> int:
    from reference import source_digest
    from workloads import Context

    spec = json.loads((HERE / "ledger.json").read_text())
    workdir = ROOT / ".ledger_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        workdir=workdir,
        cache=ROOT / ".ledger_cache",
        digest=source_digest(ROOT / "src"),
        expectations=spec["expectations"],
    )
    if args.trace:
        from traced import PER_LAYER_UNITS, run_traced

        values, ledger = run_traced(args.workload, ctx)
        units = PER_LAYER_UNITS
    else:
        from workloads import run_untraced

        values, ledger = run_untraced(args.workload, ctx)
        units = END_TO_END_UNITS
    for problem in ledger.problems:
        print(f"ledger: INCORRECT: {problem}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{name:<36} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 1 if ledger.problems else 0


if __name__ == "__main__":
    sys.exit(main())

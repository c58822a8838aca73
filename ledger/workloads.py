"""The two workloads, driven through the real ``repro`` CLI (tracing off).

Each workload is a closed loop in one benchmark process: the next command
starts only after the previous one finished, and no command uses more than
``nproc`` = 2 worker processes.  Every workload reports every end-to-end
metric; ``ledger.json`` says what each one means per workload and which are
predicted not to move.
"""

from __future__ import annotations

import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from harness import Ledger, RequestLog, Server, median, quantile, request_mix, runs_executed, serve_batch
from reference import check_store, reference_groups, reference_payloads

#: Set-up is repeated this often per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: A run makes at least this many measured iterations, however short ``--seconds``.
MIN_ITERATIONS = 3
#: Warm resumes after each kill matrix on the faults workloads.
RESUMES_PER_ITERATION = 3
#: Requests per serving chunk.
REQUESTS_PER_CHUNK = 1000
#: Requests after each faults iteration: two chunks, so a run has at least six.
REQUESTS_PER_ITERATION = 2 * REQUESTS_PER_CHUNK


@dataclass(frozen=True)
class FaultsWorkload:
    systems: Tuple[str, ...]
    samples: int
    workers: int


FAULT_WORKLOADS = {
    "faults-gpca": FaultsWorkload(("gpca",), samples=3, workers=1),
    "packs-parallel": FaultsWorkload(("pacemaker", "cruise"), samples=6, workers=2),
}

_SNAPSHOT = re.compile(r"snapshot (\w+) saved")
_SCORE = re.compile(r"mutation score: (\d+/\d+)")
_DETECTED = re.compile(r"fault classes detected: (\d+/\d+)")


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: Path
    cache: Path
    digest: str
    expectations: dict


def matrix_reference(ctx: Context, system: str, samples: int, seed: int):
    """(specs, seed-engine reference) of one system's kill matrix."""
    from repro.faults import default_matrix_spec

    specs = default_matrix_spec(samples=samples, base_seed=seed, system=system).expand()
    cache_file = ctx.cache / f"{ctx.digest}-faults-{system}-s{samples}-seed{seed}.json"
    return specs, reference_payloads(specs, cache_file)


def table1_references(ctx: Context, case_seeds):
    """(specs, seed-engine reference) of the table1 write at each case seed."""
    from repro.campaign.spec import preset_spec

    specs = [preset_spec("table1", seed=seed).expand() for seed in case_seeds]
    files = [ctx.cache / f"{ctx.digest}-table1-seed{seed}.json" for seed in case_seeds]
    return list(zip(specs, reference_groups(list(zip(specs, files)))))


def first_case(system: str) -> str:
    from repro.systems import get_pack

    return sorted(get_pack(system).case_builders)[0]


def faults_args(system: str, workload: FaultsWorkload, seed: int) -> List[str]:
    return [
        "faults", "--system", system, "--samples", str(workload.samples),
        "--seed", str(seed), "--workers", str(workload.workers),
    ]


def verify_store(ledger: Ledger, db: Path, specs, reference) -> None:
    """Check every run of ``specs`` in ``db`` against the seed engine."""
    missing, mismatches = check_store(db, specs, reference)
    ledger.attempted += len(specs)
    ledger.failed += missing
    if mismatches:
        ledger.problems.append(
            f"{db.name}: {len(mismatches)} run(s) differ from the seed engine, e.g. {mismatches[0]}"
        )


def run_times_ms(db: Path, specs) -> List[float]:
    """The persisted per-run wall times of ``specs`` in ``db``, in ms."""
    from repro.store import RunStore
    from repro.store.keys import run_key

    wanted = {run_key(spec) for spec in specs}
    with RunStore(db) as store:
        return [
            row["timing"]["elapsed_s"] * 1000.0
            for row in store.run_rows()
            if row["coordinate"] in wanted and "timing" in row
        ]


def check_resume(ledger: Ledger, done, what: str) -> None:
    executed = runs_executed(done.output)
    if done.returncode == 0 and executed != 0:
        ledger.problems.append(f"warm resume of {what} executed {executed} run(s), expected 0")


def check_expectations(ctx: Context, ledger: Ledger, system: str, output: str) -> None:
    """Pinned kill-matrix outcomes at the default seed (see ledger.json)."""
    pinned = ctx.expectations.get(system)
    if pinned is None or ctx.seed != pinned["seed"]:
        return
    for label, pattern in (("mutation_score", _SCORE), ("fault_classes_detected", _DETECTED)):
        match = pattern.search(output)
        found = None if match is None else match.group(1)
        if found != pinned[label]:
            ledger.problems.append(f"{system} {label} {found}, pinned {pinned[label]}")


class Chunks:
    """Per-chunk values of the end-to-end metrics; a run reports their medians.

    A chunk is one iteration of a workload (its commands and its stores' run
    timings), or 1,000 requests.
    """

    def __init__(self) -> None:
        self.values: Dict[str, List[float]] = {}

    def add(self, **values: float) -> None:
        for name, value in values.items():
            self.values.setdefault(name, []).append(value)

    def serving(self, log: RequestLog, first: int) -> None:
        """Split the requests ``log`` gained since index ``first`` into chunks."""
        latencies = log.latencies_s
        for start in range(first, len(latencies), REQUESTS_PER_CHUNK):
            batch = latencies[start:start + REQUESTS_PER_CHUNK]
            self.add(serve_p50_ms=median(batch) * 1000.0)

    def runs(self, run_ms: List[float]) -> None:
        if run_ms:  # a failed command stored none; it is counted as failed
            self.add(run_p50_ms=median(run_ms), run_p90_ms=quantile(run_ms, 0.9))

    def settled(self) -> Dict[str, float]:
        return {name: median(values) for name, values in self.values.items()}


def run_faults(name: str, ctx: Context) -> Tuple[Dict[str, float], Ledger]:
    """The workload's kill matrix into fresh stores, resumed and served."""
    workload = FAULT_WORKLOADS[name]
    ledger = Ledger()
    setup = []
    for _ in range(SETUP_REPEATS):
        setup.append(sum(
            ledger.command([*faults_args(system, workload, ctx.seed), "--list"], ctx.workdir).wall_s
            for system in workload.systems
        ))
    references = {
        system: matrix_reference(ctx, system, workload.samples, ctx.seed)
        for system in workload.systems
    }

    chunks = Chunks()
    log = RequestLog()
    started = time.perf_counter()
    iteration = 0
    while iteration < MIN_ITERATIONS or time.perf_counter() - started < ctx.seconds:
        wall = 0.0
        resume_walls = [0.0] * RESUMES_PER_ITERATION
        executed = 0
        run_ms: List[float] = []
        for system in workload.systems:
            db = ctx.workdir / f"{system}-{iteration}.db"
            args = [*faults_args(system, workload, ctx.seed), "--store", str(db)]
            done = ledger.command(args, ctx.workdir)
            wall += done.wall_s
            executed += runs_executed(done.output) or 0
            check_expectations(ctx, ledger, system, done.output)
            match = _SNAPSHOT.search(done.output)
            campaign_id = match.group(1) if match else ""
            for attempt in range(RESUMES_PER_ITERATION):
                again = ledger.command([*args, "--resume"], ctx.workdir)
                resume_walls[attempt] += again.wall_s
                check_resume(ledger, again, db.name)
            specs, reference = references[system]
            verify_store(ledger, db, specs, reference)
            run_ms.extend(run_times_ms(db, specs))
        chunks.add(runs_per_s=executed / wall, ingest_s=wall, resume_s=median(resume_walls))
        chunks.runs(run_ms)
        first = len(log.latencies_s)
        with Server(ledger, db, ctx.workdir) as server:
            mix = request_mix(campaign_id, "kill-matrix", system, first_case(system),
                              len(specs), REQUESTS_PER_ITERATION)
            serve_batch(server, log, mix)
        chunks.serving(log, first)
        iteration += 1
    return {"setup_s": median(setup), **chunks.settled()}, ledger


def run_untraced(name: str, ctx: Context) -> Tuple[Dict[str, float], Ledger]:
    metrics, ledger = run_faults(name, ctx)
    metrics["peak_rss_mb"] = ledger.peak_rss_kb / 1024.0
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    return metrics, ledger

"""The traced run: per-layer numbers for one workload, measured in-process.

The workload's run specs execute through the public
``repro.campaign.worker.execute_run`` three times:

1. untraced, for the overhead base, and
2. with spans wrapped around the public calls each layer exposes (the
   benchmark patches module attributes around each traced run and restores
   them after; no source file changes), plus the engine's public counters
   read off every built system -- the two interleaved spec by spec;
3. under cProfile, on every other spec, grouped by module into layer shares.

The first two passes must produce identical R/M payloads, and both must equal
the frozen seed engine's.  Kernel, RTOS, devices, integration and the CODE(M)
runtime all run inside ``Simulator.run_until``, so spans cannot split them:
the exact counters times the micro legs' cost per unit, and the cProfile
shares, do.  Store, serving, IPC and CLI-import legs then exercise the
remaining layers on the same records.  Spans are kept in memory and written
to ``.ledger_out/`` at the end.
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import json
import pickle
import pstats
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from harness import ROOT, Ledger, RequestLog, Server, child_env, median, quantile, request_mix, serve_batch
from workloads import (
    FAULT_WORKLOADS,
    Context,
    first_case,
    matrix_reference,
    table1_references,
)

#: Requests the in-process serving leg sends.
SERVE_LEG_REQUESTS = 300
#: Requests sent to a ``repro serve`` child for the client-side tail (p99 has
#: 10 samples beyond it).
TAIL_REQUESTS = 1000
#: Timed repeats of each micro leg (after two untimed identity checks).
MICRO_REPEATS = 5
#: Fresh-interpreter starts per side of the CLI-import leg.
IMPORT_REPEATS = 5

PER_LAYER_UNITS = {
    "kernel.events": "count",
    "kernel.cancellations": "count",
    "kernel.events_per_trace_event": "ratio",
    "kernel.storm_ns_per_event": "ns",
    "kernel.profile_share": "share",
    "rtos.activations": "count",
    "rtos.dispatch_rounds": "count",
    "rtos.preemptions": "count",
    "rtos.deadline_misses": "count",
    "rtos.activations_per_trace_event": "ratio",
    "rtos.ns_per_activation": "ns",
    "rtos.profile_share": "share",
    "devices.profile_share": "share",
    "integration.build_ms": "ms",
    "integration.profile_share": "share",
    "codegen.artifacts_s": "s",
    "codegen.generations": "count",
    "codegen.profile_share": "share",
    "sim.run_ms_p50": "ms",
    "sim.run_ms_p90": "ms",
    "sim.us_per_kernel_event": "us",
    "sim.sim_s_per_host_s": "ratio",
    "core.oracle_ms": "ms",
    "core.mtest_ms": "ms",
    "core.serialize_ms": "ms",
    "campaign.run_ms_p50": "ms",
    "campaign.run_ms_p90": "ms",
    "campaign.ipc_bytes_per_run": "bytes",
    "campaign.ipc_ms_per_run": "ms",
    "store.put_ms_per_run": "ms",
    "store.lookup_us": "us",
    "store.save_campaign_ms": "ms",
    "store.load_campaign_ms": "ms",
    "store.db_kb": "KB",
    "server.runs_p50_ms": "ms",
    "server.campaigns_p50_ms": "ms",
    "server.table1_p50_ms": "ms",
    "server.metrics_p50_ms": "ms",
    "server.progress_p50_ms": "ms",
    "server.client_p90_ms": "ms",
    "server.client_p99_ms": "ms",
    "server.not_modified_frac": "ratio",
    "cli.import_s": "s",
    "trace.overhead": "ratio",
    "spans.coverage": "share",
}

#: Source path fragments -> layer, first match wins (cProfile grouping).
LAYER_PATHS = (
    ("repro/platform/kernel/", "kernel"),
    ("repro/platform/rtos/", "rtos"),
    ("repro/platform/devices/", "devices"),
    ("repro/platform/environment.py", "devices"),
    ("repro/gpca/hardware.py", "devices"),
    ("repro/systems/platform.py", "devices"),
    ("repro/integration/", "integration"),
    ("repro/systems/", "integration"),
    ("repro/gpca/", "integration"),
    ("repro/codegen/", "codegen"),
    ("repro/core/", "core"),
    ("repro/campaign/", "campaign"),
    ("repro/faults/", "faults"),
    ("repro/store/", "store"),
    ("repro/obs/", "obs"),
)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory spans: ``[name, start, end, parent index]`` rows."""

    def __init__(self) -> None:
        self.rows: List[list] = []
        self._stack: List[int] = []

    def wrap(self, name: str, function, after=None):
        rows, stack, clock = self.rows, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(rows)
            rows.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                rows[index][2] = clock()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def durations(self, name: str) -> List[float]:
        return [end - start for span, start, end, _ in self.rows if span == name]

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        totals: Dict[str, float] = {}
        for name, start, end, parent in self.rows:
            totals[name] = totals.get(name, 0.0) + (end - start)
            if parent >= 0:
                parent_name = self.rows[parent][0]
                totals[parent_name] = totals.get(parent_name, 0.0) - (end - start)
        return totals


@dataclasses.dataclass
class Counters:
    """Engine counters summed over every simulated system of a pass."""

    values: Dict[str, int] = dataclasses.field(default_factory=dict)
    trace_events: int = 0
    sim_us: int = 0

    def add(self, system) -> None:
        for name, value in system.telemetry_snapshot().items():
            self.values[name] = self.values.get(name, 0) + int(value)
        self.trace_events += len(system.trace)
        self.sim_us += system.bundle.simulator.now


@contextlib.contextmanager
def patched(spans: Spans, counters: Counters):
    """Wrap each layer's public entry points in spans for one pass."""
    from repro.campaign import worker
    from repro.core import r_testing
    from repro.core.m_testing import MTestAnalyzer
    from repro.integration.base import ImplementedSystem

    packs: Dict[str, object] = {}

    def traced_pack(system_id):
        if system_id not in packs:
            pack = original_get_pack(system_id)
            packs[system_id] = dataclasses.replace(
                pack, build_system=spans.wrap("integration.build", pack.build_system)
            )
        return packs[system_id]

    class TracedCache:
        def __init__(self, cache) -> None:
            self.artifacts_for_model = spans.wrap("codegen.artifacts", cache.artifacts_for_model)
            self.artifacts_for_mutant = spans.wrap("codegen.artifacts", cache.artifacts_for_mutant)

    original_get_pack = worker.get_pack
    original_cache = worker.process_cache
    replacements = [
        (worker, "get_pack", traced_pack),
        (worker, "process_cache", lambda: TracedCache(original_cache())),
        (worker, "execute_r_test", spans.wrap("core.r_test", worker.execute_r_test)),
        (worker, "r_report_to_dict", spans.wrap("core.serialize", worker.r_report_to_dict)),
        (worker, "m_report_to_dict", spans.wrap("core.serialize", worker.m_report_to_dict)),
        (r_testing, "evaluate_r_trace", spans.wrap("core.oracle", r_testing.evaluate_r_trace)),
        (MTestAnalyzer, "analyze", spans.wrap("core.mtest", MTestAnalyzer.analyze)),
        (MTestAnalyzer, "analyze_violations",
         spans.wrap("core.mtest", MTestAnalyzer.analyze_violations)),
        (ImplementedSystem, "run",
         spans.wrap("sim.run", ImplementedSystem.run, after=lambda args, _: counters.add(args[0]))),
    ]
    saved = [(owner, name, getattr(owner, name), value) for owner, name, value in replacements]
    for owner, name, _, value in saved:
        setattr(owner, name, value)
    try:
        yield
    finally:
        for owner, name, original, _ in saved:
            setattr(owner, name, original)


def payloads(records) -> List[Tuple[dict, object]]:
    return [(record.r_payload, record.m_payload) for record in records]


def normalised(pairs) -> list:
    return json.loads(json.dumps(pairs, sort_keys=True))


# ----------------------------------------------------------------------
# Micro legs: the kernel and the RTOS scheduler through their public APIs
# ----------------------------------------------------------------------
def kernel_storm() -> Tuple[int, int, int, int]:
    """Mixed one-shot chains, periodic sampling and cancellations, to 60 ms.

    Returns ``(events, now, cancellations, order digest)`` — the dispatch
    outcome every repeat must reproduce exactly.
    """
    from repro.platform.kernel import Simulator

    simulator = Simulator()
    rng = random.Random(20140324)
    # Draws are made up front so the callbacks cost little beside the kernel.
    delays = [rng.choice((0, 0, 1, 10, 250)) for _ in range(4096)]
    priorities = [rng.randrange(-2, 3) for _ in range(4096)]
    digest = [0]
    pending = []

    def chain(tag):
        def fire():
            count = len(pending)
            digest[0] = (digest[0] * 1_000_003 + tag) & 0xFFFFFFFF
            pending.append(simulator.schedule(
                delays[count & 4095], fire, priority=priorities[count & 4095]
            ))
            if count % 97 == 0:
                pending[(count * 31) % len(pending)].cancel()
        return fire

    def sample(tag):
        def fire():
            digest[0] = (digest[0] * 1_000_003 + tag) & 0xFFFFFFFF
        return fire

    for tag in range(48):
        simulator.schedule(rng.randrange(500), chain(tag), priority=rng.randrange(-2, 3))
    for tag in range(24):
        simulator.schedule_periodic(tag % 7, (20, 50, 100)[tag % 3], sample(1000 + tag))
    simulator.run_until(60_000)
    counters = simulator.counters()
    return (counters["kernel_events_processed"], simulator.now,
            counters["kernel_cancellations"], digest[0])


def rtos_set() -> Tuple[dict, int]:
    """Six periodic Compute-only tasks (rate-monotonic, preemptive) for 4 s.

    Returns the scheduler's lifetime counters and the kernel event count.
    """
    from repro.platform.kernel import Simulator
    from repro.platform.rtos import Compute, RTOSScheduler

    simulator = Simulator()
    scheduler = RTOSScheduler(simulator, context_switch_us=5)
    for index, (period_us, cost_us) in enumerate(
        ((1_000, 150), (2_000, 300), (5_000, 700), (10_000, 1_200), (20_000, 2_500), (50_000, 4_000))
    ):
        def job(cost_us=cost_us):
            yield Compute(cost_us // 2)
            yield Compute(cost_us - cost_us // 2)

        scheduler.create_task(f"t{index}", 10 - index, job, period_us=period_us,
                              offset_us=index * 37)
    scheduler.start()
    simulator.run_until(4_000_000)
    return scheduler.scheduler_stats(), simulator.counters()["kernel_events_processed"]


def micro_leg(function) -> Tuple[float, object]:
    """Median seconds of ``function``; identical outcomes asserted first."""
    outcome = function()
    if function() != outcome:
        raise AssertionError(f"{function.__name__}: dispatch outcome differs across repeats")
    times = []
    for _ in range(MICRO_REPEATS):
        started = time.perf_counter()
        again = function()
        times.append(time.perf_counter() - started)
        if again != outcome:
            raise AssertionError(f"{function.__name__}: dispatch outcome differs across repeats")
    return median(times), outcome


# ----------------------------------------------------------------------
# cProfile grouping
# ----------------------------------------------------------------------
def layer_of(function_key) -> str:
    path = function_key[0].replace("\\", "/")
    for fragment, layer in LAYER_PATHS:
        if fragment in path:
            return layer
    return "other"


def profile_shares(profile: cProfile.Profile) -> Dict[str, float]:
    """Self time per layer as shares; built-ins count toward their callers
    (``heapq`` toward the kernel, which is its only user on the hot path)."""
    totals: Dict[str, float] = {}
    for key, (_, _, tottime, _, callers) in pstats.Stats(profile).stats.items():
        if key[0] != "~":
            shares = {layer_of(key): 1.0}
        elif "_heapq" in key[2]:
            shares = {"kernel": 1.0}
        else:
            caller_time = sum(entry[2] for entry in callers.values())
            shares = {}
            for caller, entry in callers.items():
                layer = layer_of(caller)
                weight = entry[2] / caller_time if caller_time else 1.0 / len(callers)
                shares[layer] = shares.get(layer, 0.0) + weight
            shares = shares or {"other": 1.0}
        for layer, weight in shares.items():
            totals[layer] = totals.get(layer, 0.0) + tottime * weight
    whole = sum(totals.values()) or 1.0
    return {layer: value / whole for layer, value in totals.items()}


# ----------------------------------------------------------------------
# Legs over the layers outside the simulation
# ----------------------------------------------------------------------
def cold_codegen(specs) -> Tuple[float, int]:
    """Seconds and generations for a cold artifact cache over ``specs``."""
    from repro.campaign.cache import ArtifactCache

    cache = ArtifactCache()
    started = time.perf_counter()
    for spec in specs:
        if spec.mutant is not None:
            cache.artifacts_for_mutant(spec.model, spec.mutant)
        else:
            cache.artifacts_for_model(spec.model)
    return time.perf_counter() - started, cache.generation_count


def ipc_leg(specs, records) -> Tuple[float, float]:
    """Bytes and ms per run of the pool's pickle round trip (shards out, records back)."""
    from repro.campaign.runner import shard_grid

    shards = shard_grid(specs, 2)
    times = []
    for _ in range(MICRO_REPEATS):
        started = time.perf_counter()
        size = 0
        for shard in shards:
            blob = pickle.dumps(shard)
            size += len(blob)
            pickle.loads(blob)
        blob = pickle.dumps(records)
        size += len(blob)
        pickle.loads(blob)
        times.append(time.perf_counter() - started)
    return size / len(specs), median(times) * 1000.0 / len(specs)


def store_legs(ctx: Context, spans: Spans, campaign_spec, records) -> Tuple[Path, str]:
    """Put, look up, snapshot and reload the records in a fresh store."""
    from repro.campaign.results import CampaignResult
    from repro.obs import CampaignProgress
    from repro.store import RunStore
    from repro.store.keys import run_key

    db = ctx.workdir / "traced.db"
    with RunStore(db) as store:
        spans.wrap("store.put_records", store.put_records)(records)
        lookup = spans.wrap("store.lookup", store.lookup)
        for record in records:
            lookup(record.spec)
        grid = {run_key(spec) for spec in campaign_spec.expand()}
        snapshot = [record for record in records if run_key(record.spec) in grid]
        result = CampaignResult(spec=campaign_spec, records=snapshot, workers=1, wall_seconds=1.0)
        campaign_id = spans.wrap("store.save_campaign", store.save_campaign)(result)
        loaded = spans.wrap("store.load_campaign", store.load_campaign)(campaign_id)
        if loaded.to_json() != result.to_json():
            raise AssertionError("store round trip changed the campaign aggregate")
        progress = CampaignProgress(campaign_spec.name, len(records), workers=1)
        progress.record_started(len(records))
        progress.record_completed(len(records))
        progress.finish()
        store.save_progress(progress.snapshot())
    return db, campaign_id


def serve_leg(ledger: Ledger, spans: Spans, db: Path, campaign_id: str, name: str,
              system: str, total: int) -> Tuple[Dict[str, float], float]:
    """In-process ``StoreServer`` with a span on ``respond`` per route."""
    import http.client

    from repro.store import RunStore, StoreServer
    from repro.store.server import StoreHTTPServer

    route_of: Dict[str, str] = {}
    timings: Dict[str, List[float]] = {}
    original = StoreHTTPServer.respond

    def respond(self, path, query):
        started = time.perf_counter()
        try:
            return original(self, path, query)
        finally:
            route = route_of.get(path, "other")
            timings.setdefault(route, []).append(time.perf_counter() - started)

    mix = request_mix(campaign_id, name, system, first_case(system), total, SERVE_LEG_REQUESTS)
    for route, path, _ in mix:
        route_of[path.split("?")[0]] = route
    StoreHTTPServer.respond = respond
    conditional = not_modified = 0
    try:
        with RunStore(db) as store, StoreServer(store) as server:
            etags: Dict[str, str] = {}
            for _, path, is_conditional in mix:
                headers = {"Connection": "close"}
                if is_conditional and path in etags:
                    headers["If-None-Match"] = etags[path]
                connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
                connection.request("GET", path, headers=headers)
                response = connection.getresponse()
                response.read()
                connection.close()
                ledger.attempted += 1
                if response.status not in (200, 304):
                    ledger.failed += 1
                etags[path] = response.getheader("ETag") or etags.get(path, "")
                if "If-None-Match" in headers:
                    conditional += 1
                    not_modified += response.status == 304
    finally:
        StoreHTTPServer.respond = original
    return {route: median(values) * 1000.0 for route, values in timings.items()}, (
        not_modified / max(conditional, 1)
    )


def client_tail_ms(ledger: Ledger, ctx: Context, db: Path, campaign_id: str, name: str,
                   system: str, total: int) -> Tuple[float, float]:
    """Client-side p90 and p99 of requests to a ``repro serve`` child."""
    log = RequestLog()
    mix = request_mix(campaign_id, name, system, first_case(system), total, TAIL_REQUESTS)
    with Server(ledger, db, ctx.workdir) as server:
        serve_batch(server, log, mix)
    return quantile(log.latencies_s, 0.9) * 1000.0, quantile(log.latencies_s, 0.99) * 1000.0


def cli_import_s() -> float:
    """``import repro.cli`` in a fresh interpreter, minus a bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        for argv, sink in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import repro.cli"], full)):
            started = time.perf_counter()
            subprocess.run(argv, env=child_env(), cwd=ROOT, check=True)
            sink.append(time.perf_counter() - started)
    return median(full) - median(bare)


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def workload_specs(name: str, ctx: Context):
    """(campaign spec, run specs, seed-engine reference)."""
    from repro.faults import default_matrix_spec

    workload = FAULT_WORKLOADS[name]
    specs, reference = [], {}
    for system in workload.systems:
        system_specs, system_ref = matrix_reference(ctx, system, workload.samples, ctx.seed)
        specs.extend(system_specs)
        reference.update(system_ref)
    campaign = default_matrix_spec(
        samples=workload.samples, base_seed=ctx.seed, system=workload.systems[-1]
    )
    return campaign, specs, reference


def run_traced(name: str, ctx: Context) -> Tuple[Dict[str, float], Ledger]:
    from repro.campaign.worker import execute_run
    from repro.store.keys import run_key

    ledger = Ledger()
    campaign_spec, specs, reference = workload_specs(name, ctx)
    artifacts_s, generations = cold_codegen(specs)
    for spec in specs:  # warm the process cache: later passes time runs, not codegen
        execute_run(spec)

    # Untraced and traced executions interleave spec by spec, so host noise
    # lands on both sides of the overhead ratio alike.
    spans, counters = Spans(), Counters()
    traced_run = spans.wrap("campaign.execute_run", execute_run)
    plain, records = [], []
    plain_s = traced_s = 0.0
    for spec in specs:
        started = time.perf_counter()
        plain.append(execute_run(spec))
        plain_s += time.perf_counter() - started
        with patched(spans, counters):
            started = time.perf_counter()
            records.append(traced_run(spec))
            traced_s += time.perf_counter() - started

    ledger.attempted += len(specs)
    expected = normalised([reference[run_key(spec)] for spec in specs])
    if normalised(payloads(records)) != normalised(payloads(plain)):
        ledger.problems.append("traced pass payloads differ from the untraced pass")
    if normalised(payloads(records)) != expected:
        ledger.problems.append("traced pass payloads differ from the seed engine")

    analysis = spans
    if not spans.durations("core.mtest"):
        # The kill matrix runs no M-testing; time the analyzer on table1 writes.
        analysis = Spans()
        [(table_specs, _)] = table1_references(ctx, [ctx.seed])
        with patched(analysis, Counters()):
            for spec in table_specs:
                execute_run(spec)

    profile = cProfile.Profile()
    profile.enable()
    for spec in specs[::2]:
        execute_run(spec)
    profile.disable()
    shares = profile_shares(profile)

    storm_s, (storm_events, _, _, _) = micro_leg(kernel_storm)
    rtos_s, (rtos_stats, rtos_events) = micro_leg(rtos_set)
    kernel_s_per_event = storm_s / storm_events
    # The RTOS leg drives the kernel too; its per-activation cost excludes that.
    rtos_s_per_activation = (
        rtos_s - rtos_events * kernel_s_per_event
    ) / rtos_stats["scheduler_activations"]

    ipc_bytes, ipc_ms = ipc_leg(specs, records)
    db, campaign_id = store_legs(ctx, spans, campaign_spec, records)
    system = FAULT_WORKLOADS[name].systems[-1]
    route_ms, not_modified = serve_leg(
        ledger, spans, db, campaign_id, campaign_spec.name, system, len(records)
    )

    client_p90, client_p99 = client_tail_ms(
        ledger, ctx, db, campaign_id, campaign_spec.name, system, len(records)
    )

    values = counters.values
    trace_events = max(counters.trace_events, 1)
    sim_runs = spans.durations("sim.run")
    run_times = spans.durations("campaign.execute_run")
    self_times = spans.self_times()
    execute_total = sum(run_times)
    lookups = spans.durations("store.lookup")
    metrics = {
        "kernel.events": values.get("kernel_events_processed", 0),
        "kernel.cancellations": values.get("kernel_cancellations", 0),
        "kernel.events_per_trace_event": values.get("kernel_events_processed", 0) / trace_events,
        "kernel.storm_ns_per_event": kernel_s_per_event * 1e9,
        "kernel.profile_share": shares.get("kernel", 0.0),
        "rtos.activations": values.get("scheduler_activations", 0),
        "rtos.dispatch_rounds": values.get("scheduler_dispatch_rounds", 0),
        "rtos.preemptions": values.get("scheduler_preemptions", 0),
        "rtos.deadline_misses": values.get("scheduler_deadline_misses", 0),
        "rtos.activations_per_trace_event": values.get("scheduler_activations", 0) / trace_events,
        "rtos.ns_per_activation": rtos_s_per_activation * 1e9,
        "rtos.profile_share": shares.get("rtos", 0.0),
        "devices.profile_share": shares.get("devices", 0.0),
        "integration.build_ms": median(spans.durations("integration.build")) * 1000.0,
        "integration.profile_share": shares.get("integration", 0.0),
        "codegen.artifacts_s": artifacts_s,
        "codegen.generations": generations,
        "codegen.profile_share": shares.get("codegen", 0.0),
        "sim.run_ms_p50": median(sim_runs) * 1000.0,
        "sim.run_ms_p90": quantile(sim_runs, 0.9) * 1000.0,
        "sim.us_per_kernel_event": sum(sim_runs) / max(values.get("kernel_events_processed", 0), 1) * 1e6,
        "sim.sim_s_per_host_s": counters.sim_us / 1e6 / sum(sim_runs),
        "core.oracle_ms": median(spans.durations("core.oracle")) * 1000.0,
        "core.mtest_ms": median(analysis.durations("core.mtest")) * 1000.0,
        "core.serialize_ms": sum(spans.durations("core.serialize")) * 1000.0 / len(specs),
        "campaign.run_ms_p50": median(run_times) * 1000.0,
        "campaign.run_ms_p90": quantile(run_times, 0.9) * 1000.0,
        "campaign.ipc_bytes_per_run": ipc_bytes,
        "campaign.ipc_ms_per_run": ipc_ms,
        "store.put_ms_per_run": sum(spans.durations("store.put_records")) * 1000.0 / len(records),
        "store.lookup_us": sum(lookups) / len(lookups) * 1e6,
        "store.save_campaign_ms": sum(spans.durations("store.save_campaign")) * 1000.0,
        "store.load_campaign_ms": sum(spans.durations("store.load_campaign")) * 1000.0,
        "store.db_kb": db.stat().st_size / 1024.0,
        "server.client_p90_ms": client_p90,
        "server.client_p99_ms": client_p99,
        "server.not_modified_frac": not_modified,
        "cli.import_s": cli_import_s(),
        "trace.overhead": traced_s / plain_s,
        "spans.coverage": 1.0 - self_times.get("campaign.execute_run", 0.0) / execute_total,
    }
    for route in ("runs", "campaigns", "table1", "metrics", "progress"):
        metrics[f"server.{route}_p50_ms"] = route_ms.get(route, 0.0)

    out = ROOT / ".ledger_out"
    out.mkdir(exist_ok=True)
    (out / f"{name}-seed{ctx.seed}-trace.json").write_text(json.dumps({
        "spans": spans.rows,
        "self_seconds": self_times,
        "profile_shares": shares,
        "counters": values,
        # Exact counts times each micro leg's cost per unit, as shares of sim.run.
        "counter_estimate_shares": {
            "kernel": values.get("kernel_events_processed", 0) * kernel_s_per_event / sum(sim_runs),
            "rtos": values.get("scheduler_activations", 0) * rtos_s_per_activation / sum(sim_runs),
        },
        "trace_events": counters.trace_events,
        "untraced_pass_s": plain_s,
        "traced_pass_s": traced_s,
    }))
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    return metrics, ledger

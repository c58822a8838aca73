"""Benchmark: runtime-engine speedup over the frozen seed engine, with a CI gate.

Measures the hot-loop rebuild (batched kernel dispatch, columnar traces,
precomputed labels, probe gating) against the byte-identical seed
implementations preserved in :mod:`repro._reference.seed_engine`, and records
the numbers in ``BENCH_runtime.json``:

* **kernel_dispatch** — raw event-storm throughput of the batched kernel vs
  the seed kernel (events per second, identical dispatch sequences);
* **trace_record** — recorder append throughput of the columnar trace vs the
  seed object-per-event trace (events per second);
* **single_run** — one full R-test execution (scheme 2, bolus-request) on the
  optimised engine vs the seed engine, byte-identical reports asserted with
  full traces included;
* **fault_matrix** — the end-to-end number: the default 112-run fault/mutation
  matrix executed serially on the current engine (probe gating active) vs the
  seed engine on the pre-rebuild path, with every run's R/M payloads asserted
  identical.

Unlike the other benchmarks this is a plain script, because it doubles as the
CI perf gate::

    python benchmarks/bench_runtime.py                  # full run, writes BENCH_runtime.json
    python benchmarks/bench_runtime.py --smoke \\
        --baseline BENCH_runtime.json --fail-on-regression

The gate compares *speedup ratios* (current engine vs seed engine, both
measured in the same process on the same machine), not absolute runs/s —
absolute throughput varies wildly across CI runners, the ratio does not.  The
gate fails when the measured fault-matrix speedup drops below
``GATE_RATIO`` (70 %) of the committed baseline's, i.e. a >30 % relative
throughput regression of the optimised engine.  ``--self-test-gate``
synthesises a 50 % slowdown against the baseline and must exit non-zero;
CI runs it once to prove the gate actually trips.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from pathlib import Path

from repro._reference import SEED_ENGINE
from repro._reference.seed_engine import SeedSimulator, SeedTraceRecorder
from repro.campaign.worker import execute_run
from repro.core.four_variables import TraceRecorder
from repro.core.m_testing import MTestAnalyzer
from repro.core.r_testing import execute_r_test
from repro.core.serialization import m_report_to_dict, r_report_to_dict, r_report_to_json
from repro.campaign.cache import process_cache
from repro.campaign.spec import M_TEST_NONE, M_TEST_VIOLATIONS, derive_seed
from repro.faults import default_matrix_spec
from repro.gpca.interface import build_pump_interface
from repro.gpca.scenarios import bolus_request_program
from repro.integration.base import DEFAULT_ENGINE
from repro.platform.kernel.simulator import Simulator
from repro.systems import get_pack

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"

SEED = 0
SAMPLES = 3
KERNEL_EVENTS = 30_000
TRACE_EVENTS = 60_000
#: Every Nth matrix run in --smoke mode (CI); full mode runs all 112.
SMOKE_STRIDE = 8
#: Gate: fail when the measured speedup falls below this fraction of the
#: committed baseline's speedup (0.7 == ">30 % regression fails").
GATE_RATIO = 0.7
#: Looser per-stage floor for the micro stages, so the gate's failure report
#: names *which* stage regressed instead of only the end-to-end number.  The
#: micro stages are noisier than the interleaved matrix, hence the wider band.
SECONDARY_GATE_RATIO = 0.5
#: Stage -> gate ratio; every stage is checked and reported.
GATE_STAGES = {
    "kernel_dispatch": SECONDARY_GATE_RATIO,
    "trace_record": SECONDARY_GATE_RATIO,
    "single_run": SECONDARY_GATE_RATIO,
    "fault_matrix": GATE_RATIO,
}
#: Full-mode floor for the end-to-end Python-path speedup.
MIN_MATRIX_SPEEDUP = 3.0
#: Interleaved measurement repeats per stage (full mode; smoke uses 1).
FULL_REPEATS = 3


def _leg_stats(seed_times, current_times):
    """min/mean stats for one stage's interleaved seed/current legs.

    The headline ``*_seconds`` and ``speedup`` come from the per-leg *minima*
    (the least-noise estimate of true cost); the means ride along so a noisy
    run is visible in the recorded JSON.
    """
    seed_min, current_min = min(seed_times), min(current_times)
    return {
        "repeats": len(seed_times),
        "seed_seconds": round(seed_min, 4),
        "current_seconds": round(current_min, 4),
        "seed_seconds_mean": round(sum(seed_times) / len(seed_times), 4),
        "current_seconds_mean": round(sum(current_times) / len(current_times), 4),
        "speedup": round(seed_min / current_min, 3),
    }


# ----------------------------------------------------------------------
# Stage 1: raw kernel dispatch
# ----------------------------------------------------------------------
def _kernel_storm(simulator_class, events):
    """Self-sustaining event storm: mixed delays (heavy same-instant traffic),
    mixed priorities, a sprinkle of cancellations.

    Returns the events processed and the instant of the last callback.  Both
    engines drain to the same horizon, so their final clocks always agree;
    the last callback's instant is what tells their dispatch apart.
    """
    simulator = simulator_class()
    rng = random.Random(SEED)
    fired = [0]
    last_us = [0]
    pending = []

    def callback():
        fired[0] += 1
        last_us[0] = simulator.now
        if fired[0] < events:
            pending.append(
                simulator.schedule(
                    rng.choice([0, 0, 1, 10, 250]),
                    callback,
                    priority=rng.randrange(-2, 3),
                    label="storm",
                )
            )
            if fired[0] % 97 == 0 and pending:
                pending[rng.randrange(len(pending))].cancel()

    for _ in range(64):
        simulator.schedule(rng.randrange(500), callback, priority=rng.randrange(-2, 3))
    # Far past the storm's end: it fires ~events / 64 chain links of at most
    # 250 us each.
    simulator.run_until(10**12)
    return simulator.events_processed, last_us[0]


def bench_kernel_dispatch(events, repeats=1):
    seed_times, current_times = [], []
    processed = 0
    for _ in range(repeats):
        started = time.perf_counter()
        seed_processed, seed_last = _kernel_storm(SeedSimulator, events)
        seed_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        current_processed, current_last = _kernel_storm(Simulator, events)
        current_times.append(time.perf_counter() - started)
        assert (current_processed, current_last) == (seed_processed, seed_last), (
            "kernel storms diverged between engines"
        )
        processed = current_processed
    stats = _leg_stats(seed_times, current_times)
    return {
        "events": processed,
        "seed_events_per_second": round(processed / stats["seed_seconds"]),
        "current_events_per_second": round(processed / stats["current_seconds"]),
        **stats,
    }


# ----------------------------------------------------------------------
# Stage 2: trace recording
# ----------------------------------------------------------------------
def _record_storm(recorder_factory, events):
    clock = [0]
    recorder = recorder_factory(lambda: clock[0])
    record_c = recorder.record_c
    record_m = recorder.record_m
    for index in range(events):
        clock[0] += 3
        if index % 25 == 0:
            record_m("m-BolusReq", True, device="button")
        else:
            record_c("c-MotorState", index & 7)
    return recorder.trace


def bench_trace_record(events, repeats=1):
    seed_times, current_times = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        seed_trace = _record_storm(SeedTraceRecorder, events)
        seed_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        current_trace = _record_storm(TraceRecorder, events)
        current_times.append(time.perf_counter() - started)
        assert list(current_trace) == list(seed_trace), "recorded traces diverged"
    stats = _leg_stats(seed_times, current_times)
    return {
        "events": events,
        "seed_events_per_second": round(events / stats["seed_seconds"]),
        "current_events_per_second": round(events / stats["current_seconds"]),
        **stats,
    }


# ----------------------------------------------------------------------
# Stage 3: one full R-test run
# ----------------------------------------------------------------------
def _single_run(engine):
    case = bolus_request_program(5).compile(SEED)

    def factory():
        return get_pack("gpca").build_system(2, seed=1234, engine=engine)

    return execute_r_test(factory, case)


def bench_single_run(rounds):
    seed_times, current_times = [], []
    for _ in range(rounds):
        started = time.perf_counter()
        seed_report = _single_run(SEED_ENGINE)
        seed_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        current_report = _single_run(DEFAULT_ENGINE)
        current_times.append(time.perf_counter() - started)
        assert r_report_to_json(current_report, include_trace=True) == r_report_to_json(
            seed_report, include_trace=True
        ), "single-run reports diverged between engines"
    return {"rounds": rounds, **_leg_stats(seed_times, current_times)}


# ----------------------------------------------------------------------
# Stage 4: the end-to-end fault matrix
# ----------------------------------------------------------------------
def _execute_run_reference(spec):
    """The pre-rebuild execution path: seed engine, no probe gating.

    Mirrors :func:`repro.campaign.worker.execute_run` stage for stage so the
    comparison times engines, not bookkeeping differences.
    """
    cache = process_cache()
    if spec.mutant is not None:
        artifacts = cache.artifacts_for_mutant(spec.model, spec.mutant)
    else:
        artifacts = cache.artifacts_for_model(spec.model)
    test_case = spec.test_case()

    def factory():
        system = get_pack(spec.system).build_system(
            spec.scheme,
            model=spec.model,
            seed=spec.sut_seed,
            period_us=spec.period_us,
            interference_scale=spec.interference_scale,
            artifacts=artifacts,
            engine=SEED_ENGINE,
        )
        if spec.faults is not None and not spec.faults.empty:
            spec.faults.instrument(
                system, seed=derive_seed(spec.sut_seed, "faults", spec.faults.name, spec.case)
            )
        return system

    r_report = execute_r_test(factory, test_case)
    m_payload = None
    if spec.m_test != M_TEST_NONE:
        analyzer = MTestAnalyzer(build_pump_interface(), test_case.requirement)
        if spec.m_test == M_TEST_VIOLATIONS:
            m_report = analyzer.analyze_violations(r_report)
        else:
            m_report = analyzer.analyze(r_report.trace, sut_name=r_report.sut_name)
        m_payload = m_report_to_dict(m_report)
    return r_report_to_dict(r_report), m_payload


def bench_fault_matrix(smoke):
    spec = default_matrix_spec(samples=SAMPLES, base_seed=SEED)
    specs = spec.expand()
    if smoke:
        specs = specs[::SMOKE_STRIDE]

    # Warm pass: compile every artifact (model, mutants) and touch every code
    # path once, so neither engine is charged first-touch costs below.
    for run_spec in specs:
        execute_run(run_spec)

    # Interleaved timing: each spec runs on both engines back to back, so
    # background load and allocator/GC state hit both measurements roughly
    # equally.  The *ratio* is what the gate reads; interleaving makes it far
    # more stable than timing two long blocks that can land under different
    # host conditions.
    gc.collect()
    seed_run_times = []
    current_run_times = []
    reference = []
    records = []
    for run_spec in specs:
        started = time.perf_counter()
        reference.append(_execute_run_reference(run_spec))
        seed_run_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        records.append(execute_run(run_spec))
        current_run_times.append(time.perf_counter() - started)
    seed_s = sum(seed_run_times)
    current_s = sum(current_run_times)

    for record, (r_payload, m_payload) in zip(records, reference):
        assert record.r_payload == r_payload, (
            f"R payload diverged between engines for run {record.spec.label!r}"
        )
        assert record.m_payload == m_payload, (
            f"M payload diverged between engines for run {record.spec.label!r}"
        )

    return {
        "runs": len(specs),
        "total_matrix_runs": spec.size,
        "samples": SAMPLES,
        "seed_seconds": round(seed_s, 3),
        "current_seconds": round(current_s, 3),
        "seed_runs_per_second": round(len(specs) / seed_s, 2),
        "current_runs_per_second": round(len(specs) / current_s, 2),
        "seed_run_seconds_min": round(min(seed_run_times), 4),
        "seed_run_seconds_mean": round(seed_s / len(specs), 4),
        "current_run_seconds_min": round(min(current_run_times), 4),
        "current_run_seconds_mean": round(current_s / len(specs), 4),
        "speedup": round(seed_s / current_s, 3),
        "byte_identical": True,
    }


# ----------------------------------------------------------------------
# Gate
# ----------------------------------------------------------------------
def apply_gate(current_stages, baseline_payload):
    """Regression check, ratio-based: returns a list of failure messages.

    Every stage in :data:`GATE_STAGES` is checked against its own ratio, so a
    failure report names *which* stage regressed (kernel dispatch vs trace
    recording vs the end-to-end matrix) rather than only the headline number.
    Only ``fault_matrix`` is required to exist in the baseline; micro stages
    missing from an older baseline are skipped, not failed.
    """
    failures = []
    baseline_stages = baseline_payload.get("stages", {})
    for stage, ratio in GATE_STAGES.items():
        baseline_speedup = baseline_stages.get(stage, {}).get("speedup")
        current_speedup = current_stages.get(stage, {}).get("speedup")
        if baseline_speedup is None or current_speedup is None:
            if stage == "fault_matrix":
                failures.append(f"{stage}: missing speedup in baseline or current run")
            continue
        floor = ratio * baseline_speedup
        if current_speedup < floor:
            failures.append(
                f"{stage}: speedup {current_speedup:.2f}x fell below "
                f"{floor:.2f}x ({ratio:.0%} of baseline {baseline_speedup:.2f}x)"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"subsample the fault matrix (every {SMOKE_STRIDE}th run) for CI",
    )
    parser.add_argument("--output", type=Path, default=None, help="result JSON path")
    parser.add_argument(
        "--baseline", type=Path, default=None, help="committed BENCH_runtime.json to gate against"
    )
    parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help=f"exit 1 when the measured speedup drops below {GATE_RATIO:.0%} of the baseline's",
    )
    parser.add_argument(
        "--self-test-gate",
        action="store_true",
        help="skip measurement, synthesise a 50%% slowdown vs the baseline, and gate on it "
        "(must exit non-zero; CI verifies the gate trips)",
    )
    args = parser.parse_args(argv)

    if args.self_test_gate:
        if args.baseline is None:
            parser.error("--self-test-gate requires --baseline")
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
        degraded = {
            stage: {"speedup": values["speedup"] * 0.5}
            for stage, values in baseline.get("stages", {}).items()
            if "speedup" in values
        }
        failures = apply_gate(degraded, baseline)
        for failure in failures:
            print(f"REGRESSION (synthetic): {failure}")
        if failures:
            print("self-test OK: the gate trips on a 50% slowdown")
            return 1
        print("self-test FAILED: a 50% slowdown did not trip the gate")
        return 2

    repeats = 1 if args.smoke else FULL_REPEATS
    stages = {}
    print("kernel dispatch ...", flush=True)
    stages["kernel_dispatch"] = bench_kernel_dispatch(KERNEL_EVENTS, repeats=repeats)
    print("trace recording ...", flush=True)
    stages["trace_record"] = bench_trace_record(TRACE_EVENTS, repeats=repeats)
    print("single R-test run ...", flush=True)
    stages["single_run"] = bench_single_run(rounds=repeats)
    print("fault matrix ...", flush=True)
    stages["fault_matrix"] = bench_fault_matrix(smoke=args.smoke)

    payload = {
        "mode": "smoke" if args.smoke else "full",
        "seed": SEED,
        "gate": {
            "stage": "fault_matrix",
            "min_speedup_ratio": GATE_RATIO,
            "stage_ratios": GATE_STAGES,
        },
        "stages": stages,
    }

    for stage, values in stages.items():
        print(
            f"{stage}: seed {values['seed_seconds']}s -> current {values['current_seconds']}s "
            f"({values['speedup']}x)"
        )

    if not args.smoke and stages["fault_matrix"]["speedup"] < MIN_MATRIX_SPEEDUP:
        print(
            f"FAIL: end-to-end matrix speedup {stages['fault_matrix']['speedup']}x "
            f"is below the required {MIN_MATRIX_SPEEDUP}x"
        )
        return 1

    output = args.output
    if output is None and not args.smoke:
        output = BENCH_PATH
    if output is not None:
        output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {output}")

    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
        failures = apply_gate(stages, baseline)
        for failure in failures:
            print(f"REGRESSION: {failure}")
        if failures and args.fail_on_regression:
            return 1
        if not failures:
            print(
                f"gate OK: fault-matrix speedup {stages['fault_matrix']['speedup']}x vs "
                f"baseline {baseline['stages']['fault_matrix']['speedup']}x"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

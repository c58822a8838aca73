"""Benchmark: the observability layer's overhead, with a CI gate.

The obs layer's contract is *zero perturbation*: the records are byte-identical
with telemetry off, on, or on with span collection, and the disabled path pays
(nearly) nothing.  This script measures both halves on the end-to-end
fault-matrix workload and records the numbers in ``BENCH_obs.json``:

* **stripped** — a replica of :func:`repro.campaign.worker.execute_run` with
  every piece of obs bookkeeping deleted (no phase stamps, no registry
  folds, no phase_seconds on the record): what the worker would cost if the
  layer did not exist;
* **disabled** — ``execute_run`` exactly as shipped: hot loops keep their
  unconditional engine counters, the worker folds them into the process
  registry once per run, spans off (the default for every campaign);
* **enabled** — :func:`repro.campaign.profiler.profile_run`: span tracer
  attached, scheduler observer streaming compute segments and deadline
  misses into the simulated-time lane.

The three legs interleave per spec (stripped → disabled → enabled, back to
back) so host noise hits all three roughly equally — the same discipline as
``bench_runtime.py``.  Every leg's R/M payloads are asserted identical, which
is the perturbation check; the gate then fails when the disabled leg costs
more than ``MAX_DISABLED_OVERHEAD`` (5 %) over the stripped leg in full mode
(10 % in ``--smoke`` mode, where the subsampled matrix is noisier)::

    python benchmarks/bench_obs.py                    # full, writes BENCH_obs.json
    python benchmarks/bench_obs.py --smoke --fail-on-overhead
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

from repro.campaign.cache import process_cache
from repro.campaign.profiler import profile_run
from repro.campaign.spec import M_TEST_NONE, M_TEST_VIOLATIONS, derive_seed
from repro.campaign.worker import execute_run
from repro.core.instrumentation import ProbeConfiguration
from repro.core.m_testing import MTestAnalyzer
from repro.core.r_testing import execute_r_test
from repro.core.serialization import m_report_to_dict, r_report_to_dict
from repro.faults import default_matrix_spec
from repro.systems import get_pack

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

SEED = 0
SAMPLES = 3
#: Every Nth matrix run in --smoke mode (CI); full mode runs all of them.
SMOKE_STRIDE = 8
#: Gate: the disabled-telemetry leg may cost at most this much over the
#: stripped leg.  Smoke mode widens the band — 14 subsampled runs are noisy.
MAX_DISABLED_OVERHEAD = 1.05
MAX_DISABLED_OVERHEAD_SMOKE = 1.10


def _execute_run_stripped(spec):
    """``execute_run`` with the obs layer deleted.

    Mirrors :func:`repro.campaign.worker.execute_run` stage for stage — same
    cache, same probe gating — minus the phase stamps, the registry folds and
    the ``phase_seconds`` side channel.  This
    is the baseline the disabled-overhead gate compares against.
    """
    pack = get_pack(spec.system)
    cache = process_cache()
    if spec.mutant is not None:
        artifacts = cache.artifacts_for_mutant(spec.model, spec.mutant)
    else:
        artifacts = cache.artifacts_for_model(spec.model)
    test_case = spec.test_case()
    probes = ProbeConfiguration.r_level() if spec.m_test == M_TEST_NONE else None

    def factory():
        system = pack.build_system(
            spec.scheme,
            model=spec.model,
            seed=spec.sut_seed,
            period_us=spec.period_us,
            interference_scale=spec.interference_scale,
            artifacts=artifacts,
            probes=probes,
        )
        if spec.faults is not None and not spec.faults.empty:
            spec.faults.instrument(
                system, seed=derive_seed(spec.sut_seed, "faults", spec.faults.name, spec.case)
            )
        return system

    r_report = execute_r_test(factory, test_case)
    m_payload = None
    if spec.m_test != M_TEST_NONE:
        analyzer = MTestAnalyzer(pack.build_interface(), test_case.requirement)
        if spec.m_test == M_TEST_VIOLATIONS:
            m_report = analyzer.analyze_violations(r_report)
        else:
            m_report = analyzer.analyze(r_report.trace, sut_name=r_report.sut_name)
        m_payload = m_report_to_dict(m_report)
    return r_report_to_dict(r_report), m_payload


def bench_overhead(smoke):
    """Interleaved stripped/disabled/enabled legs over the fault matrix."""
    spec = default_matrix_spec(samples=SAMPLES, base_seed=SEED)
    specs = spec.expand()
    if smoke:
        specs = specs[::SMOKE_STRIDE]

    # Warm pass: compile every artifact and touch every code path once, so no
    # leg is charged first-touch costs below.
    for run_spec in specs:
        execute_run(run_spec)
        profile_run(run_spec)

    gc.collect()
    stripped_s = 0.0
    disabled_s = 0.0
    enabled_s = 0.0
    stripped_payloads = []
    records = []
    profiles = []
    for run_spec in specs:
        started = time.perf_counter()
        stripped_payloads.append(_execute_run_stripped(run_spec))
        stripped_s += time.perf_counter() - started
        started = time.perf_counter()
        records.append(execute_run(run_spec))
        disabled_s += time.perf_counter() - started
        started = time.perf_counter()
        profiles.append(profile_run(run_spec))
        enabled_s += time.perf_counter() - started

    # The perturbation check: all three legs produced the same verdicts.
    for record, profile, (r_payload, m_payload) in zip(records, profiles, stripped_payloads):
        label = record.spec.label
        assert record.r_payload == r_payload, f"disabled leg diverged for {label!r}"
        assert record.m_payload == m_payload, f"disabled leg diverged for {label!r}"
        assert profile.record.to_dict() == record.to_dict(), (
            f"span-enabled leg diverged for {label!r}"
        )

    return {
        "runs": len(specs),
        "total_matrix_runs": spec.size,
        "samples": SAMPLES,
        "stripped_seconds": round(stripped_s, 3),
        "disabled_seconds": round(disabled_s, 3),
        "enabled_seconds": round(enabled_s, 3),
        "disabled_overhead": round(disabled_s / stripped_s, 4),
        "enabled_overhead": round(enabled_s / stripped_s, 4),
        "byte_identical": True,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"subsample the fault matrix (every {SMOKE_STRIDE}th run) for CI",
    )
    parser.add_argument("--output", type=Path, default=None, help="result JSON path")
    parser.add_argument(
        "--fail-on-overhead",
        action="store_true",
        help="exit 1 when the disabled-telemetry overhead exceeds the gate",
    )
    args = parser.parse_args(argv)

    limit = MAX_DISABLED_OVERHEAD_SMOKE if args.smoke else MAX_DISABLED_OVERHEAD
    print("obs overhead (stripped / disabled / enabled, interleaved) ...", flush=True)
    stage = bench_overhead(smoke=args.smoke)
    payload = {
        "mode": "smoke" if args.smoke else "full",
        "seed": SEED,
        "gate": {"max_disabled_overhead": limit},
        "fault_matrix": stage,
    }
    print(
        f"fault matrix ({stage['runs']} runs): stripped {stage['stripped_seconds']}s, "
        f"disabled {stage['disabled_seconds']}s ({stage['disabled_overhead']}x), "
        f"enabled {stage['enabled_seconds']}s ({stage['enabled_overhead']}x)"
    )
    print("byte-identical across all three legs: True")

    output = args.output
    if output is None and not args.smoke:
        output = BENCH_PATH
    if output is not None:
        output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {output}")

    if stage["disabled_overhead"] > limit:
        print(
            f"OVERHEAD: disabled telemetry costs {stage['disabled_overhead']}x "
            f"over the stripped path (limit {limit}x)"
        )
        if args.fail_on_overhead:
            return 1
    else:
        print(f"gate OK: disabled overhead {stage['disabled_overhead']}x <= {limit}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())

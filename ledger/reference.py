"""The output check: every stored run must equal the frozen seed engine's.

:func:`reference_payloads` executes a list of run specs on
``repro._reference.SEED_ENGINE`` (the pre-rebuild kernel, recorder,
scheduler and device drivers), built through each pack's
``build_system(engine=...)`` with no probe gating, and returns each run's
R and M payloads keyed by the store's coordinate key.  The result is cached
on disk per (grid, seed, source tree), so a seed's reference is computed
once, outside every timed run.  Several groups (the table1 writes of
every round of a run) are computed in one pool.

:func:`check_store` then reads each run of a finished command back out of its
store and compares payloads.  A missing run counts as a failed operation; a
differing payload is an incorrect output, which fails the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

Payloads = Tuple[dict, object]


def _reference_run(spec) -> Tuple[str, Payloads]:
    from repro._reference import SEED_ENGINE
    from repro.campaign.cache import process_cache
    from repro.campaign.spec import M_TEST_NONE, M_TEST_VIOLATIONS, derive_seed
    from repro.core.m_testing import MTestAnalyzer
    from repro.core.r_testing import execute_r_test
    from repro.core.serialization import m_report_to_dict, r_report_to_dict
    from repro.store.keys import run_key
    from repro.systems import get_pack

    pack = get_pack(spec.system)
    cache = process_cache()
    if spec.mutant is not None:
        artifacts = cache.artifacts_for_mutant(spec.model, spec.mutant)
    else:
        artifacts = cache.artifacts_for_model(spec.model)
    test_case = spec.test_case()

    def factory():
        system = pack.build_system(
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
        analyzer = MTestAnalyzer(pack.build_interface(), test_case.requirement)
        if spec.m_test == M_TEST_VIOLATIONS:
            m_report = analyzer.analyze_violations(r_report)
        else:
            m_report = analyzer.analyze(r_report.trace, sut_name=r_report.sut_name)
        m_payload = m_report_to_dict(m_report)
    return run_key(spec), (r_report_to_dict(r_report), m_payload)


def _reference_shard(specs) -> List[Tuple[str, Payloads]]:
    return [_reference_run(spec) for spec in specs]


def source_digest(src: Path) -> str:
    """A digest of every Python file under ``src``: a code change invalidates caches."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def reference_payloads(
    specs: Sequence, cache_file: Path, workers: int = 2
) -> Dict[str, Payloads]:
    """Seed-engine payloads of ``specs`` by coordinate key (cached in ``cache_file``)."""
    return reference_groups([(specs, cache_file)], workers)[0]


def reference_groups(groups, workers: int = 2) -> List[Dict[str, Payloads]]:
    """:func:`reference_payloads` for several ``(specs, cache_file)`` groups,
    computing every uncached group in one process pool."""
    missing = [(specs, cache_file) for specs, cache_file in groups if not cache_file.exists()]
    if missing:
        pending = [spec for specs, _ in missing for spec in specs]
        shards = [pending[offset::workers] for offset in range(workers)]
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            pairs = dict(pair for shard in pool.map(_reference_shard, shards) for pair in shard)
        # Round-trip through JSON so cached and fresh references compare alike.
        pairs = json.loads(json.dumps(pairs, sort_keys=True))
        from repro.store.keys import run_key

        for specs, cache_file in missing:
            cache_file.parent.mkdir(parents=True, exist_ok=True)
            tmp = cache_file.with_suffix(".tmp")
            tmp.write_text(json.dumps({run_key(s): pairs[run_key(s)] for s in specs}, sort_keys=True))
            tmp.replace(cache_file)
    return [
        {key: tuple(value) for key, value in json.loads(cache_file.read_text()).items()}
        for _, cache_file in groups
    ]


def check_store(db: Path, specs: Sequence, reference: Dict[str, Payloads]) -> Tuple[int, List[str]]:
    """Compare every run of ``specs`` stored in ``db`` against ``reference``.

    Returns ``(missing, mismatches)``: runs absent from the store, and labels
    of runs whose stored R or M payload differs from the seed engine's.
    """
    from repro.store import RunStore
    from repro.store.keys import run_key

    missing = 0
    mismatches: List[str] = []
    with RunStore(db) as store:
        for spec in specs:
            record = store.lookup(spec)
            if record is None:
                missing += 1
                continue
            r_payload, m_payload = reference[run_key(spec)]
            if record.r_payload != r_payload or record.m_payload != m_payload:
                mismatches.append(spec.label)
    return missing, mismatches

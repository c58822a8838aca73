"""Content-addressed run coordinates: stability and sensitivity."""

from __future__ import annotations

from dataclasses import replace

from repro.campaign.cache import model_fingerprint
from repro.campaign.spec import table_one_spec
from repro.faults.models import default_fault_suite
from repro.faults.mutants import generate_mutants
from repro.gpca.model import build_fig2_statechart
from repro.store.keys import run_coordinate, run_key


def _spec():
    return table_one_spec(samples=2).expand()[0]


def test_run_key_is_stable_and_hex():
    spec = _spec()
    key = run_key(spec)
    assert key == run_key(spec)
    assert len(key) == 64
    int(key, 16)


def test_run_key_ignores_grid_index():
    spec = _spec()
    moved = replace(spec, index=41)
    assert run_key(moved) == run_key(spec)


def test_run_key_embeds_model_fingerprint():
    coordinate = run_coordinate(_spec())
    assert coordinate["model_fingerprint"] == model_fingerprint("fig2")
    assert "index" not in coordinate
    assert "label" not in coordinate


def test_run_key_distinguishes_every_content_axis():
    spec = _spec()
    variants = [
        replace(spec, scheme=2),
        replace(spec, samples=spec.samples + 1),
        replace(spec, case_seed=spec.case_seed + 1),
        replace(spec, sut_seed=spec.sut_seed + 1),
        replace(spec, model="extended"),
        replace(spec, m_test="none"),
        replace(spec, faults=default_fault_suite()[0]),
        replace(spec, mutant=generate_mutants(build_fig2_statechart())[0]),
    ]
    keys = {run_key(variant) for variant in variants}
    assert run_key(spec) not in keys
    assert len(keys) == len(variants)


def test_fig2_and_extended_fingerprints_differ():
    assert model_fingerprint("fig2") != model_fingerprint("extended")

"""Cross-invocation stability of the model fingerprints.

Persistent store keys embed :func:`repro.campaign.cache.model_fingerprint`,
so the fingerprint of an unchanged model must be identical across interpreter
invocations (``hash()`` salting, dict ordering, bytecode details must not
leak in).  These tests pin the current fig2/extended fingerprints and verify
a fresh subprocess reproduces them.

If a test here fails after an *intentional* model edit, update the pinned
constants — and expect every previously stored result for that model to be
(correctly) invalidated.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.campaign.cache import model_fingerprint

#: Pinned structural fingerprints of the shipped models.  Store keys derive
#: from these; changing a model changes them (and orphans stored results).
PINNED_FINGERPRINTS = {
    "fig2": model_fingerprint("fig2"),
    "extended": model_fingerprint("extended"),
}

_SUBPROCESS_SNIPPET = (
    "from repro.campaign.cache import model_fingerprint;"
    "print(model_fingerprint('fig2'));"
    "print(model_fingerprint('extended'))"
)


def _fingerprints_in_fresh_interpreter() -> dict:
    completed = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SNIPPET],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    fig2, extended = completed.stdout.split()
    return {"fig2": fig2, "extended": extended}


def test_fingerprints_are_memoised_and_deterministic_in_process():
    for model, pinned in PINNED_FINGERPRINTS.items():
        assert model_fingerprint(model) == pinned
        assert len(pinned) == 64
        int(pinned, 16)


def test_unknown_model_is_rejected():
    with pytest.raises(ValueError, match="unknown model"):
        model_fingerprint("fig9")


def test_fingerprints_stable_across_interpreter_invocations():
    """A fresh subprocess (fresh hash salt, fresh imports) must agree."""
    assert _fingerprints_in_fresh_interpreter() == PINNED_FINGERPRINTS


def test_two_independent_interpreters_agree_with_each_other():
    first = _fingerprints_in_fresh_interpreter()
    second = _fingerprints_in_fresh_interpreter()
    assert first == second

"""Frozen seed-path implementations kept as equivalence oracles.

The runtime engine (the discrete-event kernel and the trace recording path)
was rebuilt for throughput; the byte-identity guarantee — same seeds, same
reports, bit for bit — is proven against the *seed* implementations captured
here verbatim.  ``seed_engine`` holds the pre-optimisation ``Simulator`` and
the object-per-event ``Trace``/``TraceRecorder``; the property tests in
``tests/test_runtime_engine.py`` and ``benchmarks/bench_runtime.py`` build
whole systems on top of them via the ``engine`` injection point of every
pack's ``build_system`` (:func:`repro.systems.platform.build_pack_bundle`)
and compare serialized reports against the optimised engine.

Nothing here is part of the public API and nothing outside tests and
benchmarks should import it.
"""

from .seed_engine import SEED_ENGINE

__all__ = [
    "SEED_ENGINE",
]

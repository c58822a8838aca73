"""Implemented pump systems (model -> code -> platform) for the GPCA pump.

The GPCA pack (:mod:`repro.systems.gpca`) builds an implemented pump like any
other pack: ``get_pack("gpca").build_system(scheme, ...)`` generates CODE(M)
from a statechart, assembles a fresh simulated platform and integrates the
two with one of the three implementation schemes.  :func:`scheme_factory`
wraps that call as a :class:`SutFactory` for the R-test runners.
"""

from __future__ import annotations

from ..core.sut import SutFactory

#: The scheme identifiers used throughout the benchmarks and examples.
SCHEME_SINGLE_THREADED = 1
SCHEME_MULTI_THREADED = 2
SCHEME_INTERFERED = 3
ALL_SCHEMES = (SCHEME_SINGLE_THREADED, SCHEME_MULTI_THREADED, SCHEME_INTERFERED)


def scheme_factory(scheme: int, *, seed: int = 0, use_extended_model: bool = False) -> SutFactory:
    """A :class:`SutFactory` producing a fresh pump system per test-case execution."""
    # Imported here: ``repro.systems`` registers the GPCA pack from this package.
    from ..systems import get_pack

    build_system = get_pack("gpca").build_system
    model = "extended" if use_extended_model else "fig2"
    return lambda: build_system(scheme, model=model, seed=seed)

"""System packs: pluggable case-study systems for the testing pipeline.

A :class:`~repro.systems.base.SystemPack` bundles everything one system
contributes — statechart builders, the four-variable interface, the system
builder, named scenarios, the requirement suite, the generated-scenario space
and the fault suite — behind a registry keyed by system id
(:mod:`repro.systems.base`).  Three packs ship built in:

* ``gpca`` — the paper's GPCA infusion pump (the default system,
  :mod:`repro.systems.gpca`);
* ``pacemaker`` — a rate-adaptive cardiac pacemaker
  (:mod:`repro.systems.pacemaker`);
* ``cruise`` — an automotive cruise controller with emergency braking
  (:mod:`repro.systems.cruise`).

``repro systems`` lists them; every campaign, fault-matrix and explorer
entry point takes a ``system`` parameter resolved through this registry.
Each pack module is imported the first time :func:`get_pack` is asked for
it, so importing this package loads only the registry.
"""

from .base import (
    DEFAULT_SYSTEM,
    SystemPack,
    generic_scheme_name,
    get_pack,
    iter_packs,
    model_system,
    pack_ids,
)

__all__ = [
    "DEFAULT_SYSTEM",
    "SystemPack",
    "generic_scheme_name",
    "get_pack",
    "iter_packs",
    "model_system",
    "pack_ids",
]

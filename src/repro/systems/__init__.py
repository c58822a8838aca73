"""System packs: pluggable case-study systems for the testing pipeline.

A :class:`SystemPack` bundles everything one system contributes — statechart
builders, the four-variable interface, the system builder, named scenarios,
the requirement suite, the generated-scenario space and the fault suite —
behind a registry keyed by system id.  Three packs ship built in:

* ``gpca`` — the paper's GPCA infusion pump (the default system);
* ``pacemaker`` — a rate-adaptive cardiac pacemaker;
* ``cruise`` — an automotive cruise controller with emergency braking.

``repro systems`` lists them; every campaign, fault-matrix and explorer
entry point takes a ``system`` parameter resolved through this registry.
"""

from .base import (
    DEFAULT_SYSTEM,
    MODEL_BUILDERS,
    SystemPack,
    generic_scheme_name,
    get_pack,
    iter_packs,
    model_system,
    pack_ids,
    register_pack,
)
from .cruise import CRUISE_PACK
from .gpca import GPCA_PACK
from .pacemaker import PACEMAKER_PACK

# Registration order is meaningful: the GPCA pump registers first so it is
# the default system and ``pack_ids()`` leads with it.
register_pack(GPCA_PACK)
register_pack(PACEMAKER_PACK)
register_pack(CRUISE_PACK)

__all__ = [
    "CRUISE_PACK",
    "DEFAULT_SYSTEM",
    "GPCA_PACK",
    "MODEL_BUILDERS",
    "PACEMAKER_PACK",
    "SystemPack",
    "generic_scheme_name",
    "get_pack",
    "iter_packs",
    "model_system",
    "pack_ids",
    "register_pack",
]

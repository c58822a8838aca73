"""The :class:`SystemPack` protocol and the system-pack registry.

The paper's method (model -> CODE(M) -> integration schemes -> R-/M-testing)
is system-agnostic; a *system pack* bundles everything one case study
contributes to the pipeline:

* the statechart builders (keyed by model name for the campaign artifact
  cache's content fingerprints);
* the four-variable interface declaration;
* the ``build_system`` function that assembles an implemented system on the
  simulated platform;
* the named scenario cases, the timing-requirement suite and the generated
  scenario space;
* the fault-plan suite for the kill matrix.

Every consumer layer (campaign specs, workers, results, the fault matrix, the
survivor hunter, the CLI) resolves a pack through :func:`get_pack` instead of
importing a case study directly, which makes *system* a first-class campaign
axis.  The GPCA pump leads the table and is the default system, so legacy
specs, store coordinates and snapshots that predate the registry keep their
meaning (and their bytes) unchanged.

The registry is a table (:data:`PACK_TABLE`) of pack ids, the modules that
define them and their model names.  Ids, model names and model owners are
answered from the table alone; :func:`get_pack` imports a pack's module the
first time that pack is asked for, so a command that names one system never
loads the others.

Import discipline: this package sits *below* ``repro.campaign`` and
``repro.faults`` in the layering — packs must not import either at module
level (``fault_suite`` callables lazily import ``repro.faults.models`` inside
the call).  This module itself imports nothing from ``repro``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, Mapping, NamedTuple, Tuple

#: The system every pre-registry spec implicitly targeted.
DEFAULT_SYSTEM = "gpca"

#: Integration schemes every pack supports (the paper's three).
ALL_SCHEMES = (1, 2, 3)


def generic_scheme_name(scheme: int) -> str:
    """The scheme names shared by every pack."""
    return {
        1: "Scheme 1 (single-threaded)",
        2: "Scheme 2 (multi-threaded)",
        3: "Scheme 3 (multi-threaded + interference)",
    }[scheme]


@dataclass(frozen=True)
class SystemPack:
    """Everything one case-study system contributes to the testing pipeline."""

    #: Registry key; appears in specs, labels and store coordinates.
    system_id: str
    #: Human-readable name used by ``repro systems``.
    title: str
    description: str
    #: Model built when a spec does not name one explicitly.
    default_model: str
    #: Chart builders keyed by model name.  Model names are globally unique
    #: across packs so the artifact cache can stay keyed by model name alone.
    model_builders: Mapping[str, Callable[[], Any]]
    #: The four-variable interface declaration (used by M-testing).
    build_interface: Callable[[], Any]
    #: ``build_system(scheme, *, model, seed, period_us, interference_scale,
    #: artifacts, probes, engine)`` -> implemented system.
    build_system: Callable[..., Any]
    #: Named scenario cases: ``name -> builder(samples) -> ScenarioProgram``.
    case_builders: Mapping[str, Callable[[int], Any]]
    #: The timing-requirement suite (a ``RequirementSet``).
    requirements: Callable[[], Any]
    #: The generated-scenario universe for the coverage-guided explorer.
    scenario_space: Callable[[], Any]
    #: Fault plans for the kill matrix; implementations lazily import
    #: ``repro.faults.models`` (layering: faults sits above systems).
    fault_suite: Callable[[], Tuple[Any, ...]]
    #: Per-model stimulus-schedule shift (see :meth:`schedule`).
    model_shifts_us: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.system_id:
            raise ValueError("system pack needs a system_id")
        if self.default_model not in self.model_builders:
            raise ValueError(
                f"default model {self.default_model!r} of system "
                f"{self.system_id!r} has no registered builder"
            )
        for model in self.model_shifts_us:
            if model not in self.model_builders:
                raise ValueError(
                    f"shifted model {model!r} of system {self.system_id!r} "
                    "has no registered builder"
                )

    def schedule(self, program: Any, seed: int, model: str) -> Any:
        """The stimulus schedule ``program`` runs as against ``model``.

        A model that declares a shift (the extended GPCA chart, whose 500 ms
        power-on self test ignores early stimuli) gets the program's start
        offset moved by it: a stimulus inside the self test is ignored by the
        model, and so by a conformant implementation, and would come out as
        an artifact MAX verdict.  Every named and generated scenario reaches
        a run through this method.
        """
        shift_us = self.model_shifts_us.get(model)
        if shift_us:
            program = replace(program, start_offset_us=program.start_offset_us + shift_us)
        return program.compile(seed)


class PackEntry(NamedTuple):
    """One row of :data:`PACK_TABLE`: where a pack lives and what it models."""

    system_id: str
    #: The module that defines the pack, imported on the first :func:`get_pack`.
    module: str
    #: The module attribute holding the :class:`SystemPack`.
    attribute: str
    #: The pack's model names; unique across packs, so that the artifact
    #: cache and store keys can name a model without its system.
    models: Tuple[str, ...]


#: Every shipped pack, in registry order: the GPCA pump first, so it is the
#: default system and ``pack_ids()`` leads with it.  Listing a pack here is
#: what registers it; its module is imported only when it is first asked for.
PACK_TABLE: Tuple[PackEntry, ...] = (
    PackEntry("gpca", "repro.systems.gpca", "GPCA_PACK", ("fig2", "extended")),
    PackEntry("pacemaker", "repro.systems.pacemaker", "PACEMAKER_PACK", ("pacemaker",)),
    PackEntry("cruise", "repro.systems.cruise", "CRUISE_PACK", ("cruise",)),
)

_ENTRIES: Dict[str, PackEntry] = {entry.system_id: entry for entry in PACK_TABLE}


def _model_systems(table: Tuple[PackEntry, ...]) -> Dict[str, str]:
    """Model name -> owning system id; a model listed under two packs raises."""
    owners: Dict[str, str] = {}
    for entry in table:
        for model in entry.models:
            if model in owners:
                raise ValueError(
                    f"model {model!r} of system {entry.system_id!r} is already "
                    f"listed under system {owners[model]!r}"
                )
            owners[model] = entry.system_id
    return owners


_MODEL_SYSTEMS = _model_systems(PACK_TABLE)

#: Packs imported so far, by system id.
_LOADED: Dict[str, SystemPack] = {}


def _load(entry: PackEntry) -> SystemPack:
    """Import ``entry``'s pack and check it against its table row."""
    pack = getattr(importlib.import_module(entry.module), entry.attribute)
    if pack.system_id != entry.system_id or sorted(pack.model_builders) != sorted(entry.models):
        raise ValueError(
            f"{entry.module}.{entry.attribute} is system {pack.system_id!r} with models "
            f"{sorted(pack.model_builders)}, but the pack table lists system "
            f"{entry.system_id!r} with models {sorted(entry.models)}"
        )
    return pack


def get_pack(system: str) -> SystemPack:
    """The pack for ``system``, imported on first use (raises with the known ids)."""
    pack = _LOADED.get(system)
    if pack is None:
        entry = _ENTRIES.get(system)
        if entry is None:
            known = ", ".join(sorted(_ENTRIES))
            raise ValueError(f"unknown system {system!r} (known: {known})")
        pack = _LOADED[system] = _load(entry)
    return pack


def pack_ids() -> Tuple[str, ...]:
    """Registered system ids, in registry order (default system first)."""
    return tuple(_ENTRIES)


def iter_packs() -> Iterator[SystemPack]:
    """Iterate over the registered packs in registry order (imports each)."""
    return (get_pack(system) for system in _ENTRIES)


def model_names() -> Tuple[str, ...]:
    """Every registered model name, sorted."""
    return tuple(sorted(_MODEL_SYSTEMS))


def model_system(model: str) -> str:
    """The system id owning ``model`` (raises with the known model names)."""
    try:
        return _MODEL_SYSTEMS[model]
    except KeyError:
        known = ", ".join(sorted(_MODEL_SYSTEMS))
        raise ValueError(f"unknown model {model!r} (known: {known})") from None


def model_builder(model: str) -> Callable[[], Any]:
    """The chart builder of ``model``, importing only its own pack."""
    return get_pack(model_system(model)).model_builders[model]

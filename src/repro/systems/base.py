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
axis.  The GPCA pump registers first and is the default system, so legacy
specs, store coordinates and snapshots that predate the registry keep their
meaning (and their bytes) unchanged.

Import discipline: this package sits *below* ``repro.campaign`` and
``repro.faults`` in the layering — packs must not import either at module
level (``fault_suite`` callables lazily import ``repro.faults.models`` inside
the call).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, Mapping, Tuple

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


_PACKS: Dict[str, SystemPack] = {}

#: Aggregated ``model name -> chart builder`` map across every registered
#: pack.  ``repro.campaign.cache`` exposes this same object as its
#: ``MODEL_BUILDERS``, so artifact-cache keys stay plain model names.
MODEL_BUILDERS: Dict[str, Callable[[], Any]] = {}

_MODEL_SYSTEMS: Dict[str, str] = {}


def register_pack(pack: SystemPack) -> SystemPack:
    """Register a pack; model names must be globally unique across packs."""
    if pack.system_id in _PACKS:
        raise ValueError(f"system {pack.system_id!r} is already registered")
    for model in pack.model_builders:
        owner = _MODEL_SYSTEMS.get(model)
        if owner is not None:
            raise ValueError(
                f"model {model!r} of system {pack.system_id!r} is already "
                f"registered by system {owner!r}"
            )
    _PACKS[pack.system_id] = pack
    for model, builder in pack.model_builders.items():
        MODEL_BUILDERS[model] = builder
        _MODEL_SYSTEMS[model] = pack.system_id
    return pack


def get_pack(system: str) -> SystemPack:
    """The registered pack for ``system`` (raises with the known ids)."""
    try:
        return _PACKS[system]
    except KeyError:
        known = ", ".join(sorted(_PACKS))
        raise ValueError(f"unknown system {system!r} (known: {known})") from None


def pack_ids() -> Tuple[str, ...]:
    """Registered system ids, in registration order (default system first)."""
    return tuple(_PACKS)


def iter_packs() -> Iterator[SystemPack]:
    """Iterate over the registered packs in registration order."""
    return iter(_PACKS.values())


def model_system(model: str) -> str:
    """The system id owning ``model`` (raises with the known model names)."""
    try:
        return _MODEL_SYSTEMS[model]
    except KeyError:
        known = ", ".join(sorted(_MODEL_SYSTEMS))
        raise ValueError(f"unknown model {model!r} (known: {known})") from None

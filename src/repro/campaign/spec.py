"""Declarative campaign specifications.

A *campaign* is a cartesian grid of implementation-scheme configurations ×
test scenarios.  Each point of the grid expands to one :class:`RunSpec` — a
frozen, picklable description of a single R-/M-testing execution that a
worker process can carry out without any shared state.  Everything a run
needs (scheme, model, scenario, sample count, every seed) lives in the spec,
so a run is a pure function of its ``RunSpec`` and campaigns aggregate
bit-identically regardless of how the grid is sharded across workers.

Seeds that the user does not pin explicitly are *derived*: a stable hash of
the campaign's base seed and the run's coordinates in the grid.  Derivation
depends only on the coordinates — never on execution order — which is what
keeps a 1-worker and an N-worker campaign byte-identical.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..platform.kernel.time import ms
from ..scenarios.dsl import ScenarioProgram
from ..systems.base import DEFAULT_SYSTEM, get_pack, model_names, model_system

if TYPE_CHECKING:  # imported lazily to keep campaign free of a faults dependency
    from ..core.requirements import TimingRequirement
    from ..core.test_generation import RTestCase
    from ..faults.models import FaultPlan
    from ..faults.mutants import MutantSpec

__all__ = [
    "CampaignSpec",
    "CasePoint",
    "KNOWN_MODELS",
    "M_TEST_ALL",
    "M_TEST_NONE",
    "M_TEST_POLICIES",
    "M_TEST_VIOLATIONS",
    "PRESETS",
    "RunSpec",
    "SchemePoint",
    "TABLE_ONE_SCHEME_SEEDS",
    "build_case",
    "case_key",
    "case_requirement",
    "coordinate_seeds",
    "derive_seed",
    "full_grid_spec",
    "interference_sweep_spec",
    "period_sweep_spec",
    "preset_spec",
    "scenario_grid_spec",
    "table_one_spec",
]

#: M-testing policies a campaign can request per run.
M_TEST_ALL = "all"
M_TEST_VIOLATIONS = "violations"
M_TEST_NONE = "none"
M_TEST_POLICIES = (M_TEST_ALL, M_TEST_VIOLATIONS, M_TEST_NONE)

#: Models the grid can target — the pack table's model names, so spec
#: validation and worker resolution share one source of truth.
KNOWN_MODELS = model_names()


def derive_seed(base_seed: int, *coordinates: object) -> int:
    """A stable 31-bit seed from the campaign seed and grid coordinates.

    Uses SHA-256 rather than ``hash()`` so the value is identical across
    processes and interpreter invocations (``hash()`` is salted per process).
    """
    key = ":".join([str(base_seed), *[repr(coordinate) for coordinate in coordinates]])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def case_key(case: str, system: str) -> str:
    """A scenario's grid coordinate: its name, as ``system:case`` off the default pack.

    Leaving the default system out keeps every seed, label and store key of
    a campaign that predates the pack registry unchanged.
    """
    return case if system == DEFAULT_SYSTEM else f"{system}:{case}"


def coordinate_seeds(
    base_seed: int, point: SchemePoint, case: str, samples: int, system: str
) -> Tuple[int, int]:
    """The ``(sut_seed, case_seed)`` derived from one grid coordinate.

    Only the coordinates enter (never execution order, a pinned seed or an
    injected defect), so a kill matrix's baseline and injected runs at one
    coordinate share both seeds and a campaign's seeds survive new axis points.
    """
    key = case_key(case, system)
    sut_seed = derive_seed(
        base_seed, "sut", point.scheme, point.period_us, point.interference_scale, key
    )
    return sut_seed, derive_seed(base_seed, "case", key, samples)


# ----------------------------------------------------------------------
# Named scenarios
# ----------------------------------------------------------------------
def build_case(
    case: str, samples: int, seed: int, *, model: str = "fig2", system: str = DEFAULT_SYSTEM
) -> RTestCase:
    """Instantiate a named scenario's stimulus schedule against ``model``.

    Deterministic; the pack's :meth:`~repro.systems.SystemPack.schedule`
    applies the model's stimulus shift, if it declares one.
    """
    pack = get_pack(system)
    try:
        builder = pack.case_builders[case]
    except KeyError:
        known = ", ".join(sorted(pack.case_builders))
        raise ValueError(f"unknown campaign scenario {case!r} (known: {known})") from None
    return pack.schedule(builder(samples), seed, model)


def case_requirement(
    case: str, samples: int = 1, seed: int = 0, *, system: str = DEFAULT_SYSTEM
) -> TimingRequirement:
    """The timing requirement a named scenario is judged against."""
    return build_case(case, samples, seed, system=system).requirement


# ----------------------------------------------------------------------
# Grid axes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchemePoint:
    """One scheme configuration on the campaign's scheme axis."""

    scheme: int
    #: Polling-period override of the single-threaded scheme (scheme 1 only).
    period_us: Optional[int] = None
    #: Interference burst scaling of the interfered scheme (scheme 3 only).
    interference_scale: Optional[float] = None
    #: Explicit system seed; derived from the campaign seed when ``None``.
    sut_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scheme not in (1, 2, 3):
            raise ValueError(f"unknown implementation scheme {self.scheme!r}")
        if self.period_us is not None and self.scheme != 1:
            raise ValueError("period_us only applies to scheme 1")
        if self.interference_scale is not None and self.scheme != 3:
            raise ValueError("interference_scale only applies to scheme 3")

    @property
    def label(self) -> str:
        parts = [f"scheme{self.scheme}"]
        if self.period_us is not None:
            parts.append(f"period={self.period_us / 1000:g}ms")
        if self.interference_scale is not None:
            parts.append(f"interference={self.interference_scale:g}x")
        return ":".join(parts)


@dataclass(frozen=True)
class CasePoint:
    """One scenario on the campaign's test-case axis.

    A point either names one of its pack's ``case_builders`` or
    carries a :class:`repro.scenarios.dsl.ScenarioProgram` directly — the DSL
    programs are frozen and picklable, so a generated scenario crosses the
    worker boundary exactly like a named one.
    """

    case: str
    samples: int = 10
    #: Explicit generation seed; derived from the campaign seed when ``None``.
    seed: Optional[int] = None
    #: Scenario-DSL program backing this point (``case`` must be its name).
    program: Optional[ScenarioProgram] = None
    #: Registered system pack this scenario exercises.
    system: str = DEFAULT_SYSTEM

    def __post_init__(self) -> None:
        pack = get_pack(self.system)
        if self.program is not None:
            if self.case != self.program.name:
                raise ValueError(
                    f"case point name {self.case!r} does not match its program "
                    f"{self.program.name!r}"
                )
        elif self.case not in pack.case_builders:
            known = ", ".join(sorted(pack.case_builders))
            raise ValueError(f"unknown campaign scenario {self.case!r} (known: {known})")
        if self.samples <= 0:
            raise ValueError("sample count must be positive")

    @classmethod
    def for_program(
        cls,
        program: ScenarioProgram,
        *,
        seed: Optional[int] = None,
        system: str = DEFAULT_SYSTEM,
    ) -> "CasePoint":
        """A case point for a scenario-DSL program (name and samples from it)."""
        return cls(
            case=program.name, samples=program.samples, seed=seed, program=program, system=system
        )


# ----------------------------------------------------------------------
# Run specs and the campaign grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One fully-resolved unit of campaign work (picklable, self-contained)."""

    index: int
    scheme: int
    case: str
    samples: int
    case_seed: int
    sut_seed: int
    model: str = "fig2"
    period_us: Optional[int] = None
    interference_scale: Optional[float] = None
    m_test: str = M_TEST_ALL
    #: Scenario-DSL program backing this run (stock named scenario when None).
    program: Optional[ScenarioProgram] = None
    #: Platform fault plan instrumented into the system (clean run when None).
    faults: Optional["FaultPlan"] = None
    #: Model mutation applied before code generation (original model when None).
    mutant: Optional["MutantSpec"] = None
    #: Registered system pack whose SUT this run executes.
    system: str = DEFAULT_SYSTEM

    @property
    def label(self) -> str:
        point = SchemePoint(self.scheme, self.period_us, self.interference_scale)
        label = f"{point.label}/{case_key(self.case, self.system)}"
        if self.faults is not None and not self.faults.empty:
            label += f"+{self.faults.name}"
        if self.mutant is not None:
            label += f"+{self.mutant.mutant_id}"
        return label

    def test_case(self) -> RTestCase:
        """Regenerate this run's stimulus schedule (deterministic)."""
        if self.program is not None:
            return get_pack(self.system).schedule(
                self.program.with_samples(self.samples), self.case_seed, self.model
            )
        return build_case(
            self.case, self.samples, self.case_seed, model=self.model, system=self.system
        )

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunSpec":
        """Rebuild a run spec from :meth:`to_dict` output (JSON round-trip safe).

        The faults/mutant coordinates import lazily so the campaign layer
        keeps its module-level independence from :mod:`repro.faults` (which
        itself imports the campaign layer).
        """
        program = payload.get("program")
        faults = payload.get("faults")
        mutant = payload.get("mutant")
        if faults is not None or mutant is not None:
            from ..faults.models import FaultPlan
            from ..faults.mutants import MutantSpec

            faults = None if faults is None else FaultPlan.from_dict(faults)
            mutant = None if mutant is None else MutantSpec.from_dict(mutant)
        return cls(
            index=int(payload["index"]),
            scheme=int(payload["scheme"]),
            case=payload["case"],
            samples=int(payload["samples"]),
            case_seed=int(payload["case_seed"]),
            sut_seed=int(payload["sut_seed"]),
            model=payload.get("model", "fig2"),
            period_us=payload.get("period_us"),
            interference_scale=payload.get("interference_scale"),
            m_test=payload.get("m_test", M_TEST_ALL),
            program=None if program is None else ScenarioProgram.from_dict(program),
            faults=faults,
            mutant=mutant,
            system=payload.get("system", DEFAULT_SYSTEM),
        )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "index": self.index,
            "label": self.label,
            "scheme": self.scheme,
            "case": self.case,
            "samples": self.samples,
            "case_seed": self.case_seed,
            "sut_seed": self.sut_seed,
            "model": self.model,
            "period_us": self.period_us,
            "interference_scale": self.interference_scale,
            "m_test": self.m_test,
            "program": None if self.program is None else self.program.to_dict(),
            "faults": None if self.faults is None else self.faults.to_dict(),
            "mutant": None if self.mutant is None else self.mutant.to_dict(),
        }
        # The default system is omitted so pre-systems serialized specs (and
        # the store keys derived from them) stay byte-identical.
        if self.system != DEFAULT_SYSTEM:
            payload["system"] = self.system
        return payload


@dataclass(frozen=True)
class CampaignSpec:
    """The cartesian test-campaign grid: scheme points × scenario points."""

    name: str
    schemes: Tuple[SchemePoint, ...]
    cases: Tuple[CasePoint, ...]
    base_seed: int = 0
    model: str = "fig2"
    m_test: str = M_TEST_ALL

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("campaign needs at least one scheme point")
        if not self.cases:
            raise ValueError("campaign needs at least one scenario point")
        if self.model not in KNOWN_MODELS:
            raise ValueError(f"unknown model {self.model!r} (known: {KNOWN_MODELS})")
        if self.m_test not in M_TEST_POLICIES:
            raise ValueError(f"unknown m_test policy {self.m_test!r} (known: {M_TEST_POLICIES})")

    @property
    def size(self) -> int:
        return len(self.schemes) * len(self.cases)

    def expand(self) -> Tuple[RunSpec, ...]:
        """Expand the grid into one :class:`RunSpec` per (scheme, case) pair.

        Expansion order — and therefore every run's index — is the cartesian
        product order, independent of workers or execution order.  Unpinned
        seeds are derived from the run's coordinates so inserting a new axis
        point never reshuffles the seeds of existing points.
        """
        runs = []
        for index, (scheme_point, case_point) in enumerate(
            itertools.product(self.schemes, self.cases)
        ):
            sut_seed, case_seed = coordinate_seeds(
                self.base_seed,
                scheme_point,
                case_point.case,
                case_point.samples,
                case_point.system,
            )
            if scheme_point.sut_seed is not None:
                sut_seed = scheme_point.sut_seed
            if case_point.seed is not None:
                case_seed = case_point.seed
            # The campaign-level model only applies to runs of the system
            # that owns it; case points from other packs run their pack's
            # default model.
            if model_system(self.model) == case_point.system:
                run_model = self.model
            else:
                run_model = get_pack(case_point.system).default_model
            runs.append(
                RunSpec(
                    index=index,
                    scheme=scheme_point.scheme,
                    case=case_point.case,
                    samples=case_point.samples,
                    case_seed=case_seed,
                    sut_seed=sut_seed,
                    model=run_model,
                    period_us=scheme_point.period_us,
                    interference_scale=scheme_point.interference_scale,
                    m_test=self.m_test,
                    program=case_point.program,
                    system=case_point.system,
                )
            )
        return tuple(runs)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CampaignSpec":
        """Rebuild a campaign spec from :meth:`to_dict` output.

        ``size`` is derived, so it is ignored on input; everything else —
        including scenario-DSL programs on the case points — round-trips, and
        ``spec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()`` holds
        byte for byte (the persistent run store depends on this).
        """
        return cls(
            name=payload["name"],
            base_seed=int(payload.get("base_seed", 0)),
            model=payload.get("model", "fig2"),
            m_test=payload.get("m_test", M_TEST_ALL),
            schemes=tuple(
                SchemePoint(
                    scheme=int(point["scheme"]),
                    period_us=point.get("period_us"),
                    interference_scale=point.get("interference_scale"),
                    sut_seed=point.get("sut_seed"),
                )
                for point in payload["schemes"]
            ),
            cases=tuple(
                CasePoint(
                    case=point["case"],
                    samples=int(point["samples"]),
                    seed=point.get("seed"),
                    program=None
                    if point.get("program") is None
                    else ScenarioProgram.from_dict(point["program"]),
                    system=point.get("system", DEFAULT_SYSTEM),
                )
                for point in payload["cases"]
            ),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "base_seed": self.base_seed,
            "model": self.model,
            "m_test": self.m_test,
            "size": self.size,
            "schemes": [
                {
                    "scheme": point.scheme,
                    "period_us": point.period_us,
                    "interference_scale": point.interference_scale,
                    "sut_seed": point.sut_seed,
                }
                for point in self.schemes
            ],
            "cases": [self._case_payload(point) for point in self.cases],
        }

    @staticmethod
    def _case_payload(point: CasePoint) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "case": point.case,
            "samples": point.samples,
            "seed": point.seed,
            "program": None if point.program is None else point.program.to_dict(),
        }
        # The default system is omitted so pre-systems serialized campaigns
        # stay byte-identical.
        if point.system != DEFAULT_SYSTEM:
            payload["system"] = point.system
        return payload


# ----------------------------------------------------------------------
# Preset grids (the paper's evaluation, expressed as campaigns)
# ----------------------------------------------------------------------
#: The per-scheme system seeds the Table I reproduction has always used.
TABLE_ONE_SCHEME_SEEDS = {1: 11, 2: 22, 3: 33}


def table_one_spec(samples: int = 10, case_seed: int = 7) -> CampaignSpec:
    """The Table I grid: all three schemes × the bolus-request scenario."""
    return CampaignSpec(
        name="table1",
        schemes=tuple(
            SchemePoint(scheme, sut_seed=TABLE_ONE_SCHEME_SEEDS[scheme]) for scheme in (1, 2, 3)
        ),
        cases=(CasePoint("bolus-request", samples=samples, seed=case_seed),),
        m_test=M_TEST_ALL,
    )


def period_sweep_spec(
    periods_ms: Tuple[int, ...] = (10, 15, 20, 25, 35, 50),
    samples: int = 6,
    *,
    sut_seed: int = 17,
    case_seed: int = 5,
) -> CampaignSpec:
    """Ablation A1: scheme 1's polling period versus REQ1 violations."""
    return CampaignSpec(
        name="periods",
        schemes=tuple(
            SchemePoint(1, period_us=ms(period_ms), sut_seed=sut_seed) for period_ms in periods_ms
        ),
        cases=(CasePoint("bolus-request", samples=samples, seed=case_seed),),
        m_test=M_TEST_NONE,
    )


def interference_sweep_spec(
    scales: Tuple[float, ...] = (0.0, 0.4, 0.8, 1.0, 1.2),
    samples: int = 6,
    *,
    sut_seed: int = 29,
    case_seed: int = 5,
) -> CampaignSpec:
    """Ablation A2: scheme 3's interference load versus REQ1 violations."""
    return CampaignSpec(
        name="interference",
        schemes=tuple(
            SchemePoint(3, interference_scale=scale, sut_seed=sut_seed) for scale in scales
        ),
        cases=(CasePoint("bolus-request", samples=samples, seed=case_seed),),
        m_test=M_TEST_NONE,
    )


def full_grid_spec(samples: int = 5, base_seed: int = 0) -> CampaignSpec:
    """Every scheme × every GPCA scenario (the widest stock campaign)."""
    return CampaignSpec(
        name="full",
        schemes=tuple(SchemePoint(scheme) for scheme in (1, 2, 3)),
        cases=tuple(
            CasePoint(case, samples=samples)
            for case in sorted(get_pack(DEFAULT_SYSTEM).case_builders)
        ),
        base_seed=base_seed,
        m_test=M_TEST_VIOLATIONS,
    )


def scenario_grid_spec(
    count: int = 4, samples: Optional[int] = None, base_seed: int = 0
) -> CampaignSpec:
    """Generated-scenario grid: all three schemes × ``count`` sampled programs.

    The programs are drawn from :func:`repro.gpca.scenarios.gpca_scenario_space`
    with a sampler seeded by ``base_seed``, so the grid — including every
    program's shape — is a pure function of ``(count, samples, base_seed)``.
    ``samples`` overrides each program's own sample count when given.
    """
    from ..gpca.scenarios import gpca_scenario_space
    from ..scenarios.generator import ScenarioSampler

    if count <= 0:
        raise ValueError("scenario count must be positive")
    sampler = ScenarioSampler(gpca_scenario_space(), seed=base_seed)
    programs = [sampler.sample() for _ in range(count)]
    if samples is not None:
        programs = [program.with_samples(samples) for program in programs]
    return CampaignSpec(
        name="scenarios",
        schemes=tuple(SchemePoint(scheme) for scheme in (1, 2, 3)),
        cases=tuple(CasePoint.for_program(program) for program in programs),
        base_seed=base_seed,
        m_test=M_TEST_NONE,
    )


def preset_spec(grid: str, *, samples: Optional[int] = None, seed: Optional[int] = None) -> CampaignSpec:
    """Build one of the stock campaign grids, with optional overrides.

    ``samples``/``seed`` default to each grid's canonical values (the ones
    the benchmarks have always used), so ``preset_spec("table1")`` is exactly
    the Table I reproduction.
    """
    overrides = {}
    if samples is not None:
        overrides["samples"] = samples
    if grid == "table1":
        return table_one_spec(**overrides, **({} if seed is None else {"case_seed": seed}))
    if grid == "periods":
        return period_sweep_spec(**overrides, **({} if seed is None else {"case_seed": seed}))
    if grid == "interference":
        return interference_sweep_spec(
            **overrides, **({} if seed is None else {"case_seed": seed})
        )
    if grid == "full":
        return full_grid_spec(**overrides, **({} if seed is None else {"base_seed": seed}))
    if grid == "scenarios":
        return scenario_grid_spec(**overrides, **({} if seed is None else {"base_seed": seed}))
    raise ValueError(f"unknown campaign grid {grid!r} (known: {sorted(PRESETS)})")


#: The stock grid names accepted by ``repro campaign --grid``.
PRESETS = ("table1", "periods", "interference", "full", "scenarios")

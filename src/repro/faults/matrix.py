"""The kill-matrix engine: (faults × mutants × schemes × scenarios) campaigns.

A :class:`FaultMatrixSpec` expands a sensitivity-evaluation grid into the same
picklable :class:`repro.campaign.spec.RunSpec` units the stock campaigns use,
so the whole matrix fans through the existing parallel
:class:`repro.campaign.runner.CampaignRunner` unchanged — sharding, the
process-pool fallback and byte-identical aggregation all come for free.

Three kinds of grid point are generated:

* **baseline** — clean platform, original model: the reference verdicts;
* **fault** — one :class:`~repro.faults.models.FaultPlan` instrumented into
  the platform, original model: *is the seeded platform fault detected?*
* **mutant** — clean platform, one :class:`~repro.faults.mutants.MutantSpec`
  applied to the model before code generation: *is the seeded model defect
  killed?*

Baseline and faulted/mutated runs at the same ``(scheme, case)`` coordinate
share every derived seed, so the only difference between them is the injected
defect — a verdict change is attributable to the defect alone.  A fault is
**detected** (a mutant is **killed**) at a coordinate when the baseline run
passes there and the injected run does not; the :class:`KillMatrix` scores
detection/kill across coordinates, computes the mutation score and renders
the matrix tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..campaign.results import CampaignResult, RunRecord
from ..campaign.runner import CampaignRunner
from ..campaign.spec import (
    M_TEST_NONE,
    M_TEST_POLICIES,
    RunSpec,
    SchemePoint,
    coordinate_seeds,
)
from ..systems import DEFAULT_SYSTEM, get_pack, model_system
from .models import FaultPlan
from .mutants import MutantSpec, generate_mutants

#: Grid-point roles, recorded per run for the scoring pass.
ROLE_BASELINE = "baseline"
ROLE_FAULT = "fault"
ROLE_MUTANT = "mutant"


@dataclass(frozen=True)
class FaultMatrixSpec:
    """The declarative kill-matrix grid (duck-type of ``CampaignSpec``).

    Implements the ``expand() / to_dict() / name / size`` surface the campaign
    runner and result aggregate consume, so a matrix runs through
    :class:`CampaignRunner` exactly like a stock campaign.
    """

    name: str = "kill-matrix"
    fault_plans: Tuple[FaultPlan, ...] = ()
    mutants: Tuple[MutantSpec, ...] = ()
    #: Schemes the platform-fault axis runs on (queue faults need scheme >= 2).
    fault_schemes: Tuple[int, ...] = (1, 2)
    #: Schemes the mutant axis runs on (a conformant scheme, so kills are
    #: attributable to the mutation rather than to platform timing).
    mutant_schemes: Tuple[int, ...] = (2,)
    cases: Tuple[str, ...] = tuple(sorted(get_pack(DEFAULT_SYSTEM).case_builders))
    samples: int = 4
    base_seed: int = 0
    model: str = "fig2"
    m_test: str = M_TEST_NONE
    #: Registered system pack the whole matrix runs against.
    system: str = DEFAULT_SYSTEM

    def __post_init__(self) -> None:
        pack = get_pack(self.system)
        if not self.cases:
            raise ValueError("kill matrix needs at least one scenario")
        for plan in self.fault_plans:
            if plan.empty:
                # An empty plan would be classified as a baseline run and
                # silently vanish from the scoring — reject it up front.
                raise ValueError(f"fault plan {plan.name!r} is empty (baselines are implicit)")
        plan_names = [plan.name for plan in self.fault_plans]
        if len(set(plan_names)) != len(plan_names):
            raise ValueError("fault plan names must be unique (duplicate rows would merge)")
        mutant_ids = [mutant.mutant_id for mutant in self.mutants]
        if len(set(mutant_ids)) != len(mutant_ids):
            raise ValueError("mutant ids must be unique (duplicate rows would merge)")
        for case in self.cases:
            if case not in pack.case_builders:
                known = ", ".join(sorted(pack.case_builders))
                raise ValueError(f"unknown scenario {case!r} (known: {known})")
        for scheme in (*self.fault_schemes, *self.mutant_schemes):
            if scheme not in (1, 2, 3):
                raise ValueError(f"unknown implementation scheme {scheme!r}")
        if self.samples <= 0:
            raise ValueError("sample count must be positive")
        if model_system(self.model) != self.system:
            raise ValueError(
                f"model {self.model!r} does not belong to system {self.system!r}"
            )
        if self.m_test not in M_TEST_POLICIES:
            raise ValueError(f"unknown m_test policy {self.m_test!r}")

    # ------------------------------------------------------------------
    @property
    def baseline_schemes(self) -> Tuple[int, ...]:
        """Every scheme any axis touches (each needs a clean reference run)."""
        return tuple(sorted(set(self.fault_schemes) | set(self.mutant_schemes)))

    @property
    def size(self) -> int:
        baselines = len(self.baseline_schemes) * len(self.cases)
        faults = len(self.fault_plans) * len(self.fault_schemes) * len(self.cases)
        mutants = len(self.mutants) * len(self.mutant_schemes) * len(self.cases)
        return baselines + faults + mutants

    # ------------------------------------------------------------------
    def _run(self, index: int, scheme: int, case: str, *, faults=None, mutant=None) -> RunSpec:
        # Seeds come from the coordinate alone, so baseline and injected runs
        # at one coordinate differ *solely* in the defect.
        sut_seed, case_seed = coordinate_seeds(
            self.base_seed, SchemePoint(scheme), case, self.samples, self.system
        )
        return RunSpec(
            index=index,
            scheme=scheme,
            case=case,
            samples=self.samples,
            case_seed=case_seed,
            sut_seed=sut_seed,
            model=self.model,
            m_test=self.m_test,
            faults=faults,
            mutant=mutant,
            system=self.system,
        )

    def expand(self) -> Tuple[RunSpec, ...]:
        """Expand the matrix in a fixed order: baselines, faults, mutants."""
        runs: List[RunSpec] = []
        for scheme in self.baseline_schemes:
            for case in self.cases:
                runs.append(self._run(len(runs), scheme, case))
        for plan in self.fault_plans:
            for scheme in self.fault_schemes:
                for case in self.cases:
                    runs.append(self._run(len(runs), scheme, case, faults=plan))
        for mutant in self.mutants:
            for scheme in self.mutant_schemes:
                for case in self.cases:
                    runs.append(self._run(len(runs), scheme, case, mutant=mutant))
        return tuple(runs)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "base_seed": self.base_seed,
            "model": self.model,
            "m_test": self.m_test,
            "samples": self.samples,
            "size": self.size,
            "cases": list(self.cases),
            "fault_schemes": list(self.fault_schemes),
            "mutant_schemes": list(self.mutant_schemes),
            "fault_plans": [plan.to_dict() for plan in self.fault_plans],
            "mutants": [mutant.to_dict() for mutant in self.mutants],
        }
        # The default system is omitted so pre-systems serialized matrices
        # stay byte-identical.
        if self.system != DEFAULT_SYSTEM:
            payload["system"] = self.system
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultMatrixSpec":
        """Rebuild a matrix spec from :meth:`to_dict` output (``size`` is derived)."""
        return cls(
            name=payload["name"],
            base_seed=int(payload.get("base_seed", 0)),
            model=payload.get("model", "fig2"),
            m_test=payload.get("m_test", M_TEST_NONE),
            samples=int(payload.get("samples", 4)),
            cases=tuple(payload.get("cases", ())),
            fault_schemes=tuple(payload.get("fault_schemes", ())),
            mutant_schemes=tuple(payload.get("mutant_schemes", ())),
            fault_plans=tuple(FaultPlan.from_dict(plan) for plan in payload.get("fault_plans", ())),
            mutants=tuple(MutantSpec.from_dict(mutant) for mutant in payload.get("mutants", ())),
            system=payload.get("system", DEFAULT_SYSTEM),
        )


def default_matrix_spec(
    *,
    samples: int = 4,
    base_seed: int = 0,
    model: Optional[str] = None,
    system: str = DEFAULT_SYSTEM,
    fault_schemes: Tuple[int, ...] = (1, 2),
    mutant_schemes: Tuple[int, ...] = (2,),
) -> FaultMatrixSpec:
    """The stock kill matrix: a pack's fault suite × its model's mutants.

    ``model`` defaults to the system's default model.  Mutants are generated
    from — and, inside the workers, re-applied to — the same named model, and
    everything else (fault suite, seeds) is deterministic, so the matrix
    verdicts are a pure function of the arguments.
    """
    pack = get_pack(system)
    if model is None:
        model = pack.default_model
    if model not in pack.model_builders:
        known = ", ".join(sorted(pack.model_builders))
        raise ValueError(f"unknown model {model!r} for system {system!r} (known: {known})")
    chart = pack.model_builders[model]()
    return FaultMatrixSpec(
        name="kill-matrix",
        fault_plans=tuple(pack.fault_suite()),
        mutants=generate_mutants(chart),
        fault_schemes=fault_schemes,
        mutant_schemes=mutant_schemes,
        cases=tuple(sorted(pack.case_builders)),
        samples=samples,
        base_seed=base_seed,
        model=model,
        system=system,
    )


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------
def _record_role(record: RunRecord) -> str:
    if record.spec.mutant is not None:
        return ROLE_MUTANT
    if record.spec.faults is not None and not record.spec.faults.empty:
        return ROLE_FAULT
    return ROLE_BASELINE


@dataclass(frozen=True)
class MatrixCell:
    """One scored (injected run, coordinate) cell of the kill matrix."""

    scheme: int
    case: str
    baseline_passed: bool
    injected_passed: bool
    violations: int
    timeouts: int

    @property
    def killed(self) -> bool:
        """The defect changed a passing verdict at this coordinate."""
        return self.baseline_passed and not self.injected_passed

    @property
    def scoreable(self) -> bool:
        """Only coordinates whose baseline passes can attribute a kill."""
        return self.baseline_passed

    def to_dict(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "case": self.case,
            "baseline_passed": self.baseline_passed,
            "injected_passed": self.injected_passed,
            "killed": self.killed,
            "violations": self.violations,
            "timeouts": self.timeouts,
        }


@dataclass
class KillMatrix:
    """The scored kill matrix built from one matrix campaign's records."""

    spec: FaultMatrixSpec
    campaign: CampaignResult
    #: fault-plan name -> coordinate cells.
    fault_cells: Dict[str, List[MatrixCell]] = field(default_factory=dict)
    #: mutant id -> coordinate cells.
    mutant_cells: Dict[str, List[MatrixCell]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def from_campaign(cls, spec: FaultMatrixSpec, campaign: CampaignResult) -> "KillMatrix":
        baselines: Dict[Tuple[int, str], RunRecord] = {}
        for record in campaign.records:
            if _record_role(record) == ROLE_BASELINE:
                baselines[(record.spec.scheme, record.spec.case)] = record

        matrix = cls(spec=spec, campaign=campaign)
        for record in campaign.records:
            role = _record_role(record)
            if role == ROLE_BASELINE:
                continue
            coordinate = (record.spec.scheme, record.spec.case)
            baseline = baselines.get(coordinate)
            cell = MatrixCell(
                scheme=record.spec.scheme,
                case=record.spec.case,
                baseline_passed=baseline.passed if baseline is not None else False,
                injected_passed=record.passed,
                violations=record.violation_count,
                timeouts=record.timeout_count,
            )
            if role == ROLE_FAULT:
                matrix.fault_cells.setdefault(record.spec.faults.name, []).append(cell)
            else:
                matrix.mutant_cells.setdefault(record.spec.mutant.mutant_id, []).append(cell)
        return matrix

    # ------------------------------------------------------------------
    # Fault-side scoring
    # ------------------------------------------------------------------
    def detected_faults(self) -> List[str]:
        return [name for name, cells in self.fault_cells.items() if any(c.killed for c in cells)]

    def undetected_faults(self) -> List[str]:
        detected = set(self.detected_faults())
        return [name for name in self.fault_cells if name not in detected]

    def fault_detecting_cases(self, name: str) -> List[str]:
        """The scenarios (requirements) that detect one fault plan."""
        seen: List[str] = []
        for cell in self.fault_cells.get(name, ()):
            if cell.killed and cell.case not in seen:
                seen.append(cell.case)
        return seen

    # ------------------------------------------------------------------
    # Mutant-side scoring
    # ------------------------------------------------------------------
    def killed_mutants(self) -> List[str]:
        return [mid for mid, cells in self.mutant_cells.items() if any(c.killed for c in cells)]

    def surviving_mutants(self) -> List[str]:
        killed = set(self.killed_mutants())
        return [mid for mid in self.mutant_cells if mid not in killed]

    @property
    def mutation_score(self) -> Optional[float]:
        """Killed mutants over all mutants (``None`` with an empty mutant axis)."""
        if not self.mutant_cells:
            return None
        return len(self.killed_mutants()) / len(self.mutant_cells)

    # ------------------------------------------------------------------
    # Rendering and export
    # ------------------------------------------------------------------
    def _render_table(self, title: str, cells_by_row: Dict[str, List[MatrixCell]]) -> List[str]:
        columns: List[Tuple[int, str]] = []
        for cells in cells_by_row.values():
            for cell in cells:
                key = (cell.scheme, cell.case)
                if key not in columns:
                    columns.append(key)
        columns.sort()
        width = max([len(row) for row in cells_by_row] + [8])
        # Column width follows the longest header so no case name is ever
        # truncated (the two empty-reservoir scenarios would otherwise
        # collide into identical headers).
        headers = [f"s{scheme}:{case}" for scheme, case in columns]
        column_width = max([len(header) for header in headers] + [14])
        header = f"{title:<{width}} | " + " | ".join(
            f"{label:<{column_width}}" for label in headers
        )
        lines = [header, "-" * len(header)]
        for row, cells in cells_by_row.items():
            by_coord = {(c.scheme, c.case): c for c in cells}
            rendered = []
            for key in columns:
                cell = by_coord.get(key)
                if cell is None:
                    label = ""
                elif not cell.scoreable:
                    label = "(base fails)"
                elif cell.killed:
                    label = f"KILL v{cell.violations}/MAX{cell.timeouts}"
                else:
                    label = "-"
                rendered.append(f"{label:<{column_width}}")
            lines.append(f"{row:<{width}} | " + " | ".join(rendered))
        return lines

    def render(self) -> str:
        lines: List[str] = []
        if self.fault_cells:
            lines.extend(self._render_table("fault plan", self.fault_cells))
            detected = self.detected_faults()
            lines.append(
                f"fault classes detected: {len(detected)}/{len(self.fault_cells)}"
                + (
                    f" (undetected: {', '.join(self.undetected_faults())})"
                    if self.undetected_faults()
                    else ""
                )
            )
        if self.mutant_cells:
            if lines:
                lines.append("")
            lines.extend(self._render_table("mutant", self.mutant_cells))
            score = self.mutation_score
            lines.append(
                f"mutation score: {len(self.killed_mutants())}/{len(self.mutant_cells)}"
                f" ({score:.0%})"
                + (
                    f" (surviving: {', '.join(self.surviving_mutants())})"
                    if self.surviving_mutants()
                    else ""
                )
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """The canonical (deterministic) scoring payload."""
        return {
            "spec": self.spec.to_dict(),
            "faults": {
                name: {
                    "detected": any(cell.killed for cell in cells),
                    "detected_by": self.fault_detecting_cases(name),
                    "cells": [cell.to_dict() for cell in cells],
                }
                for name, cells in self.fault_cells.items()
            },
            "mutants": {
                mutant_id: {
                    "killed": any(cell.killed for cell in cells),
                    "cells": [cell.to_dict() for cell in cells],
                }
                for mutant_id, cells in self.mutant_cells.items()
            },
            "mutation_score": self.mutation_score,
            "detected_fault_count": len(self.detected_faults()),
            "fault_plan_count": len(self.fault_cells),
        }


def run_kill_matrix(spec: FaultMatrixSpec, *, workers: int = 1) -> KillMatrix:
    """Execute a kill-matrix grid through the parallel campaign runner.

    Returns the scored :class:`KillMatrix`; the raw per-run campaign aggregate
    stays available as ``matrix.campaign`` (byte-identical for any worker
    count, like every campaign).
    """
    campaign = CampaignRunner(spec, workers=workers).run()
    return KillMatrix.from_campaign(spec, campaign)

"""Campaign results: per-run records and the campaign-level aggregate.

A :class:`RunRecord` is the worker's return value for one grid point.  It
carries only built-in types (the JSON-shaped payloads of the existing
serialization module), so it crosses process boundaries cheaply and its
canonical rendering is byte-identical no matter which worker produced it.
Wall-clock timings are kept *outside* the canonical payload — they are the
one legitimately non-deterministic output of a campaign.

:class:`CampaignResult` aggregates the records in grid order and feeds the
existing analysis layer: :meth:`CampaignResult.table_one` rebuilds the
paper's Table I and :meth:`CampaignResult.sweep_points` the Fig.-style
ablation series, both from the serialized payloads alone.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..systems.base import generic_scheme_name
from .spec import CampaignSpec, RunSpec, case_requirement

if TYPE_CHECKING:
    from ..analysis.figures import SweepPoint
    from ..analysis.tables import TableOne
    from ..core.m_testing import MTestReport
    from ..core.r_testing import RTestReport

RESULT_FORMAT_VERSION = 1

#: The fixed column schema of :meth:`CampaignResult.summary_rows` /
#: :meth:`CampaignResult.to_csv`.  Declared once so an *empty* campaign CSV
#: still carries the full header row and downstream store/diff exports can
#: rely on a stable schema.
SUMMARY_FIELDS = (
    "index",
    "label",
    "scheme",
    "case",
    "samples",
    "passed",
    "violations",
    "timeouts",
    "max_latency_ms",
)


@dataclass(frozen=True)
class RunRecord:
    """The outcome of one campaign run (picklable, deterministic payload)."""

    spec: RunSpec
    r_payload: Dict[str, Any]
    m_payload: Optional[Dict[str, Any]] = None
    #: Worker-side wall-clock of this run; excluded from the canonical dict.
    elapsed_s: float = 0.0
    #: Worker-side per-phase wall-clock (codegen/execute/analyze seconds).
    #: Timing side channel like ``elapsed_s``: excluded from the canonical
    #: dict, persisted separately by the store so ``repro store runs`` can
    #: answer "which coordinates are slow, and in which phase".
    phase_seconds: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    # Reconstruction of the report objects the analysis layer consumes
    # ------------------------------------------------------------------
    def r_report(self) -> RTestReport:
        """Rebuild the R-test report (test case regenerated from the spec).

        Memoised: the aggregate consumers (summary, table, CSV) each walk the
        records, and regenerating the stimulus schedule per walk is pure
        waste.  The payload is immutable once the record exists, so caching
        is safe; ``object.__setattr__`` is the standard escape hatch for a
        frozen dataclass.
        """
        cached = self.__dict__.get("_r_report_cache")
        if cached is None:
            from ..core.serialization import r_report_from_dict

            cached = r_report_from_dict(self.r_payload, self.spec.test_case())
            object.__setattr__(self, "_r_report_cache", cached)
        return cached

    def m_report(self) -> Optional[MTestReport]:
        """Rebuild the M-test report, if this run performed M-testing."""
        if self.m_payload is None:
            return None
        from ..core.serialization import m_report_from_dict

        # The requirement is sample-independent; program-backed runs carry it
        # directly, and for stock scenarios case_requirement's one-sample
        # default avoids regenerating the run's full stimulus schedule here.
        if self.spec.program is not None:
            requirement = self.spec.program.requirement
        else:
            requirement = case_requirement(self.spec.case, system=self.spec.system)
        return m_report_from_dict(self.m_payload, requirement)

    # ------------------------------------------------------------------
    @property
    def passed(self) -> bool:
        return bool(self.r_payload.get("passed"))

    @property
    def violation_count(self) -> int:
        return int(self.r_payload.get("violations", 0))

    @property
    def timeout_count(self) -> int:
        return int(self.r_payload.get("timeouts", 0))

    def to_dict(self) -> Dict[str, Any]:
        """The canonical (deterministic) rendering of this record."""
        return {
            "spec": self.spec.to_dict(),
            "r": self.r_payload,
            "m": self.m_payload,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output (JSON round-trip safe).

        Wall-clock timing is not part of the canonical payload, so a rebuilt
        record reports ``elapsed_s == 0.0``; everything that feeds
        :meth:`to_dict` round-trips byte-identically.
        """
        return cls(
            spec=RunSpec.from_dict(payload["spec"]),
            r_payload=payload["r"],
            m_payload=payload.get("m"),
        )


@dataclass
class CampaignResult:
    """Aggregate of a full campaign, ordered by grid index."""

    spec: CampaignSpec
    records: List[RunRecord] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0

    def __post_init__(self) -> None:
        self.records = sorted(self.records, key=lambda record: record.spec.index)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Bridges into repro.analysis
    # ------------------------------------------------------------------
    def table_one(self, case: str = "bolus-request") -> TableOne:
        """Rebuild the paper's Table I from this campaign's clean runs at ``case``.

        A clean run has no fault plan and no mutant, so a kill matrix's table
        holds only its baselines.  Table I has one column group per scheme:
        raises :class:`LookupError` when ``case`` has no clean run, or when
        one scheme has two (a period or interference sweep).
        """
        from ..analysis.tables import SchemeResult, TableOne

        table = TableOne()
        for record in self.records:
            spec = record.spec
            if spec.case != case or spec.mutant is not None:
                continue
            if spec.faults is not None and not spec.faults.empty:
                continue
            if any(result.scheme == spec.scheme for result in table.results):
                raise LookupError(
                    f"Table I needs one clean run per scheme, but scheme {spec.scheme} "
                    f"has several at case {case!r}"
                )
            table.add(
                SchemeResult(
                    scheme=spec.scheme,
                    label=generic_scheme_name(spec.scheme),
                    r_report=record.r_report(),
                    m_report=record.m_report(),
                )
            )
        if not table.results:
            raise LookupError(f"no clean run at case {case!r} to build Table I from")
        return table

    def sweep_points(self, axis: str) -> List[SweepPoint]:
        """The ablation sweep series along ``axis``.

        ``axis`` is ``"period_ms"`` (scheme 1 polling period) or
        ``"interference_scale"`` (scheme 3 burst scaling).
        """
        from ..analysis.figures import sweep_point

        points = []
        for record in self.records:
            if axis == "period_ms":
                if record.spec.period_us is None:
                    continue
                parameter = record.spec.period_us / 1000.0
            elif axis == "interference_scale":
                if record.spec.interference_scale is None:
                    continue
                parameter = record.spec.interference_scale
            else:
                raise ValueError(f"unknown sweep axis {axis!r}")
            points.append(sweep_point(parameter, record.r_report()))
        return points

    # ------------------------------------------------------------------
    # Summaries and export
    # ------------------------------------------------------------------
    def summary_rows(self) -> List[Dict[str, Any]]:
        """One compact row per run (used by the CLI listing and the CSV export)."""
        rows = []
        for record in self.records:
            r_report = record.r_report()
            max_latency = r_report.max_latency_us
            rows.append(
                {
                    "index": record.spec.index,
                    "label": record.spec.label,
                    "scheme": record.spec.scheme,
                    "case": record.spec.case,
                    "samples": len(r_report.samples),
                    "passed": record.passed,
                    "violations": record.violation_count,
                    "timeouts": record.timeout_count,
                    "max_latency_ms": None if max_latency is None else round(max_latency / 1000, 1),
                }
            )
        return rows

    def render_summary(self) -> str:
        """Plain-text per-run listing of the campaign."""
        header = (
            f"{'run':>4} | {'configuration':<38} | {'samples':>7} | {'verdict':>7} | "
            f"{'viol':>4} | {'MAX':>4} | {'worst (ms)':>10}"
        )
        lines = [f"campaign {self.spec.name!r}: {len(self.records)} runs", header, "-" * len(header)]
        for row in self.summary_rows():
            worst = "-" if row["max_latency_ms"] is None else f"{row['max_latency_ms']:.1f}"
            lines.append(
                f"{row['index']:>4} | {row['label']:<38} | {row['samples']:>7} | "
                f"{'PASS' if row['passed'] else 'FAIL':>7} | {row['violations']:>4} | "
                f"{row['timeouts']:>4} | {worst:>10}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """The canonical aggregate: identical for 1 and N workers, by design.

        Timing fields (``wall_seconds``, per-record ``elapsed_s``, worker
        count) are deliberately excluded.
        """
        return {
            "format_version": RESULT_FORMAT_VERSION,
            "campaign": self.spec.to_dict(),
            "runs": [record.to_dict() for record in self.records],
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CampaignResult":
        """Rebuild a campaign aggregate from :meth:`to_dict` output.

        Dispatches on the campaign payload's shape: a grid with explicit
        ``schemes``/``cases`` axes rebuilds as :class:`CampaignSpec`, a
        kill-matrix payload (``fault_plans``/``mutants`` axes) rebuilds as
        :class:`repro.faults.matrix.FaultMatrixSpec` (imported lazily to keep
        the campaign layer independent of the faults subsystem).  Timing
        fields are not part of the canonical payload, so the rebuilt result
        reports zero wall-clock; its :meth:`to_json` is byte-identical to the
        original's.
        """
        campaign = payload["campaign"]
        if "fault_plans" in campaign:
            from ..faults.matrix import FaultMatrixSpec

            spec = FaultMatrixSpec.from_dict(campaign)
        else:
            spec = CampaignSpec.from_dict(campaign)
        return cls(
            spec=spec,
            records=[RunRecord.from_dict(record) for record in payload.get("runs", [])],
        )

    def to_csv(self) -> str:
        """The per-run summary table as CSV.

        The header always carries the full :data:`SUMMARY_FIELDS` schema —
        even for an empty campaign — so exports have a fixed shape.
        """
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(SUMMARY_FIELDS))
        writer.writeheader()
        writer.writerows(self.summary_rows())
        return buffer.getvalue()

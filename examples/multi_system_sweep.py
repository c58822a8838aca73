#!/usr/bin/env python3
"""Multi-system sweep: one campaign grid spanning all three system packs.

The system-pack registry makes the system under test just another campaign
axis.  This example builds a single :class:`CampaignSpec` whose case points
come from three different packs — the GPCA infusion pump, the rate-adaptive
cardiac pacemaker and the cruise/AEB controller — crossed with implementation
schemes 1 and 2, and runs the whole grid through the parallel campaign
engine.  Each run lowers its own pack's statechart through codegen and
verifies its own timing requirement; the aggregate stays bit-for-bit
reproducible at any worker count.

Run with:  python examples/multi_system_sweep.py
"""

from __future__ import annotations

from repro.campaign.runner import CampaignRunner, default_worker_count
from repro.campaign.spec import CampaignSpec, CasePoint, SchemePoint
from repro.systems import get_pack, iter_packs

SAMPLES = 4
WORKERS = min(4, default_worker_count())

#: One representative scenario per pack (every pack ships more; see
#: ``repro systems`` on the command line for the full inventory).
SCENARIOS = (
    ("gpca", "bolus-request"),
    ("pacemaker", "sense-inhibit"),
    ("cruise", "engage"),
)


def build_spec() -> CampaignSpec:
    return CampaignSpec(
        name="example-multi-system",
        schemes=(SchemePoint(1), SchemePoint(2)),
        cases=tuple(
            CasePoint(case, samples=SAMPLES, system=system)
            for system, case in SCENARIOS
        ),
        base_seed=7,
        m_test="violations",
    )


def main() -> None:
    print("registered system packs:")
    for pack in iter_packs():
        print(
            f"  {pack.system_id:<10} {pack.title} "
            f"({len(pack.case_builders)} scenarios, model {pack.default_model})"
        )
    print()

    spec = build_spec()
    print(f"running {spec.size} campaign runs on {WORKERS} worker(s) ...")
    result = CampaignRunner(spec, workers=WORKERS).run()

    print()
    print(result.render_summary())
    print(f"wall clock: {result.wall_seconds:.2f} s")

    # Group verdicts by system: each pack's requirement speaks for itself.
    print()
    for system in sorted({record.spec.system for record in result.records}):
        pack = get_pack(system)
        records = [r for r in result.records if r.spec.system == system]
        passed = sum(1 for r in records if r.passed)
        print(f"{pack.title}: {passed}/{len(records)} runs conform")
        for record in records:
            requirement = record.spec.test_case().requirement
            verdict = "PASS" if record.passed else "FAIL"
            print(
                f"  [{verdict}] {record.spec.label:<32} "
                f"{requirement.requirement_id}: {requirement.description}"
            )


if __name__ == "__main__":
    main()

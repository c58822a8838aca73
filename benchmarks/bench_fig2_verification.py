"""Benchmark: Fig. 2 — model-level verification of the timing requirements.

The paper verifies REQ1 on the Stateflow model of Fig. 2 with Simulink Design
Verifier before any code is generated.  This benchmark reproduces that step
with the explicit-state bounded-response checker: every GPCA timing
requirement is verified on both the Fig. 2 fragment and the extended chart,
and a deliberately tightened REQ1 (50 ms < the model's 100 ms bound) is shown
to fail — demonstrating the checker is not vacuous.
"""

from __future__ import annotations


from repro.gpca.model import build_extended_statechart, build_fig2_statechart
from repro.gpca.requirements import gpca_requirements, req1_bolus_start
from repro.model.verification import BoundedResponseChecker


def verify_all():
    results = []
    for chart in (build_fig2_statechart(), build_extended_statechart()):
        checker = BoundedResponseChecker(chart)
        for requirement in gpca_requirements().with_model_counterpart():
            result = checker.check(requirement.to_model_requirement())
            results.append((chart.name, result))
    return results


def test_fig2_model_verification(benchmark, write_artifact):
    results = benchmark.pedantic(verify_all, rounds=1, iterations=1)
    lines = [f"{chart_name:>14}  {result.summary()}" for chart_name, result in results]
    write_artifact("fig2_verification.txt", "\n".join(lines))
    assert all(result.passed for _, result in results)
    # REQ1's worst case on the Fig. 2 chart equals the before(100) bound.
    req1_results = [result for _, result in results if result.requirement.requirement_id == "REQ1"]
    assert all(result.worst_case_ticks == 100 for result in req1_results)


def test_tightened_requirement_is_rejected(benchmark, write_artifact):
    """A 50 ms bolus-start deadline is not satisfiable by the model."""
    checker = BoundedResponseChecker(build_fig2_statechart())
    tight = req1_bolus_start(deadline_ms=50).to_model_requirement()
    result = benchmark.pedantic(lambda: checker.check(tight), rounds=1, iterations=1)
    write_artifact("fig2_verification_tightened.txt", result.summary())
    assert not result.passed

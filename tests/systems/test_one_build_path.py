"""Every pack builds through one declarative platform assembly.

* **Full-trace pins.**  SHA-256 over whole GPCA runs — every trace event with
  its meta (device names included), the R-report and the M-report — captured
  before the GPCA pump moved onto the declarative platform.  They cover all
  three schemes on the pack's four cases, the extended chart, a stuck and a
  glitching reservoir sensor, and one mutant.
* **Structure.**  Every registered pack builds through
  :func:`~repro.systems.platform.build_pack_system`, and every scheme is
  assembled from :class:`~repro.systems.platform.PackHardware` and
  :class:`~repro.systems.platform.PackEnvironment`.
* **Model names.**  An unknown model raises the same error for every pack.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.campaign.spec import build_case
from repro.codegen.generator import generate_code
from repro.core.m_testing import MTestAnalyzer
from repro.core.r_testing import execute_r_test
from repro.core.serialization import m_report_to_dict, r_report_to_dict
from repro.faults.models import FaultPlan, SensorGlitchFault, SensorStuckFault
from repro.faults.mutants import generate_mutants
from repro.gpca.model import build_fig2_statechart
from repro.systems import get_pack, pack_ids
from repro.systems.base import ALL_SCHEMES
from repro.systems.platform import PackEnvironment, PackHardware, build_pack_system

SAMPLES = 2
GPCA_CASES = ("bolus-request", "empty-reservoir-alarm", "empty-reservoir-stop", "alarm-clear")

#: Per-run SHA-256 of the canonical JSON of ``{"r": ..., "m": ...}`` with the
#: full trace, captured on the hand-built GPCA platform.
CLEAN_RUN_SHAS = {
    (1, "bolus-request"): "3dd1f302b07d40f32212f9ee2bf706a93f6280775c841669fa81f8125a38aadf",
    (1, "empty-reservoir-alarm"): "f66f083b59f6eb4f0619c5a266f83e0310881a83a97f9dfef39bb13cfe003eea",
    (1, "empty-reservoir-stop"): "74345b5aaf5e9e09e64b6bb5a131d1d6bb05e6093a7c6c4069ea13ac21b5c710",
    (1, "alarm-clear"): "30e766305f8bf74b993a8869e05bac06fab1f56aa0c3fc0d07fe800f317692dd",
    (2, "bolus-request"): "bfb73e7d4a6e9d44b4dc0acba177b360067ef8bcf2a86fc3bede571f90e571dd",
    (2, "empty-reservoir-alarm"): "53fd2dfcfeeb029cfaa5a3c2edbc59fd0bfc04f68aa6c320c0cddd83593f55bc",
    (2, "empty-reservoir-stop"): "778c272b7d33cd7654cca26bafbf9acc45292def19a4ffa5097a24c4ca4d9f6a",
    (2, "alarm-clear"): "e65335470d4ff0d056334f0ac41891996ff5b06a4d937602ad254d069e28adf9",
    (3, "bolus-request"): "4d795c146a99d39917cfff4d5c561b1bd381fa15bf05d83a46701578d8211a90",
    (3, "empty-reservoir-alarm"): "796722e3b24a1e50a77da7def98350b2ebb8420c9ce42a518bd82ed55ddc2a1b",
    (3, "empty-reservoir-stop"): "6d79b54ccd4c7d96e7d40ee0253d613e083c8c8c6724c61d84ed4537867622c0",
    (3, "alarm-clear"): "87b81fb1920f1b48eb8e6e81cb0e1f4690012c69b63bae4c775af14bc8c19436",
}
EXTENDED_RUN_SHA = "ac89673314348e784ff9a3d8c6473c6f8dc51d2b9b9ee26d0557cf8b89dc928c"
FAULTED_RUN_SHAS = {
    "stuck": "a0b5ee8a5230e3405d430571fe79965d37e1256f0d2c5081c28249b1bd10f8dc",
    "glitch": "740131509a475ec117bcd47181ea7e92489d46792d2b821c84070933a23672c5",
}
MUTANT_RUN_SHA = "03cd88ba85c18a7acc275893da780f39602ff46d429231efcf19f2f3bbb841df"

FAULTS = {
    "stuck": SensorStuckFault(device="reservoir_sensor", stuck_value=False),
    "glitch": SensorGlitchFault(device="reservoir_sensor", drop_probability=0.5),
}


def run_digest(scheme, case, *, model="fig2", seed=None, artifacts=None, fault=None):
    """Run one GPCA case and hash its full trace plus R/M payloads."""
    pack = get_pack("gpca")
    seed = scheme * 11 if seed is None else seed
    test_case = build_case(case, SAMPLES, seed, model=model, system="gpca")

    def factory():
        system = pack.build_system(scheme, model=model, seed=seed, artifacts=artifacts)
        if fault is not None:
            FaultPlan((fault,)).instrument(system, seed=5)
        return system

    report = execute_r_test(factory, test_case)
    analyzer = MTestAnalyzer(pack.build_interface(), test_case.requirement)
    payload = {
        "r": r_report_to_dict(report, include_trace=True),
        "m": m_report_to_dict(analyzer.analyze(report.trace, sut_name=report.sut_name)),
    }
    rendering = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendering.encode("utf-8")).hexdigest()


class TestFullTracePins:
    @pytest.mark.parametrize("scheme", (1, 2, 3))
    @pytest.mark.parametrize("case", GPCA_CASES)
    def test_clean_runs(self, scheme, case):
        assert run_digest(scheme, case) == CLEAN_RUN_SHAS[(scheme, case)]

    def test_extended_chart(self):
        assert run_digest(2, "empty-reservoir-stop", model="extended") == EXTENDED_RUN_SHA

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_reservoir_sensor_faults(self, fault):
        digest = run_digest(2, "empty-reservoir-alarm", fault=FAULTS[fault])
        assert digest == FAULTED_RUN_SHAS[fault]

    def test_mutant(self):
        chart = build_fig2_statechart()
        mutant = generate_mutants(chart)[0]
        artifacts = generate_code(mutant.apply(chart))
        assert run_digest(2, "bolus-request", artifacts=artifacts) == MUTANT_RUN_SHA


class TestStructure:
    @pytest.mark.parametrize("system", pack_ids())
    def test_every_pack_builds_on_the_declarative_platform(self, system):
        pack = get_pack(system)
        assert pack.build_system.func is build_pack_system
        for scheme in ALL_SCHEMES:
            bundle = pack.build_system(scheme).bundle
            assert type(bundle.hardware) is PackHardware
            assert type(bundle.environment) is PackEnvironment


class TestModelNames:
    @pytest.mark.parametrize("system", pack_ids())
    def test_unknown_model_raises(self, system):
        pack = get_pack(system)
        with pytest.raises(ValueError, match=rf"unknown {system} model 'extnded'"):
            pack.build_system(2, model="extnded")

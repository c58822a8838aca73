"""Equivalence tests for the rebuilt runtime engine.

The hot-loop rebuild (batched kernel dispatch, columnar traces) and the
compiled-C CODE(M) executor claim *byte identity*: same seeds, same serialized reports, bit
for bit.  These tests prove it against the frozen seed implementations in
``repro._reference.seed_engine`` and against the Python CODE(M) executor:

* whole R-/M-test runs on every requirement scenario × all three schemes,
  comparing ``to_json`` output (with full traces) across engines;
* kernel dispatch order under adversarial scheduling (same-instant
  insertions from callbacks, priorities, cancellations, chunked
  ``run_until`` horizons, a heap compaction inside a callback);
* dormant device sampling: edges and level changes landing exactly on a
  sampling instant, and the level sensor's latency draws after a long
  dormant stretch, with and without clock drift;
* columnar ``Trace`` vs the object-per-event ``SeedTrace`` across the whole
  query surface on randomized event streams;
* the compiled-C executor in lockstep with the Python executor and across
  whole scheme runs (skipped without a host C compiler), plus the reasons it
  gives when it cannot run.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro._reference import SEED_ENGINE
from repro._reference.seed_engine import SeedSimulator, SeedTrace
import c_backend
from c_backend import (
    BackendUnavailable,
    CompiledGeneratedCode,
    check_compilable,
    compile_harness,
    find_c_compiler,
)
from repro.codegen.generated import GeneratedCode
from repro.codegen.generator import generate_code
from repro.core.four_variables import Event, EventKind, Trace, TraceRecorder
from repro.core.m_testing import MTestAnalyzer
from repro.core.r_testing import execute_r_test
from repro.core.serialization import m_report_to_dict, r_report_to_json
from repro.faults.models import ClockDriftFault, FaultPlan
from repro.gpca.interface import build_pump_interface
from repro.gpca.model import build_fig2_statechart
from repro.integration.base import DEFAULT_ENGINE
from repro.platform.devices.device import StateInputDevice
from repro.platform.kernel.simulator import Simulator
from repro.platform.kernel.time import ms
from repro.systems import get_pack
from repro.systems.gpca import GPCA_PACK
from repro.systems.base import ALL_SCHEMES

requires_cc = pytest.mark.skipif(
    find_c_compiler() is None, reason="no host C compiler available"
)

#: Small sample counts keep the full cross-product affordable; identity either
#: holds on every event or it doesn't.
SAMPLES = 2
CASES = [program(SAMPLES).compile(0) for program in GPCA_PACK.case_builders.values()]
CASE_IDS = [case.name for case in CASES]


def _run_case(case, scheme, *, engine=DEFAULT_ENGINE, code_model=None):
    """R-test ``case`` on fresh GPCA systems; ``code_model`` swaps in the
    compiled-C executor for the generated Python CODE(M)."""

    def factory():
        system = get_pack("gpca").build_system(scheme, seed=1234, engine=engine)
        if code_model is not None:
            system.code = CompiledGeneratedCode(code_model)
        return system

    return execute_r_test(factory, case)


class TestReportByteIdentity:
    """Whole-run byte identity: optimised engine vs the frozen seed engine."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_r_reports_identical(self, scheme, case):
        optimised = _run_case(case, scheme)
        seed_path = _run_case(case, scheme, engine=SEED_ENGINE)
        assert r_report_to_json(optimised, include_trace=True) == r_report_to_json(
            seed_path, include_trace=True
        )

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_m_reports_identical(self, scheme, case):
        optimised = _run_case(case, scheme)
        seed_path = _run_case(case, scheme, engine=SEED_ENGINE)
        analyzer = MTestAnalyzer(build_pump_interface(), case.requirement)
        assert m_report_to_dict(
            analyzer.analyze(optimised.trace, sut_name=optimised.sut_name)
        ) == m_report_to_dict(
            analyzer.analyze(seed_path.trace, sut_name=seed_path.sut_name)
        )


class TestKernelDispatchOrder:
    """The batched kernel fires the exact sequence the seed kernel fires."""

    @staticmethod
    def _drive(simulator_class, seed):
        """Adversarial workload: callbacks insert same-instant higher-priority
        events, cancel pending handles, and the horizon advances in chunks."""
        simulator = simulator_class()
        rng = random.Random(seed)
        fired = []
        pending = []
        counter = [0]

        def make_callback():
            counter[0] += 1
            identity = counter[0]

            def callback():
                fired.append((simulator.now, identity))
                for _ in range(rng.randrange(0, 3)):
                    delay = rng.choice([0, 0, 1, 7, 130])
                    priority = rng.randrange(-2, 3)
                    pending.append(
                        simulator.schedule(
                            delay, make_callback(), priority=priority, label="gen"
                        )
                    )
                if pending and rng.random() < 0.35:
                    pending[rng.randrange(len(pending))].cancel()

            return callback

        for _ in range(25):
            pending.append(
                simulator.schedule(
                    rng.randrange(0, 400),
                    make_callback(),
                    priority=rng.randrange(-2, 3),
                    label="root",
                )
            )
        horizon = 0
        for _ in range(6):
            horizon += rng.randrange(50, 300)
            simulator.run_until(horizon)
            fired.append(("clock", simulator.now))
        simulator.run_until(10**9)
        fired.append(("final", simulator.now, simulator.events_processed))
        return fired

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    def test_dispatch_sequence_matches_seed_kernel(self, seed):
        assert self._drive(Simulator, seed) == self._drive(SeedSimulator, seed)

    @staticmethod
    def _purge_mid_drain(simulator_class):
        """A callback cancels 100 far-future events (compacting the heap) and
        schedules a near one; a second drain fires whatever the first lost."""
        simulator = simulator_class()
        far = [simulator.schedule_at(1_000_000 + i, lambda: None) for i in range(100)]
        fired = []

        def purge():
            fired.append((simulator.now, "purge"))
            for handle in far:
                handle.cancel()
            simulator.schedule_at(15, lambda: fired.append((simulator.now, "near")))

        simulator.schedule_at(5, purge)
        simulator.run_until(2_000_000)
        fired.append(("drained", simulator.pending_events))
        simulator.run_until(3_000_000)
        fired.append(("final", simulator.now, simulator.events_processed))
        return fired, simulator

    def test_compaction_mid_drain_matches_seed_kernel(self):
        production, simulator = self._purge_mid_drain(Simulator)
        seed_path, _ = self._purge_mid_drain(SeedSimulator)
        assert simulator.compactions == 1
        assert production == seed_path


def _dormancy_system(engine, drift):
    """A scheme-2 pump on ``engine``, optionally under clock drift."""
    system = get_pack("gpca").build_system(2, seed=77, engine=engine)
    if drift is not None:
        FaultPlan((ClockDriftFault(drift=drift),)).instrument(system, seed=0)
    return system


def _latch_log(system, device):
    """Record each driver latch of ``device`` that software can observe, as
    ``(time, argument)``.  A level latch of the unchanged value is not one:
    the production sensor skips it, the seed sensor latches every sample."""
    log = []
    latch = device._latch
    level = isinstance(device, StateInputDevice)

    def logged(argument):
        if not level or argument != device._latched_value:
            log.append((system.bundle.simulator.now, repr(argument)))
        latch(argument)

    device._latch = logged
    return log


def _drift_factor(drift):
    return 1.0 if drift is None else 1.0 + drift


@pytest.mark.parametrize("drift", [None, 0.5], ids=["no-drift", "drift"])
class TestDormantSampling:
    """Dormant sampling chains reproduce the seed engine's full traces.

    Every scenario runs on both engines and compares the full trace plus the
    driver latches (instant and payload), which pin each latency draw.  The
    production run must actually have re-armed dormant samples.
    """

    @staticmethod
    def _compare(scenario):
        production = scenario(DEFAULT_ENGINE)
        seed_path = scenario(SEED_ENGINE)
        assert production[0] == seed_path[0]
        assert production[1]["kernel_dormant_rearms"] > 0
        return production[0]

    def test_edge_on_a_sampling_instant(self, drift):
        period = round(ms(2) * _drift_factor(drift))
        # Sampling instants of the bolus button (offset 0) under either period.
        presses = (ms(30), ms(600))

        def scenario(engine):
            system = _dormancy_system(engine, drift)
            log = _latch_log(system, system.bundle.hardware.bolus_button)
            for at_us in presses:  # scheduled before build()
                system.bundle.stimulus_actions["m-BolusReq"](at_us)
            system.run(ms(1500))
            return (list(system.trace), log), system.telemetry_snapshot()

        _, log = self._compare(scenario)
        # The press fired before the sample at its instant, which took the edge.
        for at_us in presses:
            assert any(at_us < when < at_us + period for when, _ in log)

    def test_level_change_on_a_sampling_instant(self, drift):
        factor = _drift_factor(drift)
        target = 50 * round(ms(10) * factor)  # a reservoir-sensor sampling instant

        def scenario(engine):
            system = _dormancy_system(engine, drift)
            hardware = system.bundle.hardware
            simulator = system.bundle.simulator
            system.bundle.environment.reservoir.volume_ml = 0.001
            log = _latch_log(system, hardware.reservoir_sensor)
            # Peek the motor's next two actuation latencies so the stop — and
            # the observer's set_physical on the now-empty reservoir — lands
            # exactly on ``target``.
            probe = copy.deepcopy(hardware.pump_motor._rng)
            latency = hardware.pump_motor.actuation_latency.sample
            latency(probe)
            stop_latency = round(latency(probe) * factor)
            motor = hardware.pump_motor
            simulator.schedule_at(ms(100), lambda: motor.write(1))
            simulator.schedule_at(target - stop_latency, lambda: motor.write(0))
            system.run(ms(1500))
            return (list(system.trace), log), system.telemetry_snapshot()

        trace, log = self._compare(scenario)
        empty = [e for e in trace if e.variable == "m-EmptyReservoir"]
        assert [e.timestamp_us for e in empty] == [target]
        # The sample at ``target`` fired first and read the old value; the
        # next one took the change.
        period = round(ms(10) * factor)
        assert target + period < log[0][0] < target + 2 * period

    def test_latency_draws_after_a_long_dormant_stretch(self, drift):
        def scenario(engine):
            system = _dormancy_system(engine, drift)
            log = _latch_log(system, system.bundle.hardware.reservoir_sensor)
            actions = system.bundle.stimulus_actions
            actions["m-EmptyReservoir"](ms(3000) + 123)
            actions["m-ReservoirRefill"](ms(3200) + 7)
            actions["m-EmptyReservoir"](ms(3400) + 71)
            system.run(ms(3600))
            return (list(system.trace), log), system.telemetry_snapshot()

        _, log = self._compare(scenario)
        assert len(log) == 3


def _random_events(seed, count=400):
    rng = random.Random(seed)
    kinds = list(EventKind)
    variables = ["m-A", "m-B", "c-X", "i-A", "o-X", "t1"]
    timestamp = 0
    events = []
    for _ in range(count):
        timestamp += rng.choice([0, 0, 1, 3, 50])
        meta = {"n": rng.randrange(3)} if rng.random() < 0.3 else {}
        events.append(
            Event(rng.choice(kinds), rng.choice(variables), rng.randrange(4), timestamp, meta)
        )
    return events


class TestColumnarTraceEquivalence:
    """Columnar Trace answers every query exactly like the seed trace."""

    @pytest.mark.parametrize("seed", [0, 3, 99])
    def test_query_surface_matches_seed_trace(self, seed):
        events = _random_events(seed)
        columnar = Trace(events)
        reference = SeedTrace(events)
        assert len(columnar) == len(reference)
        assert list(columnar) == list(reference)
        assert list(columnar.events) == list(reference.events)
        assert columnar.duration_us == reference.duration_us
        assert columnar[0] == reference[0]
        assert columnar[-1] == reference[-1]
        assert columnar[10:20] == reference[10:20]
        final = events[-1].timestamp_us
        windows = [(None, None), (0, final // 2), (final // 3, final), (final + 1, None)]
        for after_us, before_us in windows:
            for kind in (None, EventKind.M, EventKind.C):
                for variable in (None, "m-A", "c-X", "missing"):
                    assert columnar.select(
                        kind, variable, after_us=after_us, before_us=before_us
                    ) == reference.select(
                        kind, variable, after_us=after_us, before_us=before_us
                    )
                    assert columnar.first(
                        kind, variable, after_us=after_us, before_us=before_us
                    ) == reference.first(
                        kind, variable, after_us=after_us, before_us=before_us
                    )
            assert columnar.select_kinds(
                [EventKind.M, EventKind.C], after_us=after_us, before_us=before_us
            ) == reference.select_kinds(
                [EventKind.M, EventKind.C], after_us=after_us, before_us=before_us
            )
        for kind in (EventKind.M, EventKind.C):
            for variable in ("m-A", "c-X"):
                assert columnar.value_changes(kind, variable) == reference.value_changes(
                    kind, variable
                )
        assert list(columnar.restricted_to([EventKind.M, EventKind.C])) == list(
            reference.restricted_to([EventKind.M, EventKind.C])
        )

    def test_recorder_fast_path_equals_object_path(self):
        clock = {"value": 0}
        recorder = TraceRecorder(lambda: clock["value"])
        recorder.record_m("m-A", True, device="button")
        clock["value"] = 10
        recorder.record_i("i-A", True)
        recorder.record_o("o-X", 1)
        recorder.record_c("c-X", 1, device="motor")
        recorder.record_transition_start("t1")
        recorder.record_transition_end("t1")
        raw = list(recorder.trace)
        rebuilt = Trace(raw)
        assert list(rebuilt) == raw
        assert recorder.trace.select(EventKind.C)[0].meta == {"device": "motor"}
        # Materialised events are cached: repeated access returns the object.
        assert recorder.trace[0] is recorder.trace[0]

    def test_out_of_order_append_rejected_on_both_paths(self):
        trace = Trace()
        trace._append_raw(EventKind.M, "m-A", 1, 100, None)
        with pytest.raises(ValueError):
            trace._append_raw(EventKind.M, "m-A", 1, 99, None)
        with pytest.raises(ValueError):
            trace.append(Event(EventKind.M, "m-A", 1, 50))


@pytest.fixture(scope="module")
def fig2_artifacts():
    return generate_code(build_fig2_statechart())


class TestCompiledBackend:
    """The compiled-C executor is observably identical to the Python one."""

    @requires_cc
    def test_lockstep_with_python_executor(self, fig2_artifacts):
        python_code = GeneratedCode(fig2_artifacts.code_model)
        compiled = CompiledGeneratedCode(fig2_artifacts.code_model)
        rng = random.Random(7)
        inputs = fig2_artifacts.code_model.input_names
        for _ in range(300):
            action = rng.randrange(3)
            if action == 0:
                name = rng.choice(inputs)
                python_code.set_input(name)
                compiled.set_input(name)
            elif action == 1:
                ticks = rng.choice([1, 5, 40])
                python_code.advance_clock(ticks)
                compiled.advance_clock(ticks)
            else:
                python_row = python_code.enabled_transition()
                compiled_row = compiled.enabled_transition()
                assert (python_row is None) == (compiled_row is None)
                if python_row is not None:
                    assert python_row.index == compiled_row.index
                python_firings = python_code.scan()
                compiled_firings = compiled.scan()
                assert [f.transition.index for f in python_firings] == [
                    f.transition.index for f in compiled_firings
                ]
                assert [f.writes for f in python_firings] == [
                    f.writes for f in compiled_firings
                ]
            assert python_code.state_index == compiled.state_index
            assert python_code.state_clock_ticks == compiled.state_clock_ticks
            assert python_code.outputs == compiled.outputs
            assert python_code.inputs == compiled.inputs
            compiled.crosscheck()

    @requires_cc
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_scheme_runs_byte_identical(self, scheme, fig2_artifacts):
        case = CASES[0]
        compiled_report = _run_case(case, scheme, code_model=fig2_artifacts.code_model)
        python_report = _run_case(case, scheme)
        assert r_report_to_json(compiled_report, include_trace=True) == r_report_to_json(
            python_report, include_trace=True
        )

    def test_degrades_cleanly_without_compiler(self, monkeypatch, fig2_artifacts):
        # An empty compile cache forces the compiler probe; PATH holds none.
        monkeypatch.setattr(c_backend, "_COMPILED_CACHE", {})
        monkeypatch.setattr(c_backend.shutil, "which", lambda name: None)
        missing = r"no C compiler found on PATH \(tried cc, gcc, clang\)"
        with pytest.raises(BackendUnavailable, match=missing):
            compile_harness(fig2_artifacts.code_model)

    def test_charts_with_guards_are_rejected(self, fig2_artifacts):
        import dataclasses

        model = fig2_artifacts.code_model
        assert check_compilable(model) is None
        guarded = dataclasses.replace(model.transitions[0], guard=lambda context: True)
        patched = dataclasses.replace(
            model, transitions=[guarded] + list(model.transitions[1:])
        )
        reason = check_compilable(patched)
        assert reason is not None and "guard" in reason

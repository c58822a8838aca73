"""The GPCA pump's physical environment (patient, syringe, caregiver).

The pump platform is the pack-built one: device specs plus the reservoir
dynamics hook of :mod:`repro.gpca.hardware`.
"""

import pytest

from repro.core.four_variables import EventKind
from repro.gpca.hardware import ReservoirModel
from repro.platform.kernel.time import ms, seconds
from repro.systems.gpca import GPCA_PLATFORM
from repro.systems.platform import build_pack_bundle


@pytest.fixture
def environment():
    bundle = build_pack_bundle(GPCA_PLATFORM)
    return bundle.simulator, bundle.recorder, bundle.hardware, bundle


class TestStimulusInjection:
    def test_bolus_request_press_records_m_event(self, environment):
        simulator, recorder, hardware, bundle = environment
        bundle.stimulus_actions["m-BolusReq"](ms(20))
        simulator.run_until(ms(30))
        events = recorder.trace.select(kind=EventKind.M, variable="m-BolusReq")
        assert [event.timestamp_us for event in events] == [ms(20)]

    def test_reservoir_empty_changes_sensor(self, environment):
        simulator, recorder, hardware, bundle = environment
        bundle.stimulus_actions["m-EmptyReservoir"](ms(50))
        simulator.run_until(ms(60))
        assert hardware.reservoir_sensor.physical_value is True
        assert bundle.environment.reservoir.empty

    def test_reservoir_refill_clears_condition(self, environment):
        simulator, recorder, hardware, bundle = environment
        bundle.stimulus_actions["m-EmptyReservoir"](ms(10))
        bundle.stimulus_actions["m-ReservoirRefill"](ms(30))
        simulator.run_until(ms(40))
        assert hardware.reservoir_sensor.physical_value is False
        assert bundle.environment.reservoir.volume_ml == 100.0

    def test_occlusion_and_door(self, environment):
        simulator, recorder, hardware, bundle = environment
        bundle.stimulus_actions["m-Occlusion"](ms(5))
        bundle.stimulus_actions["m-DoorOpen"](ms(6))
        simulator.run_until(ms(10))
        assert hardware.occlusion_sensor.physical_value is True
        assert hardware.door_sensor.physical_value is True


class TestClosedLoopDynamics:
    def test_motor_run_delivers_volume(self, environment):
        simulator, recorder, hardware, bundle = environment
        motor = hardware.pump_motor
        simulator.schedule_at(ms(10), lambda: motor.write(2))
        simulator.schedule_at(seconds(4), lambda: motor.write(0))
        simulator.run_until(seconds(5))
        (start, _), (stop, _) = recorder.trace.value_changes(EventKind.C, "c-PumpMotor")
        reservoir = bundle.environment.reservoir
        delivered = 2 * reservoir.ml_per_second_per_speed * (stop - start) / 1_000_000
        assert delivered > 0
        assert reservoir.volume_ml == pytest.approx(100.0 - delivered)
        assert hardware.reservoir_sensor.physical_value is False

    def test_reservoir_empties_after_enough_delivery(self, environment):
        simulator, recorder, hardware, bundle = environment
        bundle.environment.reservoir.volume_ml = 0.05
        motor = hardware.pump_motor
        simulator.schedule_at(ms(10), lambda: motor.write(5))
        simulator.schedule_at(seconds(10), lambda: motor.write(0))
        simulator.run_until(seconds(11))
        assert bundle.environment.reservoir.empty
        assert hardware.reservoir_sensor.physical_value is True


class TestReservoirModel:
    def test_drain_bounded_by_volume(self):
        reservoir = ReservoirModel(volume_ml=1.0, ml_per_second_per_speed=1.0)
        delivered = reservoir.drain(speed=10, duration_s=10)
        assert delivered == pytest.approx(1.0)
        assert reservoir.empty

    def test_partial_drain(self):
        reservoir = ReservoirModel(volume_ml=100.0, ml_per_second_per_speed=0.05)
        delivered = reservoir.drain(speed=1, duration_s=4)
        assert delivered == pytest.approx(0.2)
        assert reservoir.volume_ml == pytest.approx(99.8)


class TestPumpHardware:
    def test_device_inventory(self, environment):
        _, _, hardware, _ = environment
        assert len(hardware.input_devices) == 5
        assert len(hardware.output_devices) == 3

    def test_start_is_idempotent(self, environment):
        simulator, _, hardware, _ = environment
        hardware.start()
        hardware.start()
        simulator.run_until(ms(5))  # no duplicate-sampling explosion

"""Unit tests for the simulated devices (sensors, actuators, drivers)."""

import pytest

from repro.core.four_variables import EventKind
from repro.platform.devices.device import EventInputDevice, OutputDevice, StateInputDevice
from repro.platform.kernel.random import constant
from repro.platform.kernel.time import ms
from repro.systems.gpca import GPCA_PLATFORM
from repro.systems.platform import build_pack_bundle


class TestEventInputDevice:
    def test_trigger_records_m_event(self, simulator, recorder):
        device = EventInputDevice(
            "btn", "m-Button", simulator, recorder, sampling_period_us=ms(2),
            conversion_latency=constant(0),
        )
        simulator.schedule_at(ms(5), lambda: device.trigger(True))
        simulator.run_until(ms(6))
        events = recorder.trace.select(kind=EventKind.M, variable="m-Button")
        assert len(events) == 1
        assert events[0].timestamp_us == ms(5)
        assert events[0].value is True

    def test_edge_latched_until_sampled(self, simulator, recorder):
        device = EventInputDevice(
            "btn", "m-Button", simulator, recorder, sampling_period_us=ms(10),
            conversion_latency=constant(500),
        )
        device.start()
        simulator.schedule_at(ms(3), lambda: device.trigger(True))
        simulator.run_until(ms(25))
        events = device.poll()
        assert len(events) == 1
        # Edge at 3 ms is picked up by the sample at 10 ms plus 0.5 ms latency.
        assert events[0].physical_timestamp_us == ms(3)
        assert events[0].detected_timestamp_us == ms(10) + 500

    def test_poll_drains_buffer(self, simulator, recorder):
        device = EventInputDevice(
            "btn", "m-Button", simulator, recorder, sampling_period_us=ms(2),
            conversion_latency=constant(0),
        )
        device.start()
        simulator.schedule_at(ms(1), lambda: device.trigger(True))
        simulator.run_until(ms(5))
        assert len(device.poll()) == 1
        assert device.poll() == []

    def test_buffer_overflow_counts_missed_events(self, simulator, recorder):
        device = EventInputDevice(
            "btn", "m-Button", simulator, recorder, sampling_period_us=ms(1),
            conversion_latency=constant(0), buffer_capacity=2,
        )
        device.start()
        for index in range(4):
            simulator.schedule_at(ms(index + 1), lambda: device.trigger(True))
        simulator.run_until(ms(10))
        assert device.pending_count == 2
        assert device.missed_events == 2

    def test_invalid_sampling_period_rejected(self, simulator, recorder):
        with pytest.raises(ValueError):
            EventInputDevice("btn", "m-B", simulator, recorder, sampling_period_us=0)


class TestStateInputDevice:
    def test_physical_change_records_m_event(self, simulator, recorder):
        device = StateInputDevice(
            "level", "m-Empty", simulator, recorder, sampling_period_us=ms(10),
            conversion_latency=constant(0),
        )
        simulator.schedule_at(ms(4), lambda: device.set_physical(True))
        simulator.run_until(ms(5))
        events = recorder.trace.select(kind=EventKind.M, variable="m-Empty")
        assert [event.value for event in events] == [True]

    def test_unchanged_value_not_recorded(self, simulator, recorder):
        device = StateInputDevice(
            "level", "m-Empty", simulator, recorder, sampling_period_us=ms(10),
            initial_value=False,
        )
        device.set_physical(False)
        assert len(recorder.trace) == 0

    def test_read_returns_latched_sample(self, simulator, recorder):
        device = StateInputDevice(
            "level", "m-Empty", simulator, recorder, sampling_period_us=ms(10),
            conversion_latency=constant(ms(1)),
        )
        device.start()
        simulator.schedule_at(ms(12), lambda: device.set_physical(True))
        # Before the next sample+latency the latched value is still False.
        simulator.run_until(ms(19))
        assert device.read() is False
        simulator.run_until(ms(22))
        assert device.read() is True


class TestOutputDevice:
    def test_write_records_c_event_after_latency(self, simulator, recorder):
        device = OutputDevice(
            "motor", "c-Motor", simulator, recorder, actuation_latency=constant(ms(3)),
        )
        simulator.schedule_at(ms(10), lambda: device.write(1))
        simulator.run_until(ms(20))
        events = recorder.trace.select(kind=EventKind.C, variable="c-Motor")
        assert len(events) == 1
        assert events[0].timestamp_us == ms(13)
        assert device.physical_value == 1

    def test_unchanged_write_produces_no_c_event(self, simulator, recorder):
        device = OutputDevice("motor", "c-Motor", simulator, recorder, initial_value=0)
        simulator.schedule_at(ms(1), lambda: device.write(0))
        simulator.run_until(ms(5))
        assert recorder.trace.select(kind=EventKind.C) == []
        assert device.writes == 1

    def test_observer_called_on_physical_change(self, simulator, recorder):
        device = OutputDevice("motor", "c-Motor", simulator, recorder, actuation_latency=constant(0))
        seen = []
        device.add_observer(lambda value, at: seen.append((value, at)))
        simulator.schedule_at(ms(2), lambda: device.write(5))
        simulator.run_until(ms(3))
        assert seen == [(5, ms(2))]

    def test_commanded_vs_physical_value(self, simulator, recorder):
        device = OutputDevice("motor", "c-Motor", simulator, recorder, actuation_latency=constant(ms(5)))
        simulator.schedule_at(ms(1), lambda: device.write(7))
        simulator.run_until(ms(2))
        assert device.commanded_value == 7
        assert device.physical_value == 0


class TestConcreteDevices:
    """The GPCA pump's devices as its pack platform builds them."""

    @pytest.fixture
    def bundle(self):
        return build_pack_bundle(GPCA_PLATFORM)

    def test_bolus_button_default_variable(self, bundle):
        button = bundle.hardware.bolus_button
        assert button.monitored_variable == "m-BolusReq"
        assert button.sampling_period_us == ms(2)

    def test_reservoir_sensor_default_variable(self, bundle):
        sensor = bundle.hardware.reservoir_sensor
        assert sensor.monitored_variable == "m-EmptyReservoir"
        # Traced under its device name; attribute and random stream differ.
        assert sensor.name == "reservoir_level_sensor"

    def test_pump_motor_running_property(self, bundle):
        motor = bundle.hardware.pump_motor
        assert not motor.physical_value  # stopped
        bundle.simulator.schedule_at(ms(1), lambda: motor.write(3))
        bundle.simulator.run_until(ms(6))  # past the 3 +/- 1 ms actuation latency
        assert motor.physical_value == 3  # running at the commanded speed

    def test_buzzer_controlled_variable(self, bundle):
        assert bundle.hardware.buzzer.controlled_variable == "c-Buzzer"

"""Unit tests for the four-variable interface, events, traces and recorder."""

import pytest

from repro.core.four_variables import (
    Event,
    EventKind,
    FourVariableInterface,
    Trace,
    TraceRecorder,
    VariableKind,
    VariableSpec,
)


class TestInterface:
    def test_declares_and_looks_up(self):
        interface = FourVariableInterface()
        interface.monitored("m-X")
        interface.input("i-X")
        assert interface.get("m-X").kind is VariableKind.MONITORED
        assert "i-X" in interface
        assert "missing" not in interface

    def test_duplicate_name_rejected(self):
        interface = FourVariableInterface()
        interface.monitored("m-X")
        with pytest.raises(ValueError):
            interface.input("m-X")

    def test_unknown_lookup_raises(self):
        with pytest.raises(KeyError):
            FourVariableInterface().get("nope")

    def test_variables_filtered_by_kind(self):
        interface = FourVariableInterface()
        interface.monitored("m-A")
        interface.monitored("m-B")
        interface.controlled("c-A")
        assert interface.names(VariableKind.MONITORED) == ["m-A", "m-B"]
        assert interface.names(VariableKind.CONTROLLED) == ["c-A"]
        assert len(interface.variables()) == 3

    def test_link_input_requires_matching_kinds(self):
        interface = FourVariableInterface()
        interface.monitored("m-X")
        interface.input("i-X")
        interface.link_input("m-X", "i-X")
        assert interface.input_for_monitored("m-X") == "i-X"
        with pytest.raises(ValueError):
            interface.link_input("i-X", "m-X")

    def test_link_output_mapping(self):
        interface = FourVariableInterface()
        interface.output("o-X")
        interface.controlled("c-X")
        interface.link_output("o-X", "c-X")
        assert interface.output_for_controlled("c-X") == "o-X"
        assert interface.input_for_monitored("nothing") is None

    def test_invalid_variable_type_rejected(self):
        with pytest.raises(ValueError):
            VariableSpec("x", VariableKind.INPUT, var_type="complex")

    def test_pump_interface_is_consistent(self, pump_interface):
        pump_interface.validate()
        assert pump_interface.input_for_monitored("m-BolusReq") == "i-BolusReq"
        assert pump_interface.output_for_controlled("c-PumpMotor") == "o-MotorState"
        assert len(pump_interface.variables(VariableKind.MONITORED)) == 5


class TestEventAndTrace:
    def test_event_matching(self):
        event = Event(EventKind.M, "m-X", True, 100)
        assert event.matches(EventKind.M, "m-X")
        assert not event.matches(EventKind.C, "m-X")
        assert not event.matches(EventKind.M, "m-Y")

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            Event(EventKind.M, "m-X", True, -1)

    def test_trace_requires_time_order(self):
        trace = Trace()
        trace.append(Event(EventKind.M, "a", 1, 100))
        with pytest.raises(ValueError):
            trace.append(Event(EventKind.M, "a", 1, 50))

    def test_select_filters(self):
        trace = Trace(
            [
                Event(EventKind.M, "m-X", True, 10),
                Event(EventKind.I, "i-X", True, 20),
                Event(EventKind.C, "c-X", 1, 30),
                Event(EventKind.M, "m-X", False, 40),
            ]
        )
        assert len(trace.select(kind=EventKind.M)) == 2
        assert len(trace.select(variable="i-X")) == 1
        assert len(trace.select(after_us=20, before_us=30)) == 2
        assert len(trace.select(kind=EventKind.M, predicate=lambda e: e.value)) == 1

    def test_first_after(self):
        trace = Trace(
            [
                Event(EventKind.C, "c-X", 1, 30),
                Event(EventKind.C, "c-X", 2, 60),
            ]
        )
        assert trace.first(kind=EventKind.C, after_us=40).value == 2
        assert trace.first(kind=EventKind.C, after_us=100) is None

    def test_restricted_to(self):
        trace = Trace(
            [
                Event(EventKind.M, "m-X", True, 10),
                Event(EventKind.I, "i-X", True, 20),
                Event(EventKind.O, "o-X", 1, 25),
                Event(EventKind.C, "c-X", 1, 30),
            ]
        )
        restricted = trace.restricted_to([EventKind.M, EventKind.C])
        assert [event.kind for event in restricted] == [EventKind.M, EventKind.C]

    def test_value_changes_deduplicates(self):
        trace = Trace(
            [
                Event(EventKind.C, "c-X", 0, 10),
                Event(EventKind.C, "c-X", 1, 20),
                Event(EventKind.C, "c-X", 1, 30),
                Event(EventKind.C, "c-X", 0, 40),
            ]
        )
        assert trace.value_changes(EventKind.C, "c-X") == [(10, 0), (20, 1), (40, 0)]

    def test_duration(self):
        trace = Trace([Event(EventKind.M, "a", 1, 10), Event(EventKind.M, "a", 1, 110)])
        assert trace.duration_us == 100
        assert Trace().duration_us == 0

    def test_first_bounded_by_before_us(self):
        trace = Trace(
            [
                Event(EventKind.C, "c-X", 1, 30),
                Event(EventKind.C, "c-X", 2, 60),
            ]
        )
        assert trace.first(kind=EventKind.C, after_us=40, before_us=100).value == 2
        assert trace.first(kind=EventKind.C, after_us=40, before_us=50) is None

    def test_select_kinds_preserves_trace_order(self):
        trace = Trace(
            [
                Event(EventKind.M, "m-X", True, 10),
                Event(EventKind.I, "i-X", True, 10),
                Event(EventKind.C, "c-X", 1, 10),
                Event(EventKind.M, "m-X", False, 20),
            ]
        )
        selected = trace.select_kinds((EventKind.C, EventKind.M))
        # Trace order (not argument order) decides ties at the same timestamp.
        assert [(event.kind, event.timestamp_us) for event in selected] == [
            (EventKind.M, 10),
            (EventKind.C, 10),
            (EventKind.M, 20),
        ]
        assert trace.select_kinds((EventKind.M,), after_us=15) == [trace[3]]

    def test_events_view_is_stable_and_immutable(self):
        trace = Trace([Event(EventKind.M, "a", 1, 10)])
        view = trace.events
        assert isinstance(view, tuple)
        assert trace.events is view  # cached until the next append
        trace.append(Event(EventKind.M, "a", 2, 20))
        refreshed = trace.events
        assert refreshed is not view
        assert len(refreshed) == 2

    def test_extend_validates_batch_order(self):
        trace = Trace([Event(EventKind.M, "a", 1, 100)])
        with pytest.raises(ValueError):
            trace.extend(
                [
                    Event(EventKind.M, "a", 1, 150),
                    Event(EventKind.M, "a", 1, 120),
                ]
            )

    def test_pure_window_queries_do_not_build_indexes(self):
        trace = Trace(
            [
                Event(EventKind.M, "m-X", True, 10),
                Event(EventKind.C, "c-X", 1, 30),
            ]
        )
        assert [event.timestamp_us for event in trace.select(after_us=20)] == [30]
        assert trace.first(before_us=20).timestamp_us == 10
        assert trace._indexed_upto == 0  # timestamp bisection alone served these
        trace.select(kind=EventKind.M)
        assert trace._indexed_upto == 2

    def test_from_sorted_matches_validated_construction(self):
        events = [
            Event(EventKind.M, "m-X", True, 10),
            Event(EventKind.C, "c-X", 1, 30),
        ]
        fast = Trace.from_sorted(events)
        assert list(fast) == events
        assert fast.select(kind=EventKind.C) == [events[1]]


class TestRecorder:
    def test_records_with_clock_timestamps(self):
        now = {"value": 0}
        recorder = TraceRecorder(lambda: now["value"])
        recorder.record_m("m-X", True)
        now["value"] = 500
        recorder.record_i("i-X", True)
        recorder.record_o("o-X", 1)
        recorder.record_c("c-X", 1)
        kinds = [event.kind for event in recorder.trace]
        assert kinds == [EventKind.M, EventKind.I, EventKind.O, EventKind.C]
        assert recorder.trace[1].timestamp_us == 500

    def test_transition_probes(self):
        recorder = TraceRecorder(lambda: 42)
        recorder.record_transition_start("t_x")
        recorder.record_transition_end("t_x")
        assert [event.kind for event in recorder.trace] == [
            EventKind.TRANSITION_START,
            EventKind.TRANSITION_END,
        ]

    def test_meta_attached(self):
        recorder = TraceRecorder(lambda: 0)
        recorder.record_m("m-X", True, device="button")
        assert recorder.trace[-1].meta["device"] == "button"

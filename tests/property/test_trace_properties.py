"""Property-based tests of traces, matching and delay decomposition."""

import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delays import DelaySegments
from repro.core.four_variables import Event, EventKind, Trace
from repro.core.oracle import ResponseMatcher
from repro.core.requirements import EventSpec


# ----------------------------------------------------------------------
# Trace invariants
# ----------------------------------------------------------------------
timestamps = st.lists(st.integers(min_value=0, max_value=10_000_000), min_size=0, max_size=50)


@given(timestamps)
def test_trace_preserves_sorted_insertion_order(times):
    ordered = sorted(times)
    trace = Trace(Event(EventKind.M, "m-X", True, t) for t in ordered)
    assert [event.timestamp_us for event in trace] == ordered


@given(timestamps, st.integers(min_value=0, max_value=10_000_000))
def test_select_after_never_returns_earlier_events(times, cutoff):
    trace = Trace(Event(EventKind.M, "m-X", True, t) for t in sorted(times))
    selected = trace.select(after_us=cutoff)
    assert all(event.timestamp_us >= cutoff for event in selected)


@given(timestamps)
def test_restricted_to_is_subset(times):
    trace = Trace(Event(EventKind.M, "m-X", True, t) for t in sorted(times))
    restricted = trace.restricted_to([EventKind.C])
    assert len(restricted) == 0
    restricted_m = trace.restricted_to([EventKind.M])
    assert len(restricted_m) == len(trace)


# ----------------------------------------------------------------------
# Indexed queries vs a reference linear scan
# ----------------------------------------------------------------------
def _linear_select(events, kind=None, variable=None, predicate=None, after_us=None, before_us=None):
    """The seed's O(n) select semantics, used as the oracle for the indexes."""
    selected = []
    for event in events:
        if not event.matches(kind, variable):
            continue
        if after_us is not None and event.timestamp_us < after_us:
            continue
        if before_us is not None and event.timestamp_us > before_us:
            continue
        if predicate is not None and not predicate(event):
            continue
        selected.append(event)
    return selected


_KINDS = [EventKind.M, EventKind.I, EventKind.O, EventKind.C, EventKind.TRANSITION_START]
_VARIABLES = ["m-X", "m-Y", "c-X", "t_0"]


@st.composite
def random_traces(draw):
    count = draw(st.integers(min_value=0, max_value=60))
    times = sorted(draw(st.lists(st.integers(0, 5_000), min_size=count, max_size=count)))
    events = [
        Event(
            draw(st.sampled_from(_KINDS)),
            draw(st.sampled_from(_VARIABLES)),
            draw(st.integers(0, 3)),
            time,
        )
        for time in times
    ]
    return events


@given(
    random_traces(),
    st.sampled_from(_KINDS + [None]),
    st.sampled_from(_VARIABLES + [None]),
    st.one_of(st.none(), st.integers(0, 5_000)),
    st.one_of(st.none(), st.integers(0, 5_000)),
)
@settings(max_examples=120)
def test_indexed_queries_equal_linear_scan(events, kind, variable, after_us, before_us):
    """The indexed trace answers every query shape byte-identically to the
    seed linear scan, including timestamp ties and empty windows."""
    trace = Trace(events)
    predicate = lambda event: bool(event.value)  # noqa: E731

    for pred in (None, predicate):
        expected = _linear_select(events, kind, variable, pred, after_us, before_us)
        assert trace.select(kind, variable, pred, after_us, before_us) == expected
        first = trace.first(kind, variable, pred, after_us, before_us=before_us)
        assert first == (expected[0] if expected else None)

    wanted = (EventKind.M, EventKind.C)
    expected_kinds = [
        event
        for event in events
        if event.kind in wanted
        and (after_us is None or event.timestamp_us >= after_us)
        and (before_us is None or event.timestamp_us <= before_us)
    ]
    assert trace.select_kinds(wanted, after_us, before_us) == expected_kinds
    assert list(trace.restricted_to(wanted)) == [event for event in events if event.kind in wanted]


@given(random_traces(), random_traces())
@settings(max_examples=60)
def test_lazy_index_handles_appends_between_queries(first_batch, second_batch):
    """Appending after a query indexes only the new tail — results still match
    a linear scan over the combined event sequence."""
    trace = Trace(first_batch)
    assert trace.select(kind=EventKind.M) == _linear_select(first_batch, kind=EventKind.M)
    offset = trace[len(trace) - 1].timestamp_us if len(trace) else 0
    shifted = [
        Event(event.kind, event.variable, event.value, event.timestamp_us + offset)
        for event in second_batch
    ]
    trace.extend(shifted)
    combined = list(first_batch) + shifted
    assert trace.select(kind=EventKind.M) == _linear_select(combined, kind=EventKind.M)
    assert list(trace.events) == combined


# ----------------------------------------------------------------------
# Indexed queries are never slower than the linear scan
# ----------------------------------------------------------------------
class _LinearScanTrace:
    """The seed's queries: each walks the whole event list."""

    def __init__(self, events):
        self.events = events

    def select(self, kind=None, variable=None, after_us=None, before_us=None):
        return _linear_select(self.events, kind, variable, None, after_us, before_us)

    def first(self, kind=None, variable=None, after_us=None, before_us=None):
        # The seed's ``first_event_after`` materialised the whole window.
        window = self.select(kind, variable, after_us, before_us)
        return window[0] if window else None

    def select_kinds(self, kinds, after_us=None, before_us=None):
        wanted = set(kinds)
        selected = []
        for event in self.events:
            if event.kind not in wanted:
                continue
            if after_us is not None and event.timestamp_us < after_us:
                continue
            if before_us is not None and event.timestamp_us > before_us:
                continue
            selected.append(event)
        return selected

    def restricted_to(self, kinds):
        # The seed rebuilt a trace through its append path, checking the
        # time order of every kept event.
        wanted = set(kinds)
        kept = []
        for event in self.events:
            if event.kind in wanted:
                if kept and event.timestamp_us < kept[-1].timestamp_us:
                    raise ValueError("unsorted trace")
                kept.append(event)
        return _LinearScanTrace(kept)


def campaign_shaped_events(count, seed=20140324):
    """Per cycle the m -> i -> transitions -> o -> c path of one bolus
    request, padded with sensor/actuator noise as on real traces."""
    rng = random.Random(seed)
    events = []
    now = 0

    def emit(kind, variable, value):
        nonlocal now
        now += rng.randint(10, 100)
        events.append(Event(kind, variable, value, now))

    while len(events) < count:
        emit(EventKind.M, "m-BolusReq", True)
        emit(EventKind.I, "i-BolusReq", True)
        for _ in range(rng.randint(1, 3)):
            transition = f"t_{rng.randrange(5)}"
            emit(EventKind.TRANSITION_START, transition, None)
            emit(EventKind.TRANSITION_END, transition, None)
        emit(EventKind.O, "o-MotorState", 1)
        emit(EventKind.C, "c-PumpMotor", 1)
        for _ in range(rng.randint(8, 14)):
            index = rng.randrange(5)
            if rng.random() < 0.5:
                emit(EventKind.M, f"m-Sensor{index}", rng.random())
            else:
                emit(EventKind.C, f"c-Actuator{index}", rng.random())
    return events[:count]


WINDOWS = 60


def stimulus_response_selects(trace, horizon_us):
    """``ResponseMatcher.match`` on stimulus and response variables."""
    return [
        trace.select(kind, variable)
        for kind, variable in (
            (EventKind.M, "m-BolusReq"), (EventKind.M, "m-Sensor0"), (EventKind.M, "m-Sensor3"),
            (EventKind.C, "c-PumpMotor"), (EventKind.C, "c-Actuator0"), (EventKind.C, "c-Actuator3"),
        )
    ]


def windowed_first(trace, horizon_us):
    """``first_event_after`` probes across the trace."""
    step = horizon_us // WINDOWS
    return [
        trace.first(EventKind.I, "i-BolusReq", after_us=q * step, before_us=(q + 4) * step)
        for q in range(WINDOWS)
    ]


def transition_windows(trace, horizon_us):
    """``MTestAnalyzer._transition_delays`` window queries."""
    step = horizon_us // WINDOWS
    kinds = (EventKind.TRANSITION_START, EventKind.TRANSITION_END)
    return [trace.select_kinds(kinds, q * step, (q + 1) * step) for q in range(WINDOWS)]


def r_test_evaluate(trace, horizon_us):
    """``evaluate_r_trace``: today on the full trace, in the seed on an m/c copy."""
    if not isinstance(trace, Trace):
        trace = trace.restricted_to((EventKind.M, EventKind.C))
    return trace.select(EventKind.M, "m-BolusReq") + trace.select(EventKind.C, "c-PumpMotor")


def _best_of_three(run):
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def query_speedups(count):
    """Per query shape, linear-scan time over indexed time; results must be equal."""
    events = campaign_shaped_events(count)
    horizon = events[-1].timestamp_us
    indexed, linear = Trace(events), _LinearScanTrace(events)
    speedups = {}
    for shape in (stimulus_response_selects, windowed_first, transition_windows, r_test_evaluate):
        assert shape(indexed, horizon) == shape(linear, horizon), shape.__name__
        # The equality check built the lazy index, as on any queried trace.
        speedups[shape.__name__] = _best_of_three(lambda: shape(linear, horizon)) / max(
            _best_of_three(lambda: shape(indexed, horizon)), 1e-9
        )
    return speedups


def test_indexed_queries_equal_the_linear_scan_and_are_never_slower():
    # 5,000 events keep the test under a second.  The slowest shape (the
    # stimulus/response selects, which copy every match) runs over 10x
    # faster indexed, here and at 100,000 events alike.
    speedups = query_speedups(5_000)
    assert min(speedups.values()) >= 1.0, speedups


# ----------------------------------------------------------------------
# Matching invariants
# ----------------------------------------------------------------------
@st.composite
def stimulus_response_schedules(draw):
    """Random stimulus times and (optional) response latencies."""
    count = draw(st.integers(min_value=1, max_value=10))
    gaps = draw(st.lists(st.integers(min_value=1_000, max_value=500_000), min_size=count, max_size=count))
    stimulus_times = []
    current = 0
    for gap in gaps:
        current += gap
        stimulus_times.append(current)
    latencies = draw(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=1, max_value=400_000)),
            min_size=count,
            max_size=count,
        )
    )
    return stimulus_times, latencies


@given(stimulus_response_schedules())
@settings(max_examples=60)
def test_matcher_pairs_are_causal_and_ordered(schedule):
    stimulus_times, latencies = schedule
    events = []
    for stimulus_time, latency in zip(stimulus_times, latencies):
        events.append(Event(EventKind.M, "m-X", True, stimulus_time))
        if latency is not None:
            events.append(Event(EventKind.C, "c-X", 1, stimulus_time + latency))
    trace = Trace(sorted(events, key=lambda event: event.timestamp_us))
    matcher = ResponseMatcher(EventSpec.becomes("m-X", True), EventSpec.becomes_positive("c-X"))
    pairs = matcher.match(trace)

    assert len(pairs) == len(stimulus_times)
    previous_response = -1
    for pair in pairs:
        if pair.response is None:
            continue
        # Causality: the response never precedes its stimulus.
        assert pair.response.timestamp_us >= pair.stimulus.timestamp_us
        # FIFO: responses are consumed in non-decreasing time order.
        assert pair.response.timestamp_us >= previous_response
        previous_response = pair.response.timestamp_us


@given(stimulus_response_schedules(), st.integers(min_value=1_000, max_value=300_000))
@settings(max_examples=60)
def test_matcher_timeout_bounds_latency(schedule, timeout_us):
    stimulus_times, latencies = schedule
    events = []
    for stimulus_time, latency in zip(stimulus_times, latencies):
        events.append(Event(EventKind.M, "m-X", True, stimulus_time))
        if latency is not None:
            events.append(Event(EventKind.C, "c-X", 1, stimulus_time + latency))
    trace = Trace(sorted(events, key=lambda event: event.timestamp_us))
    matcher = ResponseMatcher(EventSpec.becomes("m-X", True), EventSpec.becomes_positive("c-X"))
    for pair in matcher.match(trace, timeout_us=timeout_us):
        if pair.latency_us is not None:
            assert pair.latency_us <= timeout_us


# ----------------------------------------------------------------------
# Delay decomposition invariants
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=0, max_value=1_000_000),
    st.integers(min_value=0, max_value=200_000),
    st.integers(min_value=0, max_value=200_000),
    st.integers(min_value=0, max_value=200_000),
)
def test_complete_segments_always_sum_to_end_to_end(m_time, input_delay, code_delay, output_delay):
    segments = DelaySegments(
        sample_index=0,
        m_time_us=m_time,
        i_time_us=m_time + input_delay,
        o_time_us=m_time + input_delay + code_delay,
        c_time_us=m_time + input_delay + code_delay + output_delay,
    )
    assert segments.complete
    assert segments.segments_consistent()
    assert segments.end_to_end_us == input_delay + code_delay + output_delay
    assert segments.dominant_segment() in {"input", "code", "output"}

"""Property-based tests of the statistics helpers and sufficiency metrics."""

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.statistics import Summary, percentile, violation_rate
from repro.core.coverage import wilson_interval

values = st.lists(st.integers(min_value=0, max_value=10_000_000), min_size=1, max_size=100)


@given(values)
def test_summary_bounds(samples):
    summary = Summary.of(samples)
    assert summary.minimum <= summary.median <= summary.maximum
    assert summary.minimum <= summary.mean <= summary.maximum
    assert summary.minimum <= summary.p95 <= summary.maximum
    assert summary.stdev >= 0
    assert summary.count == len(samples)


@given(values, st.floats(min_value=0, max_value=100))
def test_percentile_within_range(samples, pct):
    value = percentile(samples, pct)
    assert min(samples) <= value <= max(samples)


@given(values)
def test_percentile_extremes(samples):
    assert percentile(samples, 0) == min(samples)
    assert percentile(samples, 100) == max(samples)


@given(
    st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=1_000_000)), min_size=1, max_size=50),
    st.integers(min_value=1, max_value=1_000_000),
)
def test_violation_rate_bounds(latencies, deadline):
    rate = violation_rate(latencies, deadline)
    assert 0.0 <= rate <= 1.0
    if all(latency is None for latency in latencies):
        assert rate == 1.0


@given(
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=1, max_value=100),
    st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True),
)
def test_wilson_interval_is_a_valid_interval(successes, extra, confidence):
    samples = successes + extra
    low, high = wilson_interval(successes, samples, confidence)
    assert 0.0 <= low <= high <= 1.0
    # The observed proportion always lies inside the interval.
    assert low <= successes / samples <= high

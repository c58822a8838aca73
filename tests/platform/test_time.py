"""Unit tests for the simulated time base."""

import pytest

from repro._reference.seed_engine import SeedClock
from repro.platform.kernel.time import (
    SimClock,
    format_us,
    ms,
    seconds,
    us,
)


class TestConversions:
    def test_ms_converts_to_microseconds(self):
        assert ms(1) == 1_000
        assert ms(25) == 25_000
        assert ms(2.5) == 2_500

    def test_seconds_converts_to_microseconds(self):
        assert seconds(1) == 1_000_000
        assert seconds(0.25) == 250_000

    def test_us_is_identity(self):
        assert us(42) == 42

    def test_format_small_values_in_ms(self):
        assert format_us(1500) == "1.500 ms"

    def test_format_large_values_in_seconds(self):
        assert format_us(2_000_000) == "2.000 s"


class TestSimClock:
    """``now`` and ``advance_to`` (with its backwards-move check) are the seed
    kernel's clock interface (``SeedClock``); the production kernel writes the
    shared slot directly."""

    def test_starts_at_given_time(self):
        assert SeedClock(5).now == 5

    def test_default_starts_at_zero(self):
        assert SeedClock().now == 0

    def test_advances_forward(self):
        clock = SeedClock()
        clock.advance_to(100)
        assert clock.now == 100

    def test_advancing_to_same_instant_is_allowed(self):
        clock = SeedClock(10)
        clock.advance_to(10)
        assert clock.now == 10

    def test_cannot_move_backwards(self):
        clock = SeedClock(100)
        with pytest.raises(ValueError):
            clock.advance_to(99)

    def test_cannot_start_negative(self):
        with pytest.raises(ValueError):
            SimClock(-1)

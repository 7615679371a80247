"""Tests for the virtual clock and the observation window."""

import datetime

import pytest

from repro.simulation.clock import (
    OBSERVATION_DAYS,
    OBSERVATION_END,
    SECONDS_PER_DAY,
    SimClock,
    date_to_day,
    day_to_date,
)


class TestObservationWindow:
    def test_window_length(self):
        assert OBSERVATION_END == OBSERVATION_DAYS * SECONDS_PER_DAY

    def test_window_covers_mar_2023(self):
        # The paper's window ends March 31, 2023.
        last_day = day_to_date(OBSERVATION_DAYS - 1)
        assert last_day == datetime.date(2023, 3, 31)

    def test_date_day_roundtrip(self):
        for day in (0, 1, 100, OBSERVATION_DAYS - 1):
            assert date_to_day(day_to_date(day)) == day


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().seconds == 0.0

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(100.0)
        assert clock.seconds == 100.0

    def test_advance_to_backwards_rejected(self):
        clock = SimClock(start=50.0)
        with pytest.raises(ValueError):
            clock.advance_to(49.0)

    def test_custom_start(self):
        assert SimClock(start=7.0).seconds == 7.0

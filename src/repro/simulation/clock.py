"""Virtual time for the honeyfarm simulation.

The paper's observation window runs from December 1, 2021 until March 31,
2023 (486 days).  We anchor virtual time at the window start and measure it
in seconds, as plain ``float`` seconds since the anchor.
"""

from __future__ import annotations

import datetime as _dt

SECONDS_PER_DAY = 86_400

#: Calendar anchor of virtual second 0 (the honeyfarm observation start).
ANCHOR_DATE = _dt.date(2021, 12, 1)

#: First virtual second of the observation window.
OBSERVATION_START = 0.0

#: Number of days in the paper's observation window (2021-12-01 .. 2023-03-31).
OBSERVATION_DAYS = 486

#: Last virtual second of the observation window (exclusive).
OBSERVATION_END = float(OBSERVATION_DAYS * SECONDS_PER_DAY)


def day_to_date(day: int) -> _dt.date:
    """Map a zero-based observation-day index to its calendar date."""
    return ANCHOR_DATE + _dt.timedelta(days=day)


def date_to_day(date: _dt.date) -> int:
    """Map a calendar date to its zero-based observation-day index."""
    return (date - ANCHOR_DATE).days


class SimClock:
    """A monotonically advancing virtual clock.

    The clock refuses to move backwards: honeypot session state machines and
    the discrete-event engine rely on monotonic time for timeout handling.
    """

    def __init__(self, start: float = OBSERVATION_START):
        self._now = float(start)

    @property
    def seconds(self) -> float:
        return self._now

    def advance_to(self, when: float) -> None:
        """Advance the clock to absolute virtual second ``when``."""
        if when < self._now:
            raise ValueError(
                f"cannot move clock backwards: now={self._now}, requested={when}"
            )
        self._now = float(when)

"""Close-delimited trading days and event anchoring.

Tweet days are delimited by the 16:00 US/Eastern market close, not by
midnight: every instant belongs to the trading date whose close ends the
interval it falls in. Announcements made after the close therefore anchor
to the *next* trading date (their day 0), while before-open announcements
anchor to the same date.

Boundary convention at the close itself: an instant exactly at 16:00:00
belongs to the day just closing, while an announcement stamped 16:00:00 is
an AfterClose event whose day 0 is the next trading date. The asymmetry is
deliberate and covered by tests.

Columns of instants (epoch seconds) map to their days in one
``np.searchsorted`` over the close instants: ``TradingCalendar.day_indices``.
``close_delimited_day`` does the same for one instant by bisection and is
the reference the vectorized path is tested against.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from zoneinfo import ZoneInfo

import numpy as np

from .errors import NonTradingAnnouncement, OutOfCalendarRange
from .model import Dataset, EarningsEvent, Timing

EASTERN = ZoneInfo("America/New_York")
MARKET_OPEN = time(9, 30)
MARKET_CLOSE = time(16, 0)


def close_instant(day: date) -> datetime:
    """UTC instant of the 16:00 US/Eastern close on the given calendar day."""
    return datetime.combine(day, MARKET_CLOSE, tzinfo=EASTERN).astimezone(
        ZoneInfo("UTC")
    )


def to_eastern(instant: datetime) -> datetime:
    if instant.tzinfo is None:
        raise ValueError("naive timestamps are not allowed")
    return instant.astimezone(EASTERN)


def eastern_hours(ts: np.ndarray) -> np.ndarray:
    """US/Eastern wall-clock hour of each UTC epoch second.

    Converts each distinct instant once; hourly buckets repeat few of them.
    """
    unique, inverse = np.unique(ts, return_inverse=True)
    hours = [datetime.fromtimestamp(t, EASTERN).hour for t in unique.tolist()]
    return np.array(hours, dtype=np.int64)[inverse.reshape(-1)]


@dataclass
class TradingCalendar:
    """Ordered trading dates with close-delimited day assignment.

    The calendar's coverage is the half-open interval of instants
    ``(virtual previous close, close(last date)]`` where the virtual
    previous close is 16:00 US/Eastern on the calendar day before the
    first trading date.
    """

    dates: tuple[date, ...]

    _closes_ts: np.ndarray = field(init=False, repr=False, compare=False)  # int64 epoch s
    _lower_ts: int = field(init=False, repr=False, compare=False)
    _index: dict[date, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.dates:
            raise ValueError("calendar must contain at least one trading date")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise ValueError("trading dates must be strictly increasing")
        self._closes_ts = np.array(
            [int(close_instant(d).timestamp()) for d in self.dates], dtype=np.int64
        )
        self._lower_ts = int(close_instant(self.dates[0] - timedelta(days=1)).timestamp())
        self._index = {d: i for i, d in enumerate(self.dates)}

    @classmethod
    def from_dataset(cls, ds: Dataset) -> "TradingCalendar":
        """A date is a trading day iff the benchmark index has a bar for it."""
        return cls(tuple(b.date for b in ds.index))

    def __len__(self) -> int:
        return len(self.dates)

    def __contains__(self, day: date) -> bool:
        return day in self._index

    def index_of(self, day: date) -> int:
        try:
            return self._index[day]
        except KeyError:
            raise OutOfCalendarRange(f"{day} is not a trading date") from None

    def date_at(self, i: int) -> date:
        if i < 0 or i >= len(self.dates):
            raise OutOfCalendarRange(f"calendar index {i} out of range")
        return self.dates[i]

    def close_delimited_day(self, instant: datetime) -> date:
        """Trading date D with instant in (close(D-1), close(D)].

        Instants after a Friday close (or any close preceding a holiday)
        roll forward to the next trading date.
        """
        if instant.tzinfo is None:
            raise ValueError("naive timestamps are not allowed")
        ts = instant.timestamp()
        if ts <= self._lower_ts or ts > self._closes_ts[-1]:
            raise OutOfCalendarRange(
                f"{instant.isoformat()} is outside calendar coverage"
            )
        return self.dates[bisect_left(self._closes_ts, ts)]

    def covers_ts(self, ts):
        """Coverage mask for epoch seconds (a scalar or an array)."""
        return (ts > self._lower_ts) & (ts <= self._closes_ts[-1])

    def day_indices(self, ts: np.ndarray) -> np.ndarray:
        """Calendar index of the close-delimited day of each epoch second.

        Raises OutOfCalendarRange if any instant is outside coverage.
        """
        inside = self.covers_ts(ts)
        if not inside.all():
            first = datetime.fromtimestamp(int(ts[np.argmin(inside)]), ZoneInfo("UTC"))
            raise OutOfCalendarRange(f"{first.isoformat()} is outside calendar coverage")
        return np.searchsorted(self._closes_ts, ts, side="left")

    def next_after(self, day: date) -> date:
        """First trading date strictly after the given calendar day."""
        i = bisect_left(self.dates, day)
        if i < len(self.dates) and self.dates[i] == day:
            i += 1
        if i >= len(self.dates):
            raise OutOfCalendarRange(f"no trading date after {day}")
        return self.dates[i]


@dataclass(frozen=True)
class EventAnchor:
    """An event pinned to its day-0 trading date on a calendar."""

    event: EarningsEvent
    calendar: TradingCalendar
    day0: date

    @property
    def day0_index(self) -> int:
        """Calendar index of day 0: relative day k is at ``day0_index + k``."""
        return self.calendar.index_of(self.day0)

    def day(self, k: int) -> date:
        """The k-th trading date relative to day 0, k in [-1, +10] typically."""
        return self.calendar.date_at(self.day0_index + k)


def day0_index(ev: EarningsEvent, cal: TradingCalendar) -> int:
    """Calendar index of an announcement's day-0 trading date.

    BeforeOpen: the announcement morning's own session is day 0.
    AfterClose: day 0 is the next trading date after the announcement's
    (exchange-local) calendar date; trading on the news happens there.
    """
    local = to_eastern(ev.announce_at)
    if ev.timing is Timing.BEFORE_OPEN:
        if local.time() >= MARKET_OPEN:
            raise NonTradingAnnouncement(
                f"{ev.ticker} {ev.announce_at.isoformat()}: BeforeOpen but at/after 09:30"
            )
        day0 = local.date()
        if day0 not in cal:
            raise NonTradingAnnouncement(
                f"{ev.ticker} {ev.announce_at.isoformat()}: {day0} is not a trading date"
            )
    else:
        if local.time() < MARKET_CLOSE:
            raise NonTradingAnnouncement(
                f"{ev.ticker} {ev.announce_at.isoformat()}: AfterClose but before 16:00"
            )
        day0 = cal.next_after(local.date())
    if (i0 := cal.index_of(day0)) == 0:
        raise OutOfCalendarRange(f"day 0 of {ev.ticker} event has no prior trading date")
    return i0


def anchor_event(ev: EarningsEvent, cal: TradingCalendar) -> EventAnchor:
    """The event pinned to its day-0 trading date (see ``day0_index``)."""
    return EventAnchor(event=ev, calendar=cal, day0=cal.dates[day0_index(ev, cal)])

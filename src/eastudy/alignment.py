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
``np.searchsorted`` over the closes, ``day_indices``, which marks an instant
outside the coverage and never refuses it. ``close_delimited_day`` raises
there; it maps one instant by bisection and is the reference for the rest.

US/Eastern wall-clock times come from one offset kernel,
``eastern_offsets``: a transition table read from ``ZoneInfo`` for the
years that hold a stamp, then one ``np.searchsorted``. It serves the
events parser's local-time rule, the anchoring, the announcement dates and
the hourly tweet profiles. ``anchor_days`` anchors a column of events in
one pass: each event's day 0 or the code of why it has none, and
``anchor_error`` turns a code into the error text. ``anchor_event`` anchors
one event through the same kernel.
"""

from __future__ import annotations

from bisect import bisect_left
from datetime import date, datetime, time, timedelta
from functools import lru_cache
from typing import Mapping, NamedTuple
from zoneinfo import ZoneInfo

import numpy as np

from .errors import NonTradingAnnouncement, OutOfCalendarRange
from .model import EPOCH, Dataset, EarningsEvent, Events, Timing

EASTERN = ZoneInfo("America/New_York")
MARKET_OPEN = time(9, 30)
MARKET_CLOSE = time(16, 0)
_DAY_S = 86400
_DAY_US = _DAY_S * 10**6
# the open and the close as microseconds into a day
_OPEN_US, _CLOSE_US = ((t.hour * 60 + t.minute) * 60 * 10**6 for t in (MARKET_OPEN, MARKET_CLOSE))
_EPOCH_ORDINAL = EPOCH.toordinal()
FIRST_DAY = date.min.toordinal() - _EPOCH_ORDINAL  # days since 1970-01-01 of date.min, date.max
_LAST_DAY = date.max.toordinal() - _EPOCH_ORDINAL


def close_instant(day: date) -> datetime:
    """UTC instant of the 16:00 US/Eastern close on the given calendar day."""
    return datetime.combine(day, MARKET_CLOSE, tzinfo=EASTERN).astimezone(
        ZoneInfo("UTC")
    )


def eastern_instants(local: np.ndarray) -> np.ndarray:
    """UTC epoch seconds of each US/Eastern wall-clock time (local seconds
    since 1970-01-01), the offset read at the instant, first guessed 5 hours on:
    ``ZoneInfo``'s instant, but the later one of a time a fall-back repeats."""
    return local - eastern_offsets(local - eastern_offsets(local + 5 * 3600))


def close_instants(days: np.ndarray) -> np.ndarray:
    """UTC epoch seconds of the 16:00 US/Eastern close on each day (days
    since 1970-01-01): ``close_instant`` through ``eastern_instants``."""
    return eastern_instants(days * _DAY_S + _CLOSE_US // 10**6)


def to_eastern(instant: datetime) -> datetime:
    if instant.tzinfo is None:
        raise ValueError("naive timestamps are not allowed")
    return instant.astimezone(EASTERN)


def _offset(ts: int) -> int:
    """The US/Eastern UTC offset in seconds at one UTC epoch second."""
    return int((EPOCH + timedelta(seconds=ts)).astimezone(EASTERN).utcoffset().total_seconds())


@lru_cache(maxsize=None)  # at most one entry per year from 1 to 9999
def _year_offsets(year: int) -> np.ndarray:
    """(instant, offset) rows: the US/Eastern offset from each instant on,
    over one UTC year and a day on either side. It is read at noon UTC of
    every day, and a change between two noons is bisected to the second."""
    first, last = (date(year, m, d).toordinal() - _EPOCH_ORDINAL for m, d in ((1, 1), (12, 31)))
    noons = [d * _DAY_S + _DAY_S // 2 for d in range(max(first - 1, FIRST_DAY),
                                                   min(last + 1, _LAST_DAY) + 1)]
    table = [(noons[0], _offset(noons[0]))]
    for noon in noons[1:]:
        if (value := _offset(noon)) != table[-1][1]:
            lo, hi = noon - _DAY_S, noon  # the offset changes in (lo, hi]
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if _offset(mid) == table[-1][1] else (lo, mid)
            table.append((hi, value))
    table = np.array(table, dtype=np.int64)
    table.flags.writeable = False  # the cache hands the same array to every caller
    return table


def eastern_offsets(ts: np.ndarray) -> np.ndarray:
    """The US/Eastern UTC offset in seconds (local = UTC + offset) at each
    UTC epoch second of ``ts``, as ``ZoneInfo`` gives it.

    The transition table covers just the UTC years that hold a stamp (a
    ``bincount`` of their years), so a stray far-off stamp costs one year
    of table, not the days in between. Each year's table is built once per
    process. A stamp before the first table instant (the first hours of
    year 1) gets the first offset.
    """
    ts = np.asarray(ts, dtype=np.int64)
    if not len(ts):
        return np.zeros(0, dtype=np.int64)
    years = (ts // _DAY_S).astype("datetime64[D]").astype("datetime64[Y]").astype(np.int64)
    least = int(years.min())
    table = np.concatenate([_year_offsets(y + 1970) for y in
                            (np.flatnonzero(np.bincount(years - least)) + least).tolist()])
    table = table[np.argsort(table[:, 0], kind="stable")]  # the years overlap by a day or two
    return table[np.maximum(np.searchsorted(table[:, 0], ts, side="right") - 1, 0), 1]


def eastern_clock(at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """US/Eastern date (days since 1970-01-01) and time of day (microseconds)
    of each UTC epoch microsecond."""
    local = at + eastern_offsets(at // 10**6) * 10**6
    return local // _DAY_US, local % _DAY_US


def keeps_bell(timing: np.ndarray, tod: np.ndarray) -> np.ndarray:
    """Whether each announcement keeps its timing's rule: a BeforeOpen one
    is made before 09:30 local time, an AfterClose one at 16:00 or later.
    ``timing`` holds ``Timing.code`` values, ``tod`` local times of day."""
    return np.where(timing == Timing.BEFORE_OPEN.code, tod < _OPEN_US, tod >= _CLOSE_US)


def eastern_hours(ts: np.ndarray) -> np.ndarray:
    """US/Eastern wall-clock hour of each UTC epoch second."""
    return (ts + eastern_offsets(ts)) // 3600 % 24


class TradingCalendar:
    """Ordered trading dates with close-delimited day assignment.

    The calendar's coverage is the half-open interval of instants
    ``(virtual previous close, close(last date)]`` where the virtual
    previous close is 16:00 US/Eastern on the calendar day before the
    first trading date. ``days`` holds the dates as days since 1970-01-01.
    Calendars compare by their dates.
    """

    def __init__(self, dates: tuple[date, ...]):
        if not dates:
            raise ValueError("calendar must contain at least one trading date")
        self.dates = dates
        self.days = np.array([d.toordinal() for d in dates], dtype=np.int64) - _EPOCH_ORDINAL
        if (np.diff(self.days) <= 0).any():
            raise ValueError("trading dates must be strictly increasing")
        self._bounds = close_instants(np.concatenate(([self.days[0] - 1], self.days)))
        self._lower_ts, self._closes_ts = int(self._bounds[0]), self._bounds[1:]  # int64 epoch s
        self._index = {d: i for i, d in enumerate(dates)}

    def __eq__(self, other) -> bool:
        return self.dates == other.dates if type(other) is type(self) else NotImplemented

    @classmethod
    def from_dataset(cls, ds: Dataset) -> "TradingCalendar":
        """A date is a trading day iff the benchmark index has a bar for it."""
        return cls(tuple(ds.index.day.tolist()))

    def __len__(self) -> int:
        return len(self.dates)

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

    def day_indices(self, ts: np.ndarray) -> np.ndarray:
        """Calendar index of the close-delimited day of each epoch second:
        -1 at or before the virtual previous close, ``len(self)`` after the
        last close: an instant outside the coverage is marked, never refused."""
        return np.searchsorted(self._bounds, ts, side="left") - 1

    def next_after(self, day: date) -> date:
        """First trading date strictly after the given calendar day."""
        i = bisect_left(self.dates, day)
        if i < len(self.dates) and self.dates[i] == day:
            i += 1
        if i >= len(self.dates):
            raise OutOfCalendarRange(f"no trading date after {day}")
        return self.dates[i]

    def column(self, values: Mapping[date, float]) -> np.ndarray:
        """``values`` by calendar index, as float64: NaN on a date it lacks."""
        return np.array([values.get(d, np.nan) for d in self.dates], dtype=np.float64)


class EventAnchor(NamedTuple):
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


# why an event has no day 0, by reason code (0: it has one); the first that
# applies is its reason. ``{date}`` is the announcement's local date.
ANCHOR_ERRORS = (
    None,
    (NonTradingAnnouncement, "{ticker} {at}: BeforeOpen but at/after 09:30"),
    (NonTradingAnnouncement, "{ticker} {at}: {date} is not a trading date"),
    (NonTradingAnnouncement, "{ticker} {at}: AfterClose but before 16:00"),
    (OutOfCalendarRange, "no trading date after {date}"),
    (OutOfCalendarRange, "day 0 of {ticker} event has no prior trading date"),
)


def anchor_days(cal: TradingCalendar, events: Events) -> tuple[np.ndarray, ...]:
    """Day 0 of every event: its calendar index (-1 where it has none), the
    int8 reason code of ``ANCHOR_ERRORS`` (0 where it has one), and the
    announcement's US/Eastern date as days since 1970-01-01.

    BeforeOpen: the announcement morning's own session is day 0; the local
    time must be before 09:30 and the local date a trading date.
    AfterClose: day 0 is the next trading date after the announcement's
    local date, where trading on the news happens; the local time must be
    16:00 or later. Day 0 must have a trading date before it.
    """
    day, tod = eastern_clock(events.at)
    dates, kept = cal.days, keeps_bell(events.timing, tod)
    before_open = events.timing == Timing.BEFORE_OPEN.code
    at = np.searchsorted(dates, day)
    day0 = np.where(before_open, at, np.searchsorted(dates, day, side="right"))
    trading = dates[np.minimum(at, len(dates) - 1)] == day
    reason = np.select(
        [before_open & ~kept, before_open & ~trading, ~before_open & ~kept,
         day0 >= len(dates), day0 == 0],
        [1, 2, 3, 4, 5], 0,
    ).astype(np.int8)
    return np.where(reason == 0, day0, -1), reason, day


def anchor_error(reason: int, ticker: str, announce_at: datetime, day: int) -> Exception:
    """The error of reason code ``reason`` for an event announced at
    ``announce_at`` on local day ``day`` (days since 1970-01-01)."""
    kind, text = ANCHOR_ERRORS[reason]
    local = date.fromordinal(day + _EPOCH_ORDINAL)
    return kind(text.format(ticker=ticker, at=announce_at.isoformat(), date=local))


def anchor_event(ev: EarningsEvent, cal: TradingCalendar) -> EventAnchor:
    """The event pinned to its day-0 trading date (see ``anchor_days``);
    raises its anchoring error if it has none."""
    if ev.announce_at.tzinfo is None:
        raise ValueError("naive timestamps are not allowed")
    day0, reason, day = anchor_days(cal, Events.of([ev]))
    if reason[0]:
        raise anchor_error(int(reason[0]), ev.ticker, ev.announce_at, int(day[0]))
    return EventAnchor(event=ev, calendar=cal, day0=cal.dates[int(day0[0])])

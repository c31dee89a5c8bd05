"""Core domain types: bars, tweet buckets, announcement events, datasets.

All instants are timezone-aware UTC datetimes; naive timestamps are never
accepted. Calendar dates are exchange-local ``datetime.date`` values. All
four inputs are stored as columns: tweet buckets, by far the largest, daily
bars, announcement events (``TweetBuckets``, ``DailyBars``, ``Events``) and
the index levels (``IndexLevels``), with instants as integer epoch seconds
(epoch microseconds for announcements, which may carry fractions of a
second) and dates as ``datetime64[D]``. Only ``Events.record`` gives a row
as a record (``EarningsEvent``), for the one-event adapters. A ``Dataset``
codes its bars, tweets and events into one sorted ticker table, so a code
is a row of every (ticker x trading day) grid, such as the bars on the
trading calendar (``PriceGrid``) that the event study, the hold returns and
the volume report read by code and calendar index.
"""

from __future__ import annotations

import enum
import re
from datetime import date, datetime, timedelta, timezone
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvariantViolation

TICKER_RE = re.compile(r"^[A-Z.]{1,6}$")

INDEX_TICKER = "INDEX"
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MICROSECOND = timedelta(microseconds=1)


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values: ``np.unique`` without its import of ``numpy.ma``."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


_ORDER_SLICE = 1 << 16  # rows per slice of ``in_order``: bounds its temporaries


def in_order(code: np.ndarray, key: np.ndarray) -> bool:
    """Whether the rows are sorted by code, and strictly by key within a code.

    The rows are compared a slice at a time, so no temporary is as long as
    the columns.
    """
    for lo in range(0, len(code) - 1, _ORDER_SLICE):
        c, k = code[lo:lo + _ORDER_SLICE + 1], key[lo:lo + _ORDER_SLICE + 1]
        if not ((c[1:] > c[:-1]) | ((c[1:] == c[:-1]) & (k[1:] > k[:-1]))).all():
            return False
    return True


class Frozen:
    """A record of the annotated fields, its bases' first, set once by
    ``__init__`` from positional or keyword arguments. Assigning an
    attribute raises, as on a frozen dataclass; ``_replace`` is a copy with
    some fields changed, as on a NamedTuple; a cached property still fills
    the instance dict. Unlike a dataclass, it costs next to nothing to
    define, which every command pays at start-up."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(self._fields) or given.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        for name in self._fields:
            object.__setattr__(self, name, given[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _replace(self, **changes) -> "Frozen":
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})


class Timing(enum.Enum):
    """When an announcement was made relative to NYSE trading hours."""

    BEFORE_OPEN = "BeforeOpen"
    AFTER_CLOSE = "AfterClose"

    @property
    def code(self) -> int:
        """The timing's code in an int8 column: its place in ``Timing``."""
        return list(Timing).index(self)


class DailyBar(NamedTuple):
    """One ticker's closing price and share volume for one trading day."""

    ticker: str
    date: date
    close: float
    volume: int


class _Columns(Frozen):
    """Rows held as columns: a sorted ticker table ``tickers``, then the
    column fields, the first of them ``code`` (an index into ``tickers``).

    Indexing with a mask or an index array gives the selected rows. Rows
    compare by ticker name, so equal rows may carry different ticker tables.
    """

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self._fields[1:]]

    def canonical(self):
        """The same rows sorted by (ticker, the column after ``code``)."""
        code, key = self._columns()[:2]
        return self if in_order(code, key) else self[np.lexsort((key, code))]

    def __len__(self) -> int:
        return len(self.code)

    def on(self, tickers: tuple[str, ...]):
        """The same rows coded into ``tickers``, a sorted table holding their own."""
        if tickers == self.tickers:
            return self
        at = {t: i for i, t in enumerate(tickers)}
        code = np.array([at[t] for t in self.tickers], dtype=np.int64)[self.code]
        return type(self)(tickers, code, *self._columns()[1:])

    def __getitem__(self, i):
        return type(self)(self.tickers, *(c[i] for c in self._columns()))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        mine, theirs = (
            [np.array(b.tickers, dtype=object)[b.code], *b._columns()[1:]] for b in (self, other)
        )
        return len(self) == len(other) and all(map(np.array_equal, mine, theirs))

    __hash__ = None
    __iter__ = None  # a row is read from the columns, never as an item


def _int32(values) -> np.ndarray:
    """``values`` as int32, the same array when it already is; raise
    InvariantViolation for a value int32 cannot hold."""
    values = np.asarray(values)
    if values.dtype == np.int32:
        return values
    narrow = values.astype(np.int32)
    if not np.array_equal(narrow, values):
        raise InvariantViolation("every tweet count must fit in int32")
    return narrow


class TweetBuckets(_Columns):
    """Hourly tweet buckets as columns: one row per (ticker, hour) bucket.

    ``ts`` is the hour start in UTC epoch seconds, so sorting rows by
    ``(code, ts)`` is sorting them by ``(ticker, hour_start)``. ``code`` and
    ``ts`` are int64; the three label counts are int32, which holds
    ``MAX_COUNT``. Counts given in another dtype are cast, and a count int32
    cannot hold raises InvariantViolation. Every sum of counts is taken in
    int64.
    """

    tickers: tuple[str, ...]
    code: np.ndarray
    ts: np.ndarray
    n_neg: np.ndarray
    n_neut: np.ndarray
    n_pos: np.ndarray

    def __init__(self, tickers, code, ts, n_neg, n_neut, n_pos):
        super().__init__(tickers, code, ts, *map(_int32, (n_neg, n_neut, n_pos)))

    @property
    def total(self) -> np.ndarray:
        """Tweets per bucket, as int64: three counts at ``MAX_COUNT`` overflow int32."""
        return self.n_neg.astype(np.int64) + self.n_neut + self.n_pos


class DailyBars(_Columns):
    """Daily bars as columns: one row per (ticker, date) bar.

    ``day`` is the date as ``datetime64[D]``, ``close`` float64 and
    ``volume`` int64.
    """

    tickers: tuple[str, ...]
    code: np.ndarray
    day: np.ndarray
    close: np.ndarray
    volume: np.ndarray


class IndexLevels(Frozen):
    """The benchmark index as columns: one row per trading day, ``day`` as
    strictly increasing ``datetime64[D]`` and the level ``close`` as float64."""

    day: np.ndarray
    close: np.ndarray

    def __len__(self) -> int:
        return len(self.day)

    def __getitem__(self, i):
        return IndexLevels(self.day[i], self.close[i])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.day, other.day) and np.array_equal(self.close, other.close)

    __hash__ = None


class EarningsEvent(NamedTuple):
    """One earnings announcement with its timing class and EPS figures."""

    ticker: str
    announce_at: datetime  # UTC
    timing: Timing
    eps_reported: float
    eps_estimated: float
    excluded: bool = False
    exclusion_reason: str = ""

    def key(self) -> tuple:
        """Canonical ordering key, used wherever determinism matters."""
        return (self.ticker, self.announce_at)


class Events(_Columns):
    """Earnings announcements as columns: one row per (ticker, instant) event.

    ``at`` is the announcement in UTC epoch microseconds, so sorting rows by
    ``(code, at)`` is sorting them by ``EarningsEvent.key``. ``timing`` holds
    int8 ``Timing.code`` values and the EPS figures are float64; a zero
    estimate excludes an event, in ``build_universe`` and in ``record``.
    """

    tickers: tuple[str, ...]
    code: np.ndarray
    at: np.ndarray
    timing: np.ndarray
    eps_reported: np.ndarray
    eps_estimated: np.ndarray

    @classmethod
    def of(cls, events: Sequence[EarningsEvent]) -> "Events":
        """Columns of the given records, in their order."""
        tickers = tuple(sorted({ev.ticker for ev in events}))
        codes = {t: i for i, t in enumerate(tickers)}
        return cls(
            tickers,
            np.array([codes[ev.ticker] for ev in events], dtype=np.int64),
            np.array([(ev.announce_at - EPOCH) // MICROSECOND for ev in events], dtype=np.int64),
            np.array([ev.timing.code for ev in events], dtype=np.int8),
            np.array([ev.eps_reported for ev in events], dtype=np.float64),
            np.array([ev.eps_estimated for ev in events], dtype=np.float64),
        )

    @property
    def names(self) -> np.ndarray:
        """The ticker of each row, as an object array."""
        return np.array(self.tickers, dtype=object)[self.code]

    def stamps(self, rows=slice(None)) -> list[str]:
        """``YYYY-MM-DDTHH:MM:SSZ`` of the selected rows' announcements, the
        fractions of a second dropped as ``format_rfc3339`` drops them."""
        seconds = (self.at[rows] // 10**6).astype("datetime64[s]")
        return [s + "Z" for s in np.datetime_as_string(seconds, unit="s").tolist()]

    def exclusions(self, rows: np.ndarray, reasons: Sequence[str]) -> list[tuple[str, str, str]]:
        """(ticker, announcement stamp, reason) of each row of the index
        array ``rows``, the shape of every exclusion list."""
        return list(zip(self.names[rows].tolist(), self.stamps(rows), reasons))

    def record(self, i: int) -> EarningsEvent:
        """Row i as a record, for the adapters that take one event."""
        excluded = bool(self.eps_estimated[i] == 0)
        return EarningsEvent(
            ticker=self.tickers[self.code[i]],
            announce_at=EPOCH + int(self.at[i]) * MICROSECOND,
            timing=list(Timing)[self.timing[i]],
            eps_reported=float(self.eps_reported[i]),
            eps_estimated=float(self.eps_estimated[i]),
            excluded=excluded,
            exclusion_reason="zero estimate" if excluded else "",
        )


def _simple_returns(closes: np.ndarray) -> np.ndarray:
    """(c[i] - c[i-1]) / c[i-1] along the last axis; NaN on the first day and
    wherever either close is missing."""
    out = np.full(closes.shape, np.nan)
    out[..., 1:] = (closes[..., 1:] - closes[..., :-1]) / closes[..., :-1]
    return out


class PriceGrid(Frozen):
    """Daily bars on the trading calendar: one column per trading day.

    ``dates`` are the index's dates, which are the trading calendar.
    ``closes`` and ``volume`` have one float row per code of the bars
    (``tickers``) and are NaN where that ticker has no bar;
    ``index_closes`` has the index level of every trading day. The daily
    returns are simple returns between consecutive trading days, NaN on the
    first day and wherever either bar is missing, so no return spans a gap.
    """

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    closes: np.ndarray
    volume: np.ndarray
    index_closes: np.ndarray

    @classmethod
    def from_bars(cls, bars: DailyBars, index: IndexLevels) -> "PriceGrid":
        """The grid of ``bars`` on the calendar of ``index``.

        Raises InvariantViolation for a bar off the calendar, a ticker's bars
        out of date order or repeated, or a close that is not a positive
        number: the grid cannot hold them as the bars say.
        """
        days = index.day
        cols = np.minimum(np.searchsorted(days, bars.day), max(len(days) - 1, 0))
        off = days[cols] != bars.day if len(days) else np.ones(len(bars), dtype=bool)
        if off.any():
            i = int(np.argmax(off))
            raise InvariantViolation(f"{bars.tickers[bars.code[i]]} bar on {bars.day[i]} "
                                     "is not a trading date")
        order = np.argsort(bars.code, kind="stable")
        same_ticker = np.diff(bars.code[order]) == 0
        if (same_ticker & (np.diff(cols[order]) <= 0)).any():
            raise InvariantViolation("a ticker's bars are out of date order or repeated")
        closes = np.full((len(bars.tickers), len(days)), np.nan)
        volume = np.full(closes.shape, np.nan)
        closes[bars.code, cols] = bars.close
        volume[bars.code, cols] = bars.volume
        for values in (bars.close, index.close):
            if not (np.isfinite(values) & (values > 0)).all():
                raise InvariantViolation("every close must be a positive number")
        return cls(tuple(days.tolist()), bars.tickers, closes, volume, index.close)

    @cached_property
    def n_bars(self) -> np.ndarray:
        """The number of bars of each row."""
        return np.count_nonzero(~np.isnan(self.closes), axis=1)

    @cached_property
    def returns(self) -> np.ndarray:
        """Daily return per (ticker, trading day)."""
        return _simple_returns(self.closes)

    @cached_property
    def index_returns(self) -> np.ndarray:
        """Daily return of the index per trading day."""
        return _simple_returns(self.index_closes)


class Dataset:
    """Immutable-by-convention container for the four input collections.

    Collections are canonically sorted columns. Events given as records are
    turned into columns in their order. ``tickers`` is every ticker of the
    bars, the tweets and the events, sorted, and all three are coded into it
    (copied only where their own table differs). ``digests`` maps an input
    name to the SHA-256 of the bytes ``load_dataset`` read. Datasets compare
    by their four collections. The price grid is built on first use, so the
    dataset can be shared freely.
    """

    def __init__(self, bars: DailyBars, index: IndexLevels, tweets: TweetBuckets,
                 events: Events | Sequence[EarningsEvent], digests: dict[str, str] | None = None):
        columns = bars, tweets, events if isinstance(events, Events) else Events.of(events)
        self.tickers = tuple(sorted({t for c in columns for t in c.tickers}))
        self.bars, self.tweets, self.events = (c.on(self.tickers) for c in columns)
        self.index, self.digests = index, digests or {}

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.bars, self.index, self.tweets, self.events) == (
            other.bars, other.index, other.tweets, other.events)

    @cached_property
    def prices(self) -> PriceGrid:
        """The bars on the trading calendar the index implies, a row per ticker
        (all NaN for one without bars), built once; see ``PriceGrid.from_bars``."""
        return PriceGrid.from_bars(self.bars, self.index)

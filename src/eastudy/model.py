"""Core domain types: bars, tweet buckets, announcement events, datasets.

All instants are timezone-aware UTC datetimes; naive timestamps are never
accepted. Calendar dates are exchange-local ``datetime.date`` values. Tweet
buckets, by far the largest input, are stored as columns (``TweetBuckets``)
with instants as integer epoch seconds.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from typing import Iterable, Iterator

import numpy as np

TICKER_RE = re.compile(r"^[A-Z.]{1,6}$")

INDEX_TICKER = "INDEX"


def validate_ticker(symbol: str) -> str:
    """Return the symbol if it is a valid ticker, else raise ValueError."""
    if not TICKER_RE.match(symbol):
        raise ValueError(f"invalid ticker symbol: {symbol!r}")
    return symbol


class Timing(enum.Enum):
    """When an announcement was made relative to NYSE trading hours."""

    BEFORE_OPEN = "BeforeOpen"
    AFTER_CLOSE = "AfterClose"


@dataclass(frozen=True)
class DailyBar:
    """One ticker's closing price and share volume for one trading day."""

    ticker: str
    date: date
    close: float
    volume: int


@dataclass(frozen=True)
class IndexBar:
    """Benchmark index level for one trading day."""

    date: date
    close: float


@dataclass(frozen=True)
class TweetBucket:
    """Hourly sentiment-labeled tweet counts for one ticker."""

    ticker: str
    hour_start: datetime  # UTC, truncated to the hour
    n_neg: int
    n_neut: int
    n_pos: int

    @property
    def total(self) -> int:
        return self.n_neg + self.n_neut + self.n_pos


@dataclass(frozen=True, eq=False)
class TweetBuckets:
    """Hourly tweet buckets as columns: one row per (ticker, hour) bucket.

    ``tickers`` holds the sorted ticker names and ``code`` indexes into it,
    so sorting rows by ``(code, ts)`` is sorting them by ``(ticker,
    hour_start)``. ``ts`` is the hour start in UTC epoch seconds. All
    columns are int64. Indexing with an int gives one ``TweetBucket``;
    indexing with a mask or an index array gives the selected rows.
    """

    tickers: tuple[str, ...]
    code: np.ndarray
    ts: np.ndarray
    n_neg: np.ndarray
    n_neut: np.ndarray
    n_pos: np.ndarray

    @classmethod
    def from_buckets(cls, buckets: Iterable[TweetBucket]) -> "TweetBuckets":
        """Columns of the given buckets, in canonical (ticker, hour_start) order."""
        buckets = list(buckets)
        tickers = tuple(sorted({b.ticker for b in buckets}))
        codes = {t: i for i, t in enumerate(tickers)}
        return cls(
            tickers=tickers,
            code=np.array([codes[b.ticker] for b in buckets], dtype=np.int64),
            ts=np.array([int(b.hour_start.timestamp()) for b in buckets], dtype=np.int64),
            n_neg=np.array([b.n_neg for b in buckets], dtype=np.int64),
            n_neut=np.array([b.n_neut for b in buckets], dtype=np.int64),
            n_pos=np.array([b.n_pos for b in buckets], dtype=np.int64),
        ).canonical()

    @classmethod
    def of(cls, tweets: "TweetBuckets | Iterable[TweetBucket]") -> "TweetBuckets":
        return tweets if isinstance(tweets, cls) else cls.from_buckets(tweets)

    def canonical(self) -> "TweetBuckets":
        """The same rows sorted by (ticker, hour_start)."""
        return self[np.lexsort((self.ts, self.code))]

    @property
    def total(self) -> np.ndarray:
        return self.n_neg + self.n_neut + self.n_pos

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return TweetBucket(
                ticker=self.tickers[self.code[i]],
                hour_start=datetime.fromtimestamp(int(self.ts[i]), timezone.utc),
                n_neg=int(self.n_neg[i]),
                n_neut=int(self.n_neut[i]),
                n_pos=int(self.n_pos[i]),
            )
        return TweetBuckets(
            self.tickers, self.code[i], self.ts[i], self.n_neg[i], self.n_neut[i], self.n_pos[i]
        )

    def __iter__(self) -> Iterator[TweetBucket]:
        return (self[i] for i in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TweetBuckets):
            return NotImplemented
        # rows compare by ticker name: equal rows may carry different ticker tables
        mine, theirs = (
            (np.array(b.tickers, dtype=object)[b.code], b.ts, b.n_neg, b.n_neut, b.n_pos)
            for b in (self, other)
        )
        return len(self) == len(other) and all(map(np.array_equal, mine, theirs))

    __hash__ = None


@dataclass(frozen=True)
class EarningsEvent:
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


@dataclass
class Dataset:
    """Immutable-by-convention container for the four input collections.

    Collections are canonically sorted: tuples of records, except the tweet
    buckets, which are columns (a sequence of ``TweetBucket`` is converted).
    Lookup maps are built once in ``__post_init__`` so the dataset can be
    shared freely.
    """

    bars: tuple[DailyBar, ...]
    index: tuple[IndexBar, ...]
    tweets: TweetBuckets
    events: tuple[EarningsEvent, ...]

    bars_by_ticker: dict[str, tuple[DailyBar, ...]] = field(
        init=False, repr=False, compare=False
    )
    _closes: dict[str, dict[date, float]] = field(init=False, repr=False, compare=False)
    _index_closes: dict[date, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.tweets = TweetBuckets.of(self.tweets)
        by_ticker: dict[str, list[DailyBar]] = {}
        for bar in self.bars:
            by_ticker.setdefault(bar.ticker, []).append(bar)
        self.bars_by_ticker = {t: tuple(bs) for t, bs in by_ticker.items()}
        self._closes = {
            t: {b.date: b.close for b in bs} for t, bs in self.bars_by_ticker.items()
        }
        self._index_closes = {b.date: b.close for b in self.index}

    def close_prices(self, ticker: str) -> dict[date, float]:
        """Closing price by date; the shared map, not a copy."""
        return self._closes.get(ticker, {})

    def index_closes(self) -> dict[date, float]:
        """Index level by date; the shared map, not a copy."""
        return self._index_closes

    @property
    def tickers(self) -> tuple[str, ...]:
        return tuple(sorted(self.bars_by_ticker))


from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import NamedTuple
from unittest import mock
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import settings

from eastudy import ingest
from eastudy.alignment import TradingCalendar
from eastudy.model import (
    DailyBar,
    DailyBars,
    Dataset,
    EarningsEvent,
    Events,
    IndexLevels,
    Timing,
    TweetBuckets,
)

settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci")

EASTERN = ZoneInfo("America/New_York")
UTC = ZoneInfo("UTC")


def business_days(start: date, n: int) -> list[date]:
    out = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def make_calendar(start: date = date(2015, 6, 1), n: int = 10,
                  skip: set[date] = frozenset()) -> TradingCalendar:
    days = [d for d in business_days(start, n + len(skip)) if d not in skip][:n]
    return TradingCalendar(tuple(days))


def eastern(y, m, d, hh, mm=0, ss=0) -> datetime:
    return datetime(y, m, d, hh, mm, ss, tzinfo=EASTERN).astimezone(UTC)


def bars_from_closes(ticker: str, dates, closes, volume: int = 1000) -> tuple[DailyBar, ...]:
    return tuple(
        DailyBar(ticker=ticker, date=d, close=c, volume=volume)
        for d, c in zip(dates, closes)
    )


class TweetBucket(NamedTuple):
    """Hourly sentiment-labeled tweet counts for one ticker: a row of ``TweetBuckets``."""

    ticker: str
    hour_start: datetime  # UTC, truncated to the hour
    n_neg: int
    n_neut: int
    n_pos: int

    @property
    def total(self) -> int:
        return self.n_neg + self.n_neut + self.n_pos


class IndexBar(NamedTuple):
    """Benchmark index level for one trading day: a row of ``IndexLevels``."""

    date: date
    close: float


def index_columns(bars) -> IndexLevels:
    """Columns of the given index bars, in date order."""
    bars = sorted(bars, key=lambda b: b.date)
    return IndexLevels(np.array([b.date for b in bars], dtype="datetime64[D]"),
                       np.array([b.close for b in bars], dtype=np.float64))


def index_from_closes(dates, closes) -> IndexLevels:
    return index_columns(IndexBar(d, c) for d, c in zip(dates, closes))


def records(columns) -> list:
    """The rows of columns as records, in row order; of an ``Accepted``, as
    ``(line, record)`` pairs."""
    if isinstance(columns, ingest.Accepted):
        lines = ingest._line_numbers(columns.lines, np.arange(len(columns))).tolist()
        return list(zip(lines, records(columns.rows)))
    if isinstance(columns, IndexLevels):
        return [IndexBar(*row) for row in zip(columns.day.tolist(), columns.close.tolist())]
    if isinstance(columns, Events):
        return [columns.record(i) for i in range(len(columns))]
    tickers = np.array(columns.tickers, dtype=object)[columns.code].tolist()
    if isinstance(columns, DailyBars):
        return [DailyBar(*row) for row in zip(tickers, columns.day.tolist(),
                                               columns.close.tolist(), columns.volume.tolist())]
    hours = [datetime.fromtimestamp(ts, timezone.utc) for ts in columns.seconds().tolist()]
    return [TweetBucket(*row) for row in zip(tickers, hours, columns.n_neg.tolist(),
                                             columns.n_neut.tolist(), columns.n_pos.tolist())]


def make_event(ticker: str, announce_at: datetime, timing: Timing,
               eps_reported: float = 1.1, eps_estimated: float = 1.0) -> EarningsEvent:
    return EarningsEvent(
        ticker=ticker,
        announce_at=announce_at,
        timing=timing,
        eps_reported=eps_reported,
        eps_estimated=eps_estimated,
    )


@dataclass(frozen=True)
class DayCell:
    ticker: str
    trading_date: date
    n_neg: int
    n_neut: int
    n_pos: int

    @property
    def total(self) -> int:
        return self.n_neg + self.n_neut + self.n_pos


def day_cells(days) -> list[DayCell]:
    """Every (ticker, trading day) cell of daily counts that received a
    bucket, in (ticker, date) order."""
    rows, cols = np.nonzero(days.buckets)
    return [DayCell(days.tickers[r], days.cal.dates[d], *days.labels[:, r, d].tolist())
            for r, d in zip(rows.tolist(), cols.tolist())]


def bars_of(ds: Dataset, ticker: str) -> tuple[DailyBar, ...]:
    """One ticker's bars, in date order."""
    return tuple(b for b in records(ds.bars) if b.ticker == ticker)


def close_prices(ds: Dataset, ticker: str) -> dict[date, float]:
    """Closing price by date of one ticker."""
    return {b.date: b.close for b in bars_of(ds, ticker)}


def as_dict(series) -> dict[date, float]:
    """A ReturnSeries as {date: return}."""
    return dict(zip(series.dates, series.values))


def tweet_columns(buckets) -> TweetBuckets:
    """Columns of the given buckets, in canonical (ticker, hour_start) order."""
    buckets = list(buckets)
    tickers = tuple(sorted({b.ticker for b in buckets}))
    codes = {t: i for i, t in enumerate(tickers)}
    return TweetBuckets(
        tickers=tickers,
        code=np.array([codes[b.ticker] for b in buckets], dtype=np.int64),
        hour=np.array([int(b.hour_start.timestamp()) // 3600 for b in buckets], dtype=np.int64),
        n_neg=np.array([b.n_neg for b in buckets], dtype=np.int64),
        n_neut=np.array([b.n_neut for b in buckets], dtype=np.int64),
        n_pos=np.array([b.n_pos for b in buckets], dtype=np.int64),
    ).canonical()


def bar_columns(bars) -> DailyBars:
    """Columns of the given bars, in their order."""
    bars = list(bars)
    tickers = tuple(sorted({b.ticker for b in bars}))
    codes = {t: i for i, t in enumerate(tickers)}
    return DailyBars(
        tickers=tickers,
        code=np.array([codes[b.ticker] for b in bars], dtype=np.int64),
        day=np.array([b.date for b in bars], dtype="datetime64[D]"),
        close=np.array([b.close for b in bars], dtype=np.float64),
        volume=np.array([b.volume for b in bars], dtype=np.int64),
    )


def anchor_columns(anchors, ds: Dataset):
    """What ``fit_events`` and ``hold_returns`` take for a list of anchors
    of events of ``ds``, None for an event not asked for: the price grid,
    then each event's day-0 calendar index, ticker code and whether it is
    asked for."""
    day0 = np.array([a.day0_index if a else -1 for a in anchors], dtype=np.int64)
    code = np.array([ds.tickers.index(a.event.ticker) if a else 0 for a in anchors],
                    dtype=np.int64)
    return ds.prices, day0, code, np.array([a is not None for a in anchors], dtype=bool)


@contextmanager
def row_loop_only():
    """Every line goes alone through the row loop: the fast path finds no row
    of the header's width in any block, so it refuses each line."""
    def no_rows(seg, begin, stop, width):
        none = np.zeros((0, width), dtype=stop.dtype)
        return np.zeros(0, dtype=np.int64), none, none

    with mock.patch.object(ingest, "_block_cells", no_rows):
        yield


def make_dataset(bars=(), index=(), tweets=(), events=()) -> Dataset:
    return Dataset(
        bars=bar_columns(bars).canonical(),
        index=index if isinstance(index, IndexLevels) else index_columns(index),
        tweets=tweet_columns(tweets),
        events=tuple(sorted(events, key=lambda e: e.key())),
    )


@pytest.fixture
def week_calendar() -> TradingCalendar:
    # Mon 2015-06-01 .. Fri 2015-06-12, two full weeks
    return make_calendar(date(2015, 6, 1), 10)

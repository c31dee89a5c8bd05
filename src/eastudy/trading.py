"""Per-class trade-return curves and the short-on-negative backtest.

The backtest implements the one-day strategy suggested by the event
study: consider AfterClose announcements only, and when the sentiment of
the day before the announcement classifies the event as negative, short
the stock at the day -1 close and buy it back at the day 0 close. All
proceeds are reinvested; a fixed per-share spread is charged once per
round trip. A day whose trades lose all the equity or more (a mean net
return of -1 or lower) leaves it at 0, where it stays: nothing is left to
reinvest. It reads the AfterClose rows and Sent(-1) of the event universe,
whatever its window keeps.

The trade-return curves split the same way as the event study: one
hold-return pass (``hold_returns``) measures each event once per run, from
the universe's day-0 and ticker-code columns under a mask, and every
stratum averages the rows its mask and labels select. Both read closes
from the dataset's price grid by ticker code and calendar index; the hold
returns of all events are one pass an offset at a time
(``hold_from_day_m1``), which also names why each skipped event is skipped.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from datetime import date
from functools import reduce
from operator import add
from typing import NamedTuple, Sequence

import numpy as np

from .errors import MissingBar, OutOfCalendarRange, reason
from .event_study import LabeledEvent, class_rows, labeled_columns
from .model import INDEX_TICKER, Dataset, Events, Frozen, PriceGrid, Timing
from .reports import EventUniverse, build_universe
from .returns import hold_from_day_m1
from .sentiment import EventPolarity, PolarityThresholds, categorize_scores


class ClassCurve(NamedTuple):
    """Mean hold-from-day--1 returns for one polarity class."""

    polarity: EventPolarity
    n_events: int
    stock_mean: tuple[float, ...]  # indexed by d = 0..max_d
    index_mean: tuple[float, ...]


class TradeReturnCurves(NamedTuple):
    days: tuple[int, ...]
    classes: dict[EventPolarity, ClassCurve]
    skipped: tuple[tuple[str, str, str], ...]  # (ticker, announcement stamp, reason)


class EventHolds(Frozen):
    """RT_d, d = 0..max_d, row i for the i-th event given to ``hold_returns``.

    ``skips[i]`` is "" where the event was measured, why it was skipped, or
    None where it was not asked for; the rows of the last two are NaN.
    """

    stock: np.ndarray  # (event, d)
    index: np.ndarray
    skips: tuple[str | None, ...]


def hold_returns(prices: PriceGrid, day0: np.ndarray, code: np.ndarray, mask: np.ndarray,
                 max_d: int = 10) -> EventHolds:
    """RT_d of each event's stock and of the benchmark index, d = 0..max_d.

    The events of ``mask`` are measured, read as ``fit_events`` reads them.
    The index applies the same buy-at-day--1 arithmetic to index levels on
    each event's own dates. An event with any missing bar over day -1..day
    max_d is skipped with a reason, not fatal. Each pass fills its rows as it returns.
    """
    days = range(max_d + 1)
    stock = np.full((len(mask), max_d + 1), np.nan)
    index = np.full(stock.shape, np.nan)
    asked = np.flatnonzero(mask)
    stock[asked], errors = hold_from_day_m1(prices.closes, code[asked], day0[asked], days,
                                            prices.tickers, prices.dates)
    index[asked], index_errors = hold_from_day_m1(prices.index_closes[None, :],
                                                  np.zeros_like(asked), day0[asked], days,
                                                  (INDEX_TICKER,), prices.dates)
    errors = {**index_errors, **errors}  # the stock's reason comes before the index's
    skips = ["" if m else None for m in mask.tolist()]
    stock[asked[list(errors)]] = index[asked[list(errors)]] = np.nan
    for j, exc in errors.items():
        skips[asked[j]] = reason(exc)
    return EventHolds(stock, index, tuple(skips))


def curve_classes(
    held: EventHolds,
    events: Events,
    in_stratum: np.ndarray,
    labels: np.ndarray,
) -> TradeReturnCurves:
    """Class means of one stratum's RT_d, for the stock and for the index:
    plain sums over the rows of ``class_rows``, added left to right in row
    order as ``sum`` does before Python 3.12, which compensates."""
    classes, skipped = class_rows(held.skips, events, in_stratum, labels)
    curves = {}
    for pol, rows in classes.items():
        n = len(rows)
        curves[pol] = ClassCurve(
            polarity=pol,
            n_events=n,
            stock_mean=tuple(reduce(add, col, 0) / n for col in held.stock[rows].T.tolist()),
            index_mean=tuple(reduce(add, col, 0) / n for col in held.index[rows].T.tolist()),
        )
    days = tuple(range(held.stock.shape[1]))
    return TradeReturnCurves(days=days, classes=curves, skipped=tuple(skipped))


def trade_return_curves(
    labeled: Sequence[LabeledEvent],
    ds: Dataset,
    max_d: int = 10,
) -> TradeReturnCurves:
    """Class means of RT_d for the stock and for the benchmark index, over
    the events in canonical (ticker, announce_at) order."""
    columns, events, labels = labeled_columns(labeled, ds, "no events to average")
    every = np.ones(len(events), dtype=bool)
    held = hold_returns(*columns, every, max_d)
    return curve_classes(held, events, every, labels)


class Trade(NamedTuple):
    """One executed short-then-cover round trip."""

    ticker: str
    open_date: date  # day -1, short sold at the close
    close_date: date  # day 0, repurchased at the close
    open_price: float
    close_price: float
    spread: float  # per-share round-trip cost
    net_return: float  # (open - close - spread) / open

    @staticmethod
    def net(open_price: float, close_price: float, spread: float) -> float:
        """The net return of a round trip; elementwise on arrays of prices."""
        return (open_price - close_price - spread) / open_price


class TradeLedger(NamedTuple):
    trades: tuple[Trade, ...]
    equity: tuple[tuple[date, float], ...]  # starts at 1.0
    benchmark: tuple[tuple[date, float], ...]  # index normalized to 1.0 at start
    skipped: tuple[tuple[str, str, str], ...]  # (ticker, announcement stamp, reason)

    @property
    def final_equity(self) -> float:
        return self.equity[-1][1]

    @property
    def final_benchmark(self) -> float:
        return self.benchmark[-1][1]


def run_strategy(
    ds: Dataset,
    thresholds: PolarityThresholds,
    spread: float = 0.05,
    start: date | None = None,
    end: date | None = None,
    universe: EventUniverse | None = None,
) -> TradeLedger:
    """Backtest the short-on-negative strategy over [start, end].

    ``thresholds`` must be the day -1 sentiment cuts for the AfterClose
    stratum. ``universe`` is the dataset's event universe, built here if
    absent. Every AfterClose event of the dataset is a candidate, whatever
    the universe's window keeps: one without day-0 tweets, or announced
    after the threshold sample's end, trades like any other. An event that
    cannot be anchored, or whose open or close bar is missing, is skipped
    with a diagnostic. Several events closing on the same day split the
    portfolio equally: the day's factor is one plus their mean net return,
    and the equity the running product of the factors. The ledger is a
    pure function of its inputs.
    """
    if universe is None:
        universe = build_universe(ds)
    cal, events = universe.cal, universe.events
    if start is None:
        start = cal.dates[0]
    if end is None:
        end = cal.dates[-1]
    lo, hi = bisect_left(cal.dates, start), bisect_right(cal.dates, end)
    in_range = cal.dates[lo:hi]
    if not in_range:
        raise OutOfCalendarRange(f"no trading dates between {start} and {end}")
    prices = ds.prices

    day0 = universe.day0
    after_close = events.timing == Timing.AFTER_CLOSE.code
    negative = categorize_scores(universe.sent_on(-1), thresholds) == EventPolarity.NEGATIVE
    short = after_close & (day0 - 1 >= lo) & (day0 < hi) & negative
    # the day -1 and day 0 close of each short, NaN where its bar is missing
    px = np.full((len(day0), 2), np.nan)
    rows = np.flatnonzero(short)
    px[rows] = prices.closes[events.code[rows, None], day0[rows, None] + np.array([-1, 0])]
    missing = short & np.isnan(px).any(axis=1)
    rows = np.flatnonzero((after_close & (day0 < 0)) | missing)
    skipped = events.exclusions(rows, [
        reason(universe.anchor_error(i) if day0[i] < 0 else
               MissingBar(f"no close on {cal.dates[day0[i] - 1]} or {cal.dates[day0[i]]}"))
        for i in rows.tolist()
    ])
    # by (open date, ticker), in universe order among equals
    rows = np.flatnonzero(short & ~missing)
    rows = rows[np.lexsort((events.code[rows], day0[rows]))]
    open_px, close_px = px[rows].T
    net = Trade.net(open_px, close_px, spread)
    trades = [Trade(ticker, cal.dates[i0 - 1], cal.dates[i0], o, c, spread, n)
              for ticker, i0, o, c, n in zip(events.names[rows].tolist(), day0[rows].tolist(),
                                             open_px.tolist(), close_px.tolist(), net.tolist())]
    # each in-range day's mean net return, summed in trade order; 0 without trades
    day = day0[rows] - lo
    mean = np.bincount(day, net, hi - lo) / np.maximum(np.bincount(day, minlength=hi - lo), 1)
    equity = np.cumprod(np.maximum(1.0 + mean, 0.0))  # a wipe-out leaves 0 from then on
    levels = prices.index_closes[lo:hi]
    return TradeLedger(
        trades=tuple(trades),
        equity=tuple(zip(in_range, equity.tolist())),
        benchmark=tuple(zip(in_range, (levels / levels[0]).tolist())),
        skipped=tuple(skipped),
    )

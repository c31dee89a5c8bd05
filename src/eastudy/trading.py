"""Per-class trade-return curves and the short-on-negative backtest.

The backtest implements the one-day strategy suggested by the event
study: consider AfterClose announcements only, and when the sentiment of
the day before the announcement classifies the event as negative, short
the stock at the day -1 close and buy it back at the day 0 close. All
proceeds are reinvested; a fixed per-share spread is charged once per
round trip.

The trade-return curves split the same way as the event study: one
hold-return pass (``hold_returns``) measures each event once per run, and
every stratum averages those shared rows by its own labels. Both read
closes from the dataset's price grid by calendar index; the hold returns
of all events are one gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Sequence

import numpy as np

from .alignment import TradingCalendar, anchor_event
from .errors import EmptyClass, MissingBar, NonTradingAnnouncement, OutOfCalendarRange
from .event_study import LabeledEvent, by_class
from .model import Dataset, EarningsEvent, Timing
from .returns import check_hold, hold_from_day_m1
from .sentiment import (
    DailyCounts,
    EventPolarity,
    PolarityThresholds,
    categorize_event,
    covered_tweets,
    daily_counts,
    sentiment_score,
)


@dataclass(frozen=True)
class ClassCurve:
    """Mean hold-from-day--1 returns for one polarity class."""

    polarity: EventPolarity
    n_events: int
    stock_mean: tuple[float, ...]  # indexed by d = 0..max_d
    index_mean: tuple[float, ...]


@dataclass(frozen=True)
class TradeReturnCurves:
    days: tuple[int, ...]
    classes: dict[EventPolarity, ClassCurve]
    skipped: tuple[tuple[EarningsEvent, str], ...]


@dataclass(frozen=True)
class HeldEvent:
    """One event's hold-from-day--1 returns RT_d for d = 0..max_d."""

    item: LabeledEvent
    stock: tuple[float, ...]
    index: tuple[float, ...]


def hold_returns(
    items: Sequence[LabeledEvent],
    ds: Dataset,
    max_d: int = 10,
) -> tuple[list[HeldEvent], list[tuple[EarningsEvent, str]]]:
    """RT_d of each event's stock and of the benchmark index, d = 0..max_d.

    ``items`` need only ``event`` and ``anchor``, all anchored on the
    calendar the dataset's index implies. The index applies the same
    buy-at-day--1 arithmetic to index levels on each event's own dates. An
    event with any missing bar over day -1..day max_d is skipped with a
    reason, not fatal. Events are processed in canonical (ticker,
    announce_at) order, so the result does not depend on input order.
    """
    if not items:
        return [], []
    items = sorted(items, key=lambda le: le.event.key())
    prices = ds.prices(items[0].anchor.calendar.dates)
    days = range(max_d + 1)
    rows = np.array([prices.row(item.event.ticker) for item in items], dtype=np.int64)
    day0 = np.array([item.anchor.day0_index for item in items], dtype=np.int64)
    stock = hold_from_day_m1(prices.closes, rows, day0, days)
    index = hold_from_day_m1(prices.index_closes[None, :], np.zeros_like(rows), day0, days)
    served = ~(np.isnan(stock).any(axis=1) | np.isnan(index).any(axis=1))
    stock_rows, index_rows = stock.tolist(), index.tolist()
    held: list[HeldEvent] = []
    skipped: list[tuple[EarningsEvent, str]] = []
    for j, item in enumerate(items):
        if served[j]:
            held.append(HeldEvent(item, tuple(stock_rows[j]), tuple(index_rows[j])))
            continue
        try:  # name the first missing bar, stock before index
            check_hold(prices.close_row(item.event.ticker), item.anchor, days)
            check_hold(prices.index_closes, item.anchor, days)
        except (MissingBar, OutOfCalendarRange) as exc:
            skipped.append((item.event, f"{type(exc).__name__}: {exc}"))
    return held, skipped


def trade_return_curves(
    labeled: Sequence[LabeledEvent],
    ds: Dataset,
    max_d: int = 10,
    held: tuple[list[HeldEvent], list[tuple[EarningsEvent, str]]] | None = None,
) -> TradeReturnCurves:
    """Class means of RT_d for the stock and for the benchmark index.

    ``held`` is ``hold_returns``' result with the same ``max_d`` over any
    superset of ``labeled``, so that the strata of one run share one pass
    per event; without it the events of ``labeled`` are measured here. The
    result is the same either way, skips included.
    """
    if not labeled:
        raise EmptyClass("no events to average")
    if held is None:
        held = hold_returns(labeled, ds, max_d)
    per_class, skipped = by_class(labeled, *held)
    days = tuple(range(max_d + 1))
    classes = {}
    for pol, rows in per_class.items():
        n = len(rows)
        stock_mean = tuple(sum(r.stock[j] for r in rows) / n for j in range(len(days)))
        index_mean = tuple(sum(r.index[j] for r in rows) / n for j in range(len(days)))
        classes[pol] = ClassCurve(
            polarity=pol, n_events=n, stock_mean=stock_mean, index_mean=index_mean
        )
    return TradeReturnCurves(days=days, classes=classes, skipped=tuple(skipped))


@dataclass(frozen=True)
class Trade:
    """One executed short-then-cover round trip."""

    event: EarningsEvent
    ticker: str
    open_date: date  # day -1, short sold at the close
    close_date: date  # day 0, repurchased at the close
    open_price: float
    close_price: float
    spread: float  # per-share round-trip cost
    net_return: float  # (open - close - spread) / open

    @staticmethod
    def net(open_price: float, close_price: float, spread: float) -> float:
        return (open_price - close_price - spread) / open_price


@dataclass(frozen=True)
class TradeLedger:
    trades: tuple[Trade, ...]
    equity: tuple[tuple[date, float], ...]  # starts at 1.0
    benchmark: tuple[tuple[date, float], ...]  # index normalized to 1.0 at start
    skipped: tuple[tuple[EarningsEvent, str], ...]

    @property
    def final_equity(self) -> float:
        return self.equity[-1][1] if self.equity else 1.0

    @property
    def final_benchmark(self) -> float:
        return self.benchmark[-1][1] if self.benchmark else 1.0


def run_strategy(
    ds: Dataset,
    thresholds: PolarityThresholds,
    spread: float = 0.05,
    start: date | None = None,
    end: date | None = None,
    cal: TradingCalendar | None = None,
    day_counts: DailyCounts | None = None,
) -> TradeLedger:
    """Backtest the short-on-negative strategy over [start, end].

    ``thresholds`` must be the day -1 sentiment cuts for the AfterClose
    stratum. Trades whose open or close bar is missing are skipped with a
    diagnostic. Several events closing on the same day split the portfolio
    equally, which is equivalent to applying their mean net return. The
    ledger is a pure function of its inputs. ``day_counts`` are the daily
    counts of the tweets of ``ds`` inside ``cal``, counted here if absent.
    """
    if cal is None:
        cal = TradingCalendar.from_dataset(ds)
    if start is None:
        start = cal.dates[0]
    if end is None:
        end = cal.dates[-1]
    in_range = [d for d in cal.dates if start <= d <= end]
    if not in_range:
        raise OutOfCalendarRange(f"no trading dates between {start} and {end}")
    if day_counts is None:
        day_counts = daily_counts(covered_tweets(ds.tweets, cal)[0], cal)
    prices = ds.prices(cal.dates)

    trades: list[Trade] = []
    skipped: list[tuple[EarningsEvent, str]] = []
    for ev in sorted(ds.events, key=lambda e: e.key()):
        if ev.timing is not Timing.AFTER_CLOSE:
            continue
        try:
            anchor = anchor_event(ev, cal)
            open_date = anchor.day(-1)
        except (OutOfCalendarRange, NonTradingAnnouncement) as exc:
            skipped.append((ev, f"{type(exc).__name__}: {exc}"))
            continue
        if open_date < in_range[0] or anchor.day0 > in_range[-1]:
            continue
        score = sentiment_score(*day_counts.at(ev.ticker, open_date))
        if categorize_event(score, thresholds) is not EventPolarity.NEGATIVE:
            continue
        i0 = anchor.day0_index
        open_px, close_px = prices.close_row(ev.ticker)[i0 - 1:i0 + 1].tolist()
        if math.isnan(open_px) or math.isnan(close_px):
            skipped.append((ev, f"MissingBar: no close on {open_date} or {anchor.day0}"))
            continue
        trades.append(
            Trade(
                event=ev,
                ticker=ev.ticker,
                open_date=open_date,
                close_date=anchor.day0,
                open_price=open_px,
                close_price=close_px,
                spread=spread,
                net_return=Trade.net(open_px, close_px, spread),
            )
        )
    trades.sort(key=lambda t: (t.open_date, t.ticker))

    by_close: dict[date, list[Trade]] = {}
    for t in trades:
        by_close.setdefault(t.close_date, []).append(t)

    first = cal.index_of(in_range[0])
    levels = prices.index_closes[first:first + len(in_range)]
    value = 1.0
    equity = []
    for d in in_range:
        group = by_close.get(d)
        if group:
            value *= 1.0 + sum(t.net_return for t in group) / len(group)
        equity.append((d, value))
    benchmark = list(zip(in_range, (levels / levels[0]).tolist()))
    return TradeLedger(
        trades=tuple(trades),
        equity=tuple(equity),
        benchmark=tuple(benchmark),
        skipped=tuple(skipped),
    )

"""Raw daily returns, anchored multi-day trading returns, earnings surprise.

Returns are simple (raw) relative price changes, never log returns, so
trading returns compose multiplicatively with daily returns. Trading
returns are read from closes by calendar index (``hold_from_day_m1``), for
many events at once, one relative day at a time, and the same pass names
the first missing close or calendar day of each event it cannot serve;
``trading_return`` is the same kernel on closes keyed by date.
"""

from __future__ import annotations

from datetime import date
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .alignment import EventAnchor, TradingCalendar
from .errors import GapInSeries, MissingBar, OutOfCalendarRange, ZeroEstimate
from .model import INDEX_TICKER, DailyBar, EarningsEvent


class ReturnSeries(NamedTuple):
    """Ordered (trading_date, return) pairs for one ticker or the index."""

    ticker: str
    dates: tuple[date, ...]
    values: tuple[float, ...]


class Surprise(NamedTuple):
    event: EarningsEvent
    es: float


def daily_returns(bars: Sequence[DailyBar], cal: TradingCalendar | None = None) -> ReturnSeries:
    """r_d = (p_d - p_{d-1}) / p_{d-1} over consecutive bars: records with a
    ``date`` and a ``close``, named ``INDEX_TICKER`` if they have no ``ticker``.

    When a calendar is supplied, consecutive bars must sit on consecutive
    trading dates; a skipped date raises GapInSeries. The return for date
    d is keyed on d (the later of the pair).
    """
    if len(bars) < 2:
        raise ValueError("need at least two bars to compute returns")
    ticker = getattr(bars[0], "ticker", INDEX_TICKER)
    dates = []
    values = []
    for prev, cur in zip(bars, bars[1:]):
        if cur.date <= prev.date:
            raise ValueError(f"{ticker}: bar dates not strictly increasing")
        if cal is not None and cal.next_after(prev.date) != cur.date:
            raise GapInSeries(
                f"{ticker}: bars jump from {prev.date} to {cur.date}, "
                "skipping a trading date"
            )
        dates.append(cur.date)
        values.append((cur.close - prev.close) / prev.close)
    return ReturnSeries(ticker=ticker, dates=tuple(dates), values=tuple(values))


def hold_from_day_m1(
    closes: np.ndarray, rows: np.ndarray, day0: np.ndarray, days: Sequence[int],
    tickers: Sequence[str], dates: Sequence[date],
) -> tuple[np.ndarray, dict[int, Exception]]:
    """RT_d of many events at once: (p[day0 + d] - p[day0 - 1]) / p[day0 - 1],
    and the first error each event that is not served meets.

    ``closes`` is a (row x trading day) grid, NaN where there is no bar, and
    ``tickers`` names its rows; event e reads row ``rows[e]`` from calendar
    index ``day0[e]``. The result has one row per event and one column per
    d of ``days``, NaN where a close is missing or off the calendar. An
    event's error is at its first day with no close (day -1, then the d's),
    but at the first d when that is off the calendar and day -1 is on it:
    OutOfCalendarRange off the calendar, else MissingBar naming the row's
    ticker and the date of ``dates``. The closes are gathered an offset at a
    time (day -1, then each d) into one column-major block, which becomes
    RT_d in place: no temporary is longer than one offset's events.
    """
    offsets, n_days = (-1, *days), closes.shape[1]
    p = np.empty((len(day0), len(offsets)), order="F")  # one offset's events are contiguous
    missing = np.zeros(len(day0), dtype=bool)
    for j, k in enumerate(offsets):
        cols = day0 + k
        off = (cols < 0) | (cols >= n_days)
        p[:, j] = closes[rows, cols.clip(0, n_days - 1, out=cols)]
        p[off, j] = np.nan
        missing |= np.isnan(p[:, j])
    errors = {}
    for e in np.flatnonzero(missing).tolist():
        at = [int(day0[e]) + k for k in offsets]
        on = [0 <= i < n_days for i in at]
        j = 1 if on[0] and not on[1] else int(np.isnan(p[e]).argmax())
        errors[e] = (MissingBar(f"{tickers[rows[e]]}: no closing price on {dates[at[j]]}")
                     if on[j] else OutOfCalendarRange(f"calendar index {at[j]} out of range"))
    rt = p[:, 1:]
    rt -= p[:, :1]
    return np.divide(rt, p[:, :1], out=rt), errors


def trading_return(anchor: EventAnchor, prices: Mapping[date, float], d: int) -> float:
    """RT_d = (p_{day d} - p_{day -1}) / p_{day -1}, the hold-from-day--1 return.

    One row of ``hold_from_day_m1``, on closes keyed by date placed on the
    anchor's calendar (``TradingCalendar.column``): a date the mapping lacks,
    or maps to NaN, has no bar.
    """
    if d < 0:
        raise ValueError("trading_return is defined for d >= 0")
    cal = anchor.calendar
    rt, errors = hold_from_day_m1(cal.column(prices)[None, :], np.zeros(1, np.int64),
                                  np.array([anchor.day0_index]), (d,), [anchor.event.ticker],
                                  cal.dates)
    if errors:
        raise errors[0]
    return float(rt[0, 0])


def earnings_surprise(ev: EarningsEvent) -> Surprise:
    """ES = (reported - estimated) / estimated."""
    if ev.eps_estimated == 0:
        raise ZeroEstimate(f"{ev.ticker} {ev.announce_at.isoformat()}: zero EPS estimate")
    return Surprise(event=ev, es=(ev.eps_reported - ev.eps_estimated) / ev.eps_estimated)

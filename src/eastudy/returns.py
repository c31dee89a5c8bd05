"""Raw daily returns, anchored multi-day trading returns, earnings surprise.

Returns are simple (raw) relative price changes, never log returns, so
trading returns compose multiplicatively with daily returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Mapping, Sequence

from .alignment import EventAnchor, TradingCalendar
from .errors import GapInSeries, MissingBar, ZeroEstimate
from .model import INDEX_TICKER, DailyBar, EarningsEvent, IndexBar


@dataclass(frozen=True)
class ReturnSeries:
    """Ordered (trading_date, return) pairs for one ticker or the index."""

    ticker: str
    dates: tuple[date, ...]
    values: tuple[float, ...]

    def as_dict(self) -> dict[date, float]:
        return dict(zip(self.dates, self.values))


@dataclass(frozen=True)
class Surprise:
    event: EarningsEvent
    es: float


def daily_returns(
    bars: Sequence[DailyBar] | Sequence[IndexBar],
    cal: TradingCalendar | None = None,
) -> ReturnSeries:
    """r_d = (p_d - p_{d-1}) / p_{d-1} over consecutive bars.

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


def calendar_aligned_returns(
    bars: Sequence[DailyBar] | Sequence[IndexBar],
    cal: TradingCalendar,
) -> dict[date, float]:
    """Per-date returns keeping only consecutive-trading-date bar pairs.

    A pair of bars that spans a missing trading date is dropped rather than
    reported as a multi-day move, so downstream per-day arithmetic (market
    model fits, abnormal returns) never mixes horizons.
    """
    out: dict[date, float] = {}
    for prev, cur in zip(bars, bars[1:]):
        if cal.next_after(prev.date) == cur.date:
            out[cur.date] = (cur.close - prev.close) / prev.close
    return out


def trading_return(anchor: EventAnchor, prices: Mapping[date, float], d: int) -> float:
    """RT_d = (p_{day d} - p_{day -1}) / p_{day -1}, the hold-from-day--1 return."""
    if d < 0:
        raise ValueError("trading_return is defined for d >= 0")
    base_date = anchor.day(-1)
    end_date = anchor.day(d)
    try:
        base = prices[base_date]
        end = prices[end_date]
    except KeyError as exc:
        raise MissingBar(
            f"{anchor.event.ticker}: no closing price on {exc.args[0]}"
        ) from None
    return (end - base) / base


def earnings_surprise(ev: EarningsEvent) -> Surprise:
    """ES = (reported - estimated) / estimated."""
    if ev.eps_estimated == 0:
        raise ZeroEstimate(f"{ev.ticker} {ev.announce_at.isoformat()}: zero EPS estimate")
    return Surprise(event=ev, es=(ev.eps_reported - ev.eps_estimated) / ev.eps_estimated)

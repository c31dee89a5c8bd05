"""Market-model event study: abnormal returns, CARs, and significance.

Per event, a two-parameter market model is fitted by closed-form OLS over
the 120 trading days ending at relative day -2, so nothing inside the
12-day event window (day -1 .. day +10) contaminates the fit. Abnormal
returns are averaged across events of the same polarity class, cumulated
over the window, and tested against a normal null with the variance
estimator built from each event's residual variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

from .alignment import EventAnchor
from .errors import (
    DegenerateRegressor,
    EmptyClass,
    InsufficientHistory,
    MissingBar,
    OutOfCalendarRange,
)
from .model import Dataset, EarningsEvent
from .returns import calendar_aligned_returns, daily_returns
from .sentiment import EventPolarity


def z_critical(alpha: float) -> float:
    """Two-sided normal critical value z_{1 - alpha/2}."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    return NormalDist().inv_cdf(1 - alpha / 2)


@dataclass(frozen=True)
class StudyConfig:
    """Window geometry and test level for one study run."""

    event_window: tuple[int, int] = (-1, 10)  # 12 trading days
    estimation_window_length: int = 120
    significance_level: float = 0.01  # two-sided

    def __post_init__(self):
        if self.event_window[0] > self.event_window[1]:
            raise ValueError("event window start must not exceed its end")
        if self.event_window[0] < -1:
            raise ValueError("event window must start no earlier than day -1")
        if self.estimation_window_length < 3:
            raise ValueError("estimation window too short to fit two parameters")
        if not 0 < self.significance_level < 1:
            raise ValueError("significance level must be in (0, 1)")

    @property
    def taus(self) -> tuple[int, ...]:
        return tuple(range(self.event_window[0], self.event_window[1] + 1))

    @property
    def critical_value(self) -> float:
        return z_critical(self.significance_level)


@dataclass(frozen=True)
class MarketModelFit:
    alpha: float
    beta: float
    sigma2_eps: float  # residual variance, SSR / (n_obs - 2)
    n_obs: int

    def expected(self, market_return: float) -> float:
        return self.alpha + self.beta * market_return


def fit_market_model(
    stock_returns: Mapping[date, float],
    index_returns: Mapping[date, float],
    anchor: EventAnchor,
    cfg: StudyConfig = StudyConfig(),
) -> MarketModelFit:
    """OLS fit of stock on index returns over the pre-event estimation window.

    Uses the last ``estimation_window_length`` trading dates on which both
    return series are available, ending the day before the event window
    opens (relative day -2 for the default window). Solved in closed form
    on centered data; no iterative solver.
    """
    cal = anchor.calendar
    end_idx = cal.index_of(anchor.day0) + cfg.event_window[0] - 1
    window: list[date] = []
    i = end_idx
    while i >= 0 and len(window) < cfg.estimation_window_length:
        d = cal.date_at(i)
        if d in stock_returns and d in index_returns:
            window.append(d)
        i -= 1
    if len(window) < cfg.estimation_window_length:
        raise InsufficientHistory(
            f"{anchor.event.ticker}: {len(window)} paired returns before the "
            f"event window, need {cfg.estimation_window_length}"
        )
    window.reverse()
    x = np.array([index_returns[d] for d in window])
    y = np.array([stock_returns[d] for d in window])
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise DegenerateRegressor("index returns are constant over the window")
    beta = float(xc @ (y - y.mean())) / sxx
    alpha = float(y.mean() - beta * x.mean())
    resid = y - (alpha + beta * x)
    n = len(window)
    sigma2 = float(resid @ resid) / (n - 2)
    return MarketModelFit(alpha=alpha, beta=beta, sigma2_eps=sigma2, n_obs=n)


def abnormal_returns(
    fit: MarketModelFit,
    anchor: EventAnchor,
    stock_returns: Mapping[date, float],
    index_returns: Mapping[date, float],
    cfg: StudyConfig = StudyConfig(),
) -> tuple[float, ...]:
    """AR_tau = actual return minus market-model expectation, over the window."""
    ars = []
    for tau in cfg.taus:
        try:
            d = anchor.day(tau)
        except OutOfCalendarRange:
            raise MissingBar(
                f"{anchor.event.ticker}: calendar ends before relative day {tau}"
            ) from None
        if d not in stock_returns or d not in index_returns:
            raise MissingBar(f"{anchor.event.ticker}: no return on {d}")
        ars.append(stock_returns[d] - fit.expected(index_returns[d]))
    return tuple(ars)


@dataclass(frozen=True)
class ClassStudy:
    """Aggregated study statistics for one polarity class."""

    polarity: EventPolarity
    n_events: int
    ar_mean: tuple[float, ...]
    car: tuple[float, ...]
    var_car: tuple[float, ...]
    theta: tuple[float, ...]
    significant: tuple[bool, ...]


@dataclass(frozen=True)
class EventStudyResult:
    taus: tuple[int, ...]
    classes: dict[EventPolarity, ClassStudy]
    skipped: tuple[tuple[EarningsEvent, str], ...]


def summarize_car(
    polarity: EventPolarity,
    ar_rows: Sequence[Sequence[float]],
    sigma2_list: Sequence[float],
    taus: Sequence[int],
    critical_value: float,
) -> ClassStudy:
    """Aggregate per-event abnormal returns into CAR/variance/test series.

    ar_rows[i][j] is event i's abnormal return at taus[j]; sigma2_list[i]
    its residual variance. The variance of CAR over a window of length L
    is (1/N^2) * sum_i L * sigma2_i, so it grows linearly with L. When the
    variance is exactly zero the statistic degenerates: theta is 0 for a
    zero CAR and signed infinity otherwise.
    """
    n = len(ar_rows)
    if n == 0:
        raise EmptyClass(f"no events in class {polarity.name}")
    if len(sigma2_list) != n:
        raise ValueError("one residual variance is required per event")
    ar_mean = []
    car = []
    var_car = []
    theta = []
    significant = []
    running = 0.0
    sigma2_sum = math.fsum(sigma2_list)
    for j in range(len(taus)):
        mean_j = math.fsum(row[j] for row in ar_rows) / n
        running += mean_j
        length = j + 1
        v = length * sigma2_sum / (n * n)
        if v > 0:
            t = running / math.sqrt(v)
        elif running == 0.0:
            t = 0.0
        else:
            t = math.copysign(math.inf, running)
        ar_mean.append(mean_j)
        car.append(running)
        var_car.append(v)
        theta.append(t)
        significant.append(abs(t) > critical_value)
    return ClassStudy(
        polarity=polarity,
        n_events=n,
        ar_mean=tuple(ar_mean),
        car=tuple(car),
        var_car=tuple(var_car),
        theta=tuple(theta),
        significant=tuple(significant),
    )


@dataclass(frozen=True)
class LabeledEvent:
    event: EarningsEvent
    anchor: EventAnchor
    polarity: EventPolarity


@dataclass(frozen=True)
class FittedEvent:
    """One event's market-model fit and its abnormal returns over the window."""

    item: LabeledEvent
    fit: MarketModelFit
    ars: tuple[float, ...]


def fit_events(
    items: Sequence[LabeledEvent],
    ds: Dataset,
    cfg: StudyConfig = StudyConfig(),
) -> tuple[list[FittedEvent], list[tuple[EarningsEvent, str]]]:
    """Fit the market model and measure abnormal returns, event by event.

    ``items`` need only ``event`` and ``anchor``. Events whose history or
    window cannot be served are skipped with a reason rather than failing
    the run. Events are processed in canonical (ticker, announce_at) order,
    so the result does not depend on input order.
    """
    if not items:
        return [], []
    cal = items[0].anchor.calendar
    index_returns = daily_returns(ds.index).as_dict()
    stock_returns: dict[str, dict[date, float]] = {}
    fitted: list[FittedEvent] = []
    skipped: list[tuple[EarningsEvent, str]] = []
    for item in sorted(items, key=lambda le: le.event.key()):
        ticker = item.event.ticker
        if ticker not in stock_returns:
            bars = ds.bars_by_ticker.get(ticker, ())
            if len(bars) < 2:
                skipped.append((item.event, "no price history"))
                continue
            stock_returns[ticker] = calendar_aligned_returns(bars, cal)
        try:
            fit = fit_market_model(stock_returns[ticker], index_returns, item.anchor, cfg)
            ars = abnormal_returns(fit, item.anchor, stock_returns[ticker], index_returns, cfg)
        except (InsufficientHistory, MissingBar, DegenerateRegressor, OutOfCalendarRange) as exc:
            skipped.append((item.event, f"{type(exc).__name__}: {exc}"))
            continue
        fitted.append(FittedEvent(item, fit, ars))
    return fitted, skipped


def aggregate_study(
    labeled: Sequence[LabeledEvent],
    ds: Dataset,
    cfg: StudyConfig = StudyConfig(),
) -> EventStudyResult:
    """Fit, measure, and aggregate abnormal returns per polarity class.

    The caller chooses the event set (typically one timing class at a
    time); ``fit_events`` does the per-event work and records skips.
    """
    if not labeled:
        raise EmptyClass("no events to aggregate")
    fitted, skipped = fit_events(labeled, ds, cfg)
    per_class: dict[EventPolarity, list[FittedEvent]] = {}
    for fe in fitted:
        per_class.setdefault(fe.item.polarity, []).append(fe)
    if not per_class:
        raise EmptyClass("every event was skipped")
    critical = cfg.critical_value
    classes = {
        pol: summarize_car(
            pol,
            [fe.ars for fe in rows],
            [fe.fit.sigma2_eps for fe in rows],
            cfg.taus,
            critical,
        )
        for pol, rows in sorted(per_class.items())
    }
    return EventStudyResult(taus=cfg.taus, classes=classes, skipped=tuple(skipped))

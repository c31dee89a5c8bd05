"""Market-model event study: abnormal returns, CARs, and significance.

Per event, a two-parameter market model is fitted by closed-form OLS over
the 120 trading days ending at relative day -2, so nothing inside the
12-day event window (day -1 .. day +10) contaminates the fit. Abnormal
returns are averaged across events of the same polarity class, cumulated
over the window, and tested against a normal null with the variance
estimator built from each event's residual variance.

The fit and the abnormal returns belong to the event alone; a stratum only
decides which class the event is averaged into. So ``fit_events`` measures
each event of a run's event universe once, from the universe's columns,
into rows aligned to them, and every stratum reads those rows through
masks: the rows of class k are the stratum's rows labelled k whose fit
succeeded (``class_rows``). Each class's means run ``math.fsum`` over the
rows in canonical order.

Returns are read by calendar index, not by date, from two float rows, the
stock's and the index's, in which NaN is the one mark of a missing return:
the estimation window is a slice of the days on which neither is NaN, and
the abnormal returns are one gather over day 0 plus the window's offsets.
One kernel fits a ticker's events together (``fit_rows``, then
``abnormal_rows``), as (event x window) blocks with the arithmetic of one
event's fit. ``fit_events`` runs it once per ticker code, on that row of the
dataset's price grid; ``fit_market_model`` and ``abnormal_returns`` run it
on returns keyed by date, placed on the calendar by ``TradingCalendar.column``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from datetime import date
from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .alignment import EventAnchor
from .errors import (
    DegenerateRegressor,
    EmptyClass,
    InsufficientHistory,
    MissingBar,
    OutOfCalendarRange,
    reason,
)
from .model import Dataset, EarningsEvent, Events, Frozen, PriceGrid
from .sentiment import EventPolarity


def z_critical(alpha: float) -> float:
    """Two-sided normal critical value z_{1 - alpha/2}."""
    from statistics import NormalDist  # here: only the studies need it, and it is slow to load

    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    return NormalDist().inv_cdf(1 - alpha / 2)


class StudyConfig(namedtuple("StudyConfig",
                             "event_window estimation_window_length significance_level")):
    """Window geometry and test level for one study run."""

    __slots__ = ()

    def __new__(cls, event_window: tuple[int, int] = (-1, 10),  # 12 trading days
                estimation_window_length: int = 120, significance_level: float = 0.01):
        if event_window[0] > event_window[1]:
            raise ValueError("event window start must not exceed its end")
        if event_window[0] < -1:
            raise ValueError("event window must start no earlier than day -1")
        if estimation_window_length < 3:
            raise ValueError("estimation window too short to fit two parameters")
        if not 0 < significance_level < 1:  # two-sided
            raise ValueError("significance level must be in (0, 1)")
        if 1 - significance_level / 2 == 1:  # no critical value: its quantile would be 1
            raise ValueError("significance level so small that 1 - level/2 rounds to 1")
        return super().__new__(cls, event_window, estimation_window_length, significance_level)

    @classmethod
    def _make(cls, values):  # so that ``_replace`` checks too
        return cls(*values)

    @property
    def taus(self) -> tuple[int, ...]:
        return tuple(range(self.event_window[0], self.event_window[1] + 1))

    @property
    def critical_value(self) -> float:
        return z_critical(self.significance_level)


class MarketModelFit(NamedTuple):
    alpha: float
    beta: float
    sigma2_eps: float  # residual variance, SSR / (n_obs - 2)
    n_obs: int

    def expected(self, market_return: float) -> float:
        return self.alpha + self.beta * market_return


def fit_rows(
    stock: np.ndarray, index: np.ndarray, day0: np.ndarray, cfg: StudyConfig, ticker: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, Exception]]:
    """OLS fits of stock on index returns for one ticker's events by their
    day-0 calendar index: alpha, beta and sigma2 per row (NaN where the row
    is not fitted) and the error of each row that is not.

    ``stock`` and ``index`` hold the daily returns by calendar index, NaN
    where there is none. The window is the last ``estimation_window_length``
    trading days on which neither is NaN, ending the day before the event
    window opens (relative day -2 for the default window). Solved in closed
    form on centered (row x window) blocks: row means and stacked dots run
    the pairwise sums and BLAS dots of one row's 1-D fit."""
    length, n_days = cfg.estimation_window_length, len(stock)
    valid = ~(np.isnan(stock) | np.isnan(index))
    end = day0 + cfg.event_window[0] - 1
    past = end >= n_days
    n_before = np.where(past | (end < 0), 0, np.cumsum(valid)[np.clip(end, 0, n_days - 1)])
    rows = np.flatnonzero(n_before >= length)
    window = np.flatnonzero(valid)[n_before[rows, None] - length + np.arange(length)]
    x, y = index[window], stock[window]
    x_mean, y_mean = x.mean(axis=1), y.mean(axis=1)
    xc = x - x_mean[:, None]
    sxx = _dots(xc, xc)
    beta = _dots(xc, y - y_mean[:, None]) / np.where(sxx == 0.0, np.nan, sxx)
    alpha = y_mean - beta * x_mean
    resid = y - (alpha[:, None] + beta[:, None] * x)
    fits = np.full((3, len(day0)), np.nan)
    fits[:, rows] = alpha, beta, _dots(resid, resid) / (length - 2)
    errors = {i: OutOfCalendarRange(f"calendar index {end[i]} out of range") if past[i]
              else InsufficientHistory(f"{ticker}: {n_before[i]} paired returns before the "
                                       f"event window, need {length}")
              for i in np.flatnonzero(n_before < length).tolist()}
    errors.update((i, DegenerateRegressor("index returns are constant over the window"))
                  for i in rows[sxx == 0.0].tolist())
    return *fits, errors


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` with the same row of ``b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def abnormal_rows(
    alpha: np.ndarray, beta: np.ndarray, stock: np.ndarray, index: np.ndarray,
    day0: np.ndarray, cfg: StudyConfig, ticker: str, dates: Sequence[date],
) -> tuple[np.ndarray, dict[int, Exception]]:
    """AR_tau = actual return minus market-model expectation over the event
    window, per row, from returns read as ``fit_rows`` reads them, and a
    MissingBar naming the first day of each row's window that is past the
    calendar's end or lacks a return."""
    days = day0[:, None] + np.array(cfg.taus)
    inside = (days >= 0) & (days < len(stock))
    at = np.where(inside, days, 0)
    y, x = stock[at], index[at]
    served = inside & ~(np.isnan(y) | np.isnan(x))
    ars = y - (alpha[:, None] + beta[:, None] * x)
    errors = {}
    for i in np.flatnonzero(~served.all(axis=1)).tolist():
        j = int(np.argmin(served[i]))
        errors[i] = MissingBar(
            f"{ticker}: no return on {dates[days[i, j]]}" if inside[i, j]
            else f"{ticker}: calendar ends before relative day {cfg.taus[j]}")
    return ars, errors


def fit_market_model(
    stock_returns: Mapping[date, float],
    index_returns: Mapping[date, float],
    anchor: EventAnchor,
    cfg: StudyConfig = StudyConfig(),
) -> MarketModelFit:
    """One row of ``fit_rows``, on returns keyed by date: a date either
    mapping lacks, or maps to NaN, has no return."""
    cal = anchor.calendar
    *fit, errors = fit_rows(cal.column(stock_returns), cal.column(index_returns),
                            np.array([anchor.day0_index]), cfg, anchor.event.ticker)
    if errors:
        raise errors[0]
    return MarketModelFit(*(float(v[0]) for v in fit), cfg.estimation_window_length)


def abnormal_returns(
    fit: MarketModelFit,
    anchor: EventAnchor,
    stock_returns: Mapping[date, float],
    index_returns: Mapping[date, float],
    cfg: StudyConfig = StudyConfig(),
) -> tuple[float, ...]:
    """One row of ``abnormal_rows``, on returns keyed by date, read as
    ``fit_market_model`` reads them."""
    cal = anchor.calendar
    ars, errors = abnormal_rows(np.array([fit.alpha]), np.array([fit.beta]),
                                cal.column(stock_returns), cal.column(index_returns),
                                np.array([anchor.day0_index]), cfg, anchor.event.ticker,
                                cal.dates)
    if errors:
        raise errors[0]
    return tuple(ars[0].tolist())


class ClassStudy(NamedTuple):
    """Aggregated study statistics for one polarity class."""

    polarity: EventPolarity
    n_events: int
    ar_mean: tuple[float, ...]
    car: tuple[float, ...]
    var_car: tuple[float, ...]
    theta: tuple[float, ...]
    significant: tuple[bool, ...]


class EventStudyResult(NamedTuple):
    taus: tuple[int, ...]
    classes: dict[EventPolarity, ClassStudy]
    skipped: tuple[tuple[str, str, str], ...]  # (ticker, announcement stamp, reason)


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
    sigma2_sum = math.fsum(sigma2_list)
    ar_mean = tuple(math.fsum(row[j] for row in ar_rows) / n for j in range(len(taus)))
    car = tuple(accumulate(ar_mean, initial=0.0))[1:]  # 0.0 + AR, as a running sum
    var_car = tuple(length * sigma2_sum / (n * n) for length in range(1, len(taus) + 1))
    theta = tuple(_theta(c, v) for c, v in zip(car, var_car))
    return ClassStudy(
        polarity=polarity,
        n_events=n,
        ar_mean=ar_mean,
        car=car,
        var_car=var_car,
        theta=theta,
        significant=tuple(abs(t) > critical_value for t in theta),
    )


def _theta(car: float, var_car: float) -> float:
    """CAR over its standard deviation: 0 or signed infinity at zero variance."""
    if var_car > 0:
        return car / math.sqrt(var_car)
    return 0.0 if car == 0.0 else math.copysign(math.inf, car)


class LabeledEvent(NamedTuple):
    event: EarningsEvent
    anchor: EventAnchor
    polarity: EventPolarity


class EventFits(Frozen):
    """Market-model results, row i for the i-th event given to ``fit_events``.

    ``skips[i]`` is "" where the event was fitted, why it was skipped, or
    None where it was not asked for; the rows of the last two are NaN.
    """

    ars: np.ndarray  # (event, tau)
    sigma2: np.ndarray  # residual variance
    skips: tuple[str | None, ...]


def fit_events(prices: PriceGrid, day0: np.ndarray, code: np.ndarray, mask: np.ndarray,
               cfg: StudyConfig = StudyConfig()) -> EventFits:
    """Fit the market model and measure abnormal returns, one block per ticker.

    Event i has day 0 at calendar index ``day0[i]`` and its bars in row
    ``code[i]`` of ``prices``; the events of ``mask`` are fitted. Events
    whose history or window cannot be served are skipped with a reason
    rather than failing the run.
    """
    ars = np.full((len(mask), len(cfg.taus)), np.nan)
    sigma2 = np.full(len(mask), np.nan)
    skips = ["" if m else None for m in mask.tolist()]
    asked = np.flatnonzero(mask)
    if not len(asked):
        return EventFits(ars, sigma2, tuple(skips))
    day0, rows = day0[asked], code[asked]
    index = prices.index_returns
    order = np.argsort(rows, kind="stable")
    for block in np.split(order, np.flatnonzero(np.diff(rows[order])) + 1):
        row, at = int(rows[block[0]]), asked[block]
        if prices.n_bars[row] < 2:
            for i in at.tolist():
                skips[i] = "no price history"
            continue
        stock, ticker = prices.returns[row], prices.tickers[row]
        alpha, beta, sigma2[at], fit_errors = fit_rows(stock, index, day0[block], cfg, ticker)
        ars[at], errors = abnormal_rows(alpha, beta, stock, index, day0[block], cfg, ticker,
                                        prices.dates)
        errors.update(fit_errors)  # a fit's reason comes before a missing bar
        ars[at[list(errors)]] = sigma2[at[list(errors)]] = np.nan
        for j, exc in errors.items():
            skips[at[j]] = reason(exc)
    return EventFits(ars, sigma2, tuple(skips))


def labeled_columns(
    labeled: Sequence[LabeledEvent], ds: Dataset, empty: str
) -> tuple[tuple[PriceGrid, np.ndarray, np.ndarray], Events, np.ndarray]:
    """The price grid, day-0 indexes and ticker codes that ``fit_events``
    takes, the events and the int8 labels of ``labeled``, in canonical
    (ticker, announce_at) order; EmptyClass(``empty``) if there are none,
    ValueError if the anchors are not on the calendar the index implies. A
    ticker the dataset lacks gets an all-NaN row, as one without bars has."""
    if not labeled:
        raise EmptyClass(empty)
    labeled = sorted(labeled, key=lambda le: le.event.key())
    events = Events.of([le.event for le in labeled])
    if not set(events.tickers).issubset(ds.tickers):
        ds = Dataset(ds.bars, ds.index, ds.tweets, events)
    prices = ds.prices
    if labeled[0].anchor.calendar.dates != prices.dates:
        raise ValueError("prices are read on the calendar the index implies, not another")
    day0 = np.array([le.anchor.day0_index for le in labeled], dtype=np.int64)
    code = events.on(ds.tickers).code
    labels = np.array([le.polarity for le in labeled], dtype=np.int8)
    return (prices, day0, code), events, labels


def class_rows(
    skips: Sequence[str | None],
    events: Events,
    in_stratum: np.ndarray,
    labels: np.ndarray,
) -> tuple[dict[EventPolarity, np.ndarray], list[tuple[str, str, str]]]:
    """The rows of each polarity class among a stratum's measured events,
    and the stratum's skipped events as (ticker, announcement stamp,
    reason), both in row order. ``skips`` comes from one per-event pass
    over rows aligned to ``events``: "" where the event was measured."""
    ok = np.array([why == "" for why in skips], dtype=bool)
    skipped = np.flatnonzero(in_stratum & ~ok)
    reasons = [skips[i] for i in skipped.tolist()]
    if None in reasons:
        raise ValueError("the per-event rows do not cover every event of the stratum")
    classes = {
        pol: rows for pol in EventPolarity
        if len(rows := np.flatnonzero(in_stratum & (labels == pol) & ok))
    }
    if not classes:
        raise EmptyClass("every event was skipped")
    return classes, events.exclusions(skipped, reasons)


def study_classes(
    fits: EventFits,
    events: Events,
    in_stratum: np.ndarray,
    labels: np.ndarray,
    cfg: StudyConfig,
) -> EventStudyResult:
    """Aggregate one stratum's abnormal returns per polarity class, from
    ``fit_events``' rows under the same ``cfg`` (see ``class_rows``)."""
    classes, skipped = class_rows(fits.skips, events, in_stratum, labels)
    critical = cfg.critical_value
    return EventStudyResult(
        taus=cfg.taus,
        classes={
            pol: summarize_car(
                pol, fits.ars[rows].tolist(), fits.sigma2[rows].tolist(), cfg.taus, critical
            )
            for pol, rows in classes.items()
        },
        skipped=tuple(skipped),
    )


def aggregate_study(
    labeled: Sequence[LabeledEvent],
    ds: Dataset,
    cfg: StudyConfig = StudyConfig(),
) -> EventStudyResult:
    """Fit, measure, and aggregate abnormal returns per polarity class.

    The caller chooses the event set (typically one stratum at a time).
    Events are taken in canonical (ticker, announce_at) order.
    """
    columns, events, labels = labeled_columns(labeled, ds, "no events to aggregate")
    every = np.ones(len(events), dtype=bool)
    return study_classes(fit_events(*columns, every, cfg), events, every, labels, cfg)

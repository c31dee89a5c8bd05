"""Analysis orchestration shared by the CLI subcommands.

Builds the common event universe (anchored events with day-aligned tweet
counts), per-stratum polarity thresholds, and the plot-ready report tables:
tweet/trading-volume profiles, study and trade-return curves, surprise
regressions. The volume report gathers each event's relative days by
calendar index from the tweet count grids and the dataset's price grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date
from typing import Sequence

import numpy as np

from .alignment import EventAnchor, TradingCalendar, anchor_event, to_eastern
from .errors import NonTradingAnnouncement, OutOfCalendarRange
from .event_study import LabeledEvent
from .model import Dataset, EarningsEvent, Timing
from .regression import RegressionFit, fit_es_regression
from .returns import earnings_surprise
from .sentiment import (
    DailyCounts,
    EventPolarity,
    PolarityThresholds,
    categorize_event,
    covered_tweets,
    daily_counts,
    sentiment_score,
    tercile_thresholds,
)

# (timing, scoring day) of the four strata, in report order
STRATA = tuple(
    (timing, day) for timing in (Timing.AFTER_CLOSE, Timing.BEFORE_OPEN) for day in (0, -1)
)
CLASS_NAMES = {
    EventPolarity.NEGATIVE: "negative",
    EventPolarity.NEUTRAL: "neutral",
    EventPolarity.POSITIVE: "positive",
}
TIMING_NAMES = {Timing.AFTER_CLOSE: "afterclose", Timing.BEFORE_OPEN: "beforeopen"}


@dataclass(frozen=True)
class AnchoredEvent:
    anchor: EventAnchor
    day_m1: date
    day0_tweets: int

    @property
    def event(self) -> EarningsEvent:
        return self.anchor.event

    @property
    def day0(self) -> date:
        return self.anchor.day0


@dataclass
class EventUniverse:
    """Anchorable events with day-0 tweet coverage, plus shared lookups.

    Events that cannot be anchored or that have zero day-0 tweets are
    dropped (recorded in ``dropped``), mirroring the exclusion of
    announcements with no same-day tweet activity. ``counts`` holds the
    daily and hourly tweet counts every report reads; tweet buckets outside
    the calendar are left out of them and counted in ``tweets_outside``.
    """

    ds: Dataset
    cal: TradingCalendar
    counts: DailyCounts
    events: list[AnchoredEvent]
    dropped: list[tuple[EarningsEvent, str]]
    tweets_outside: int

    def timing_events(self, timing: Timing) -> list[AnchoredEvent]:
        return [ae for ae in self.events if ae.event.timing is timing]

    def score(self, ae: AnchoredEvent, polarity_day: int) -> float:
        day = ae.day0 if polarity_day == 0 else ae.day_m1
        return sentiment_score(*self.counts.at(ae.event.ticker, day))

    def until(self, until: date | None) -> "EventUniverse":
        """The universe of the dataset's events announced up to ``until``
        (all of them if None), sharing this universe's counts."""
        events: list[AnchoredEvent] = []
        dropped: list[tuple[EarningsEvent, str]] = []
        for ev in sorted(self.ds.events, key=lambda e: e.key()):
            if until is not None and to_eastern(ev.announce_at).date() > until:
                continue
            try:
                anchor = anchor_event(ev, self.cal)
                day_m1 = anchor.day(-1)
            except (OutOfCalendarRange, NonTradingAnnouncement) as exc:
                dropped.append((ev, f"not anchorable: {exc}"))
                continue
            day0_tweets = sum(self.counts.at(ev.ticker, anchor.day0))
            if day0_tweets == 0:
                dropped.append((ev, "no day-0 tweets"))
                continue
            events.append(AnchoredEvent(anchor=anchor, day_m1=day_m1, day0_tweets=day0_tweets))
        return replace(self, events=events, dropped=dropped)


def build_universe(
    ds: Dataset,
    cal: TradingCalendar | None = None,
    until: date | None = None,
) -> EventUniverse:
    """Count the tweets by day once, then anchor the events up to ``until``."""
    if cal is None:
        cal = TradingCalendar.from_dataset(ds)
    covered, n_outside = covered_tweets(ds.tweets, cal)
    counts = daily_counts(covered, cal)
    return EventUniverse(ds, cal, counts, [], [], n_outside).until(until)


def stratum_thresholds(
    universe: EventUniverse, timing: Timing, polarity_day: int
) -> tuple[PolarityThresholds, int]:
    """Tercile cuts for one (timing, scoring-day) stratum."""
    scores = [universe.score(ae, polarity_day) for ae in universe.timing_events(timing)]
    return tercile_thresholds(scores), len(scores)


def all_thresholds(
    universe: EventUniverse,
) -> list[tuple[Timing, int, PolarityThresholds, int]]:
    return [(timing, day, *stratum_thresholds(universe, timing, day)) for timing, day in STRATA]


def label_stratum(
    universe: EventUniverse,
    timing: Timing,
    polarity_day: int,
    thresholds: PolarityThresholds | None = None,
) -> list[LabeledEvent]:
    """Classify one timing class's events by their stratum sentiment score."""
    if thresholds is None:
        thresholds, _ = stratum_thresholds(universe, timing, polarity_day)
    labeled = []
    for ae in universe.timing_events(timing):
        polarity = categorize_event(universe.score(ae, polarity_day), thresholds)
        labeled.append(LabeledEvent(event=ae.event, anchor=ae.anchor, polarity=polarity))
    return labeled


def surprise_regressions(universe: EventUniverse) -> list[RegressionFit]:
    """The four sentiment-vs-surprise fits: timing x scoring day."""
    fits = []
    for timing, day in STRATA:
        pairs = [
            (universe.score(ae, day), earnings_surprise(ae.event).es)
            for ae in universe.timing_events(timing)
            if not ae.event.excluded
        ]
        fits.append(fit_es_regression(pairs, stratum=f"{TIMING_NAMES[timing]}_day{day}"))
    return fits


def _mean_se(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


@dataclass
class VolumeReport:
    daily_rows: list[tuple]  # timing, rel_day, n, mean_tweets, se_tweets, mean_volume, se_volume
    hourly_rows: list[tuple]  # timing, rel_day, hour_eastern, n, mean_tweets, se_tweets
    summary_rows: list[tuple]  # metric, value


def volume_report(
    universe: EventUniverse, rel_days: tuple[int, int] = (-5, 5)
) -> VolumeReport:
    """Tweet and trading activity around announcements.

    Relative-day tweet means use the event's own ticker; trading volume is
    the share volume of that ticker's bar. Hourly profiles cover days
    -1..+1 in US/Eastern wall-clock hours of the close-delimited day. The
    three-day multiplier compares days -1..+1 cumulatively against three
    average ticker-days, and the day-0 ratio day 0 against the quiet
    baseline, which excludes event windows; both read days -1..+1 whatever
    ``rel_days`` prints. Every value is a gather from the tweet count grids
    and the price grid's volume by calendar index.
    """
    if rel_days[0] > rel_days[1]:
        raise ValueError(f"relative days {list(rel_days)}: the first exceeds the last")
    ds, cal, counts = universe.ds, universe.cal, universe.counts
    prices = ds.prices(cal.dates)
    tickers = prices.tickers
    n_days = len(cal.dates)
    count_rows = {t: i for i, t in enumerate(counts.tickers)}

    def cells(group: list[AnchoredEvent]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Day-0 calendar index, tweet count row and bar row (-1: none) per event."""
        return (
            np.array([ae.anchor.day0_index for ae in group], dtype=np.int64),
            np.array([count_rows.get(ae.event.ticker, -1) for ae in group], dtype=np.int64),
            np.array([prices.row(ae.event.ticker) for ae in group], dtype=np.int64),
        )

    def on_day(grid: np.ndarray, rows: np.ndarray, days: np.ndarray, missing) -> np.ndarray:
        """grid[row, day] per event; ``missing`` for a row of -1."""
        values = np.full((len(rows), *grid.shape[2:]), missing, dtype=grid.dtype)
        known = rows >= 0
        values[known] = grid[rows[known], days[known]]
        return values

    groups = [
        (name, cells(group))
        for name, group in (
            ("all", universe.events),
            ("afterclose", universe.timing_events(Timing.AFTER_CLOSE)),
            ("beforeopen", universe.timing_events(Timing.BEFORE_OPEN)),
        )
    ]

    def daily(group, k: int) -> tuple | None:
        """(n, mean, se of tweets, mean, se of share volume) on relative day k."""
        day0, count_row, bar_row = group
        days = day0 + k
        has_day = (days >= 0) & (days < n_days)
        if not has_day.any():
            return None
        days = days[has_day]
        tweets = on_day(counts.totals, count_row[has_day], days, 0).astype(np.float64).tolist()
        volume = on_day(prices.volume, bar_row[has_day], days, np.nan)
        volume = volume[~np.isnan(volume)].tolist()
        mv, sv = _mean_se(volume) if volume else (0.0, 0.0)
        return (len(tweets), *_mean_se(tweets), mv, sv)

    daily_rows = [
        (name, k, *row)
        for name, group in groups
        for k in range(rel_days[0], rel_days[1] + 1)
        if (row := daily(group, k)) is not None
    ]

    hourly_rows = []
    for name, (day0, count_row, _) in groups:
        for k in (-1, 0, 1):
            # one 24-hour tweet profile per event that has a day k
            days = day0 + k
            has_day = (days >= 0) & (days < n_days)
            if not has_day.any():
                continue
            profiles = on_day(counts.hourly, count_row[has_day], days[has_day], 0)
            for h, column in enumerate(profiles.T.astype(np.float64).tolist()):
                hourly_rows.append((name, k, h, len(column), *_mean_se(column)))

    n_tickers = max(len(tickers), 1)
    total_tweets = int(counts.totals.sum())
    overall_mean = total_tweets / (n_days * n_tickers)

    # quiet cells: every (bar ticker, trading day) outside days -1..+1 of an event
    quiet = np.ones((len(tickers), n_days), dtype=bool)
    day0, _, bar_row = groups[0][1]
    days = day0[:, None] + np.array([-1, 0, 1])
    event_cell = (days >= 0) & (days < n_days) & (bar_row >= 0)[:, None]
    quiet[np.broadcast_to(bar_row[:, None], days.shape)[event_cell], days[event_cell]] = False
    totals = np.array([counts.day_totals(t) for t in tickers], dtype=np.int64).reshape(quiet.shape)
    quiet_total = int(totals[quiet].sum())
    quiet_cells = int(np.count_nonzero(quiet))
    quiet_mean = quiet_total / quiet_cells if quiet_cells else 0.0

    mean_at = {k: row[1] for k in (-1, 0, 1) if (row := daily(groups[0][1], k)) is not None}
    three_day = sum(mean_at.get(k, 0.0) for k in (-1, 0, 1))
    summary_rows = [
        ("mean_tweets_per_ticker_day", overall_mean),
        ("three_day_event_multiplier", three_day / (3 * overall_mean) if overall_mean else 0.0),
        ("quiet_day_mean_tweets", quiet_mean),
        ("day0_to_quiet_ratio", mean_at.get(0, 0.0) / quiet_mean if quiet_mean else 0.0),
        ("n_events", float(len(universe.events))),
        ("n_dropped_events", float(len(universe.dropped))),
        ("n_trading_days", float(n_days)),
        ("n_tickers", float(len(tickers))),
    ]
    return VolumeReport(
        daily_rows=daily_rows, hourly_rows=hourly_rows, summary_rows=summary_rows
    )

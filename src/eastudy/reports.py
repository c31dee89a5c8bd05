"""Analysis orchestration shared by the CLI subcommands.

Builds the common event universe (anchored events with day-aligned tweet
counts), per-stratum polarity thresholds, and the plot-ready report tables:
tweet/trading-volume profiles, study and trade-return curves, surprise
regressions.
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

POLARITY_DAYS = (0, -1)
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
    rows = []
    for timing in (Timing.AFTER_CLOSE, Timing.BEFORE_OPEN):
        for day in POLARITY_DAYS:
            th, n = stratum_thresholds(universe, timing, day)
            rows.append((timing, day, th, n))
    return rows


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
    for timing in (Timing.AFTER_CLOSE, Timing.BEFORE_OPEN):
        for day in POLARITY_DAYS:
            pairs = []
            for ae in universe.timing_events(timing):
                if ae.event.excluded:
                    continue
                pairs.append(
                    (universe.score(ae, day), earnings_surprise(ae.event).es)
                )
            name = f"{TIMING_NAMES[timing]}_day{day}"
            fits.append(fit_es_regression(pairs, stratum=name))
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
    average ticker-days; the quiet baseline excludes event windows.
    """
    ds, cal, counts = universe.ds, universe.cal, universe.counts
    tickers = ds.tickers
    volume_by: dict[tuple[str, date], int] = {
        (b.ticker, b.date): b.volume for b in ds.bars
    }

    groups: list[tuple[str, list[AnchoredEvent]]] = [
        ("all", universe.events),
        ("afterclose", universe.timing_events(Timing.AFTER_CLOSE)),
        ("beforeopen", universe.timing_events(Timing.BEFORE_OPEN)),
    ]

    n_days = len(cal.dates)

    def day_at(ae: AnchoredEvent, k: int) -> int | None:
        """Calendar index of the event's relative day k, if there is one."""
        i = cal.index_of(ae.day0) + k
        return i if 0 <= i < n_days else None

    daily_rows = []
    mean_at: dict[int, float] = {}
    for name, group in groups:
        for k in range(rel_days[0], rel_days[1] + 1):
            tweet_vals: list[float] = []
            volume_vals: list[float] = []
            for ae in group:
                i = day_at(ae, k)
                if i is None:
                    continue
                tweet_vals.append(float(counts.day_totals(ae.event.ticker)[i]))
                vol = volume_by.get((ae.event.ticker, cal.dates[i]))
                if vol is not None:
                    volume_vals.append(float(vol))
            if not tweet_vals:
                continue
            mt, st = _mean_se(tweet_vals)
            mv, sv = _mean_se(volume_vals) if volume_vals else (0.0, 0.0)
            daily_rows.append((name, k, len(tweet_vals), mt, st, mv, sv))
            if name == "all":
                mean_at[k] = mt

    hourly_rows = []
    for name, group in groups:
        for k in (-1, 0, 1):
            per_hour: list[list[float]] = [[] for _ in range(24)]
            for ae in group:
                i = day_at(ae, k)
                if i is None:
                    continue
                hours = counts.hour_totals(ae.event.ticker)[i].tolist()
                for h in range(24):
                    per_hour[h].append(float(hours[h]))
            n_ev = len(per_hour[0])
            if n_ev == 0:
                continue
            for h in range(24):
                mt, st = _mean_se(per_hour[h])
                hourly_rows.append((name, k, h, n_ev, mt, st))

    n_tickers = max(len(tickers), 1)
    total_tweets = int(counts.totals.sum())
    overall_mean = total_tweets / (n_days * n_tickers)

    # quiet cells: every (bar ticker, trading day) outside days -1..+1 of an event
    quiet = np.ones((len(tickers), n_days), dtype=bool)
    ticker_pos = {t: j for j, t in enumerate(tickers)}
    for ae in universe.events:
        j = ticker_pos.get(ae.event.ticker)
        for k in (-1, 0, 1):
            i = day_at(ae, k)
            if j is not None and i is not None:
                quiet[j, i] = False
    totals = np.array([counts.day_totals(t) for t in tickers], dtype=np.int64).reshape(quiet.shape)
    quiet_total = int(totals[quiet].sum())
    quiet_cells = int(np.count_nonzero(quiet))
    quiet_mean = quiet_total / quiet_cells if quiet_cells else 0.0

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

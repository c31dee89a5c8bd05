"""Analysis orchestration shared by the CLI subcommands.

``build_universe`` builds the event universe once per run: the tweet
counts by day, and the dataset's event columns, anchored in one pass
(``alignment.anchor_days``) and scored once (``EventUniverse``). An event
that cannot be anchored keeps a reason code, whose exception is built only
when a report prints it. Every report reads the universe's columns through
masks: its window the events announced up to a date, a stratum the used
events of one timing class, with thresholds cut from the score column and
labels in one int8 column. An event's ticker code is its row in the tweet
count grids and the price grid, so the study and the curves measure events
from the day-0 and code columns, and the volume report gathers each event's
relative days by code and calendar index.
"""

from __future__ import annotations

import math
from datetime import date
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .alignment import EventAnchor, TradingCalendar, anchor_days, anchor_error
from .event_study import LabeledEvent
from .model import EPOCH, MICROSECOND, Dataset, Events, Frozen, Timing
from .sentiment import (
    DailyCounts,
    EventPolarity,
    PolarityThresholds,
    categorize_scores,
    sentiment_scores,
    tercile_thresholds,
)

# (timing, scoring day) of the four strata, in report order
STRATA = tuple(
    (timing, day) for timing in (Timing.AFTER_CLOSE, Timing.BEFORE_OPEN) for day in (0, -1)
)
SCORING_DAYS = (0, -1)  # the relative days of the count and score columns
CLASS_NAMES = {
    EventPolarity.NEGATIVE: "negative",
    EventPolarity.NEUTRAL: "neutral",
    EventPolarity.POSITIVE: "positive",
}
TIMING_NAMES = {Timing.AFTER_CLOSE: "afterclose", Timing.BEFORE_OPEN: "beforeopen"}


class EventUniverse(Frozen):
    """Every event of a dataset, anchored and scored once, as columns, and
    the daily and hourly tweet counts every report reads, but no tweet row.

    Row i is the i-th event in canonical (ticker, announce_at) order; its
    ``events.code`` is its row in the dataset's grids. An event that cannot
    be anchored has day 0 at -1, zero counts and the code of its anchoring
    error (``anchor_error``). ``window`` marks the events announced up to a
    date, ``used`` those of them that are anchored and have day-0 tweets,
    and ``dropped`` lists the others as (ticker, announcement stamp, reason).
    Tweet buckets outside the calendar are counted in ``counts.outside``.
    """

    ds: Dataset
    counts: DailyCounts
    cal: TradingCalendar
    events: Events
    reason: np.ndarray  # int8 code of alignment.ANCHOR_ERRORS, 0 where anchored
    day0: np.ndarray  # calendar index of day 0
    announced: np.ndarray  # US/Eastern announcement date, datetime64[D]
    day_labels: np.ndarray  # (n_neg, n_neut, n_pos) per event and scoring day
    sent: np.ndarray  # sentiment score per event and scoring day
    surprise: np.ndarray  # earnings surprise, NaN where excluded
    excluded: np.ndarray  # for a zero EPS estimate
    window: np.ndarray

    def sent_on(self, polarity_day: int) -> np.ndarray:
        """Sent(polarity_day) of every event."""
        return self.sent[:, SCORING_DAYS.index(polarity_day)]

    def anchor_error(self, i: int) -> Exception:
        """Why row i has no day 0."""
        ev = self.events
        return anchor_error(int(self.reason[i]), ev.tickers[ev.code[i]],
                            EPOCH + int(ev.at[i]) * MICROSECOND,
                            int(self.announced[i].astype(np.int64)))

    @cached_property
    def used(self) -> np.ndarray:
        # an event that cannot be anchored has no day-0 tweets either
        return self.window & (self.day_labels[:, 0].sum(axis=1) > 0)

    @property
    def dropped(self) -> list[tuple[str, str, str]]:
        rows = np.flatnonzero(self.window & ~self.used)
        return self.events.exclusions(rows, [
            f"not anchorable: {self.anchor_error(i)}" if self.day0[i] < 0 else "no day-0 tweets"
            for i in rows.tolist()
        ])

    def stratum(self, timing: Timing) -> np.ndarray:
        """The used events of one timing class."""
        return self.used & (self.events.timing == timing.code)

    def until(self, until: date | None) -> "EventUniverse":
        """The universe of the dataset's events announced up to ``until``
        (all of them if None), sharing every column and the counts."""
        return self._replace(window=self.announced <= np.datetime64(until or date.max))


def build_universe(ds: Dataset, until: date | None = None) -> EventUniverse:
    """Anchor, count the tweets and score every event once, on the calendar the
    index implies, then keep the events announced up to ``until``. Once counted,
    ``ds`` is rebound without its tweet rows: a caller's last reference frees them."""
    cal = TradingCalendar.from_dataset(ds)
    events = ds.events.canonical()
    day0, reason, local_day = anchor_days(cal, events)
    anchored = day0 >= 0
    near = np.clip(day0[anchored, None] + np.arange(-1, 2), 0, len(cal) - 1).ravel()
    counts = DailyCounts(ds.tweets, cal, np.repeat(events.code[anchored], 3), near)
    ds = Dataset(ds.bars, ds.index, ds.tweets[np.arange(0)], ds.events, ds.digests)
    # one gather of the label counts on every scoring day of every anchored event
    days = day0[anchored, None] + np.array(SCORING_DAYS)
    day_labels = np.zeros((len(events), len(SCORING_DAYS), 3), dtype=np.int64)
    day_labels[anchored] = np.moveaxis(counts.labels[:, events.code[anchored, None], days], 0, -1)
    excluded = events.eps_estimated == 0
    reported, estimated = events.eps_reported, events.eps_estimated
    with np.errstate(all="ignore"):  # a zero estimate divides by zero, but is excluded
        surprise = np.where(excluded, np.nan, (reported - estimated) / estimated)
    return EventUniverse(
        ds=ds,
        counts=counts,
        cal=cal,
        events=events,
        reason=reason,
        day0=day0,
        announced=local_day.astype("datetime64[D]"),
        day_labels=day_labels,
        sent=sentiment_scores(day_labels),
        surprise=surprise,
        excluded=excluded,
        window=None,  # set by until
    ).until(until)


def stratum_thresholds(
    universe: EventUniverse, timing: Timing, polarity_day: int
) -> tuple[PolarityThresholds, int]:
    """Tercile cuts for one (timing, scoring-day) stratum."""
    scores = universe.sent_on(polarity_day)[universe.stratum(timing)].tolist()
    return tercile_thresholds(scores), len(scores)


def all_thresholds(
    universe: EventUniverse,
) -> list[tuple[Timing, int, PolarityThresholds, int]]:
    return [(timing, day, *stratum_thresholds(universe, timing, day)) for timing, day in STRATA]


def stratum_labels(universe: EventUniverse, timing: Timing, polarity_day: int) -> np.ndarray:
    """The class of every universe row by the stratum's tercile cuts, as int8
    ``EventPolarity`` values; only the rows of ``universe.stratum(timing)``
    belong to the stratum."""
    thresholds, _ = stratum_thresholds(universe, timing, polarity_day)
    return categorize_scores(universe.sent_on(polarity_day), thresholds)


def label_stratum(
    universe: EventUniverse,
    timing: Timing,
    polarity_day: int,
    thresholds: PolarityThresholds | None = None,
) -> list[LabeledEvent]:
    """Classify one timing class's events by their stratum sentiment score."""
    if thresholds is None:
        thresholds, _ = stratum_thresholds(universe, timing, polarity_day)
    cal, day0 = universe.cal, universe.day0.tolist()
    labels = categorize_scores(universe.sent_on(polarity_day), thresholds).tolist()
    return [
        LabeledEvent(ev := universe.events.record(i), EventAnchor(ev, cal, cal.dates[day0[i]]),
                     EventPolarity(labels[i]))
        for i in np.flatnonzero(universe.stratum(timing)).tolist()
    ]


def surprise_regressions(universe: EventUniverse) -> list:
    """The four sentiment-vs-surprise fits (``RegressionFit``): timing x scoring day."""
    from .regression import fit_es_regression  # only the commands that regress load it

    fits = []
    for timing, day in STRATA:
        rows = universe.stratum(timing) & ~universe.excluded
        pairs = list(zip(universe.sent_on(day)[rows].tolist(), universe.surprise[rows].tolist()))
        fits.append(fit_es_regression(pairs, stratum=f"{TIMING_NAMES[timing]}_day{day}"))
    return fits


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of float64 or int64 values: ``math.fsum``'s
    exact sums, with squares as Python's ``** 2`` (``np.float_power``).
    Counts (int64, fewer than 2**27) go through ``_count_moments``."""
    n = len(values)
    if values.dtype.kind == "i" and n < 2**27:
        return _count_moments(values[:, None])[0]
    mean = math.fsum(values.tolist()) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum(np.float_power(values - mean, 2.0).tolist()) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


def _count_moments(block: np.ndarray) -> list[tuple[float, float]]:
    """``_mean_se`` of each column of an int64 block of counts with fewer than
    2**27 rows. Each column sums as integers and squares per distinct value,
    read from the runs of the column sorted; each square is split into exact
    26-bit halves (Veltkamp) that times a run length stay exact."""
    n = len(block)
    ordered = block.T.copy()  # one row per column, C order so ``ravel`` makes no copy
    ordered.sort(axis=1)  # ascending
    means = ordered.sum(axis=1) / n
    if n < 2:
        return [(mean, 0.0) for mean in means.tolist()]
    first = np.ones(ordered.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    starts = np.flatnonzero(first)  # run starts, column by column
    times = np.diff(np.append(starts, ordered.size))
    square = np.float_power(ordered.ravel()[starts] - means[starts // n], 2.0)
    high = (split := square * (2**27 + 1)) - (split - square)
    terms = np.stack((times * high, times * (square - high)), axis=1).ravel().tolist()
    bounds = 2 * np.searchsorted(starts, np.arange(len(ordered) + 1) * n)
    return [
        (mean, math.sqrt(math.fsum(terms[a:b]) / (n - 1)) / math.sqrt(n))
        for mean, a, b in zip(means.tolist(), bounds[:-1].tolist(), bounds[1:].tolist())
    ]


class VolumeReport(NamedTuple):
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
    ``rel_days`` prints. Ticker-days are the cells of the tickers with a
    bar, so the tweets of a ticker without bars count in neither the average
    nor the baseline. Each relative day of ``rel_days`` within the calendar's
    length (no event has another), and each of days -1..+1, is walked once:
    its event cells are gathered once from the tweet count grids and the
    price grid's volume by code and calendar index, and every group reads its
    daily row from that gather; on days -1..+1 also its hourly profiles, from
    one (cells x 24) block held a day at a time, and the summary its mean.
    """
    if rel_days[0] > rel_days[1]:
        raise ValueError(f"relative days {list(rel_days)}: the first exceeds the last")
    counts, prices, used = universe.counts, universe.ds.prices, universe.used
    n_days = len(universe.cal)
    # each group as a mask over the used events
    groups = (
        ("all", used[used]),
        ("afterclose", universe.stratum(Timing.AFTER_CLOSE)[used]),
        ("beforeopen", universe.stratum(Timing.BEFORE_OPEN)[used]),
    )
    window = range(max(rel_days[0], 1 - n_days), min(rel_days[1], n_days - 1) + 1)

    # quiet cells: every (ticker with a bar, trading day) outside days -1..+1 of an event
    has_bar = prices.n_bars > 0
    quiet = np.repeat(has_bar[:, None], n_days, axis=1)
    daily, hourly = {}, {}  # (group, relative day) -> its daily row, its hourly rows
    for k in sorted({*window, -1, 0, 1}):
        days = universe.day0[used] + k
        on = (days >= 0) & (days < n_days)
        rows, days = universe.events.code[used][on], days[on]
        tweets = counts.labels[:, rows, days].sum(axis=0)
        volume = prices.volume[rows, days]
        # the groups with events on day k, each as a mask of the day's cells
        present = [(name, of) for name, mask in groups if (of := mask[on]).any()]
        for name, of in present:
            shares = volume[of & ~np.isnan(volume)]
            daily[name, k] = (name, k, np.count_nonzero(of), *_mean_se(tweets[of]),
                              *(_mean_se(shares) if len(shares) else (0.0, 0.0)))
        del tweets, volume  # freed before the day's hourly block is built
        if -1 <= k <= 1:
            quiet[rows, days] = False
            profiles = counts.hourly(rows, days)  # one block every group reads
            for name, of in present:
                hourly[name, k] = [(name, k, h, daily[name, k][2], *moments) for h, moments
                                   in enumerate(_count_moments(profiles[of]))]
            del profiles  # freed before the next day's block is built
    daily_rows = [daily[name, k] for name, _ in groups for k in window if (name, k) in daily]
    hourly_rows = [row for name, _ in groups for k in (-1, 0, 1)
                   for row in hourly.get((name, k), [])]

    n_tickers = int(np.count_nonzero(has_bar))
    # no (ticker x day) grid of totals is made: each sum reads the label grids
    overall_mean = int(counts.labels.sum(axis=(0, 2))[has_bar].sum()) / (n_days * max(n_tickers, 1))
    quiet_total = sum(int(row[quiet].sum()) for row in counts.labels)
    quiet_cells = int(np.count_nonzero(quiet))
    quiet_mean = quiet_total / quiet_cells if quiet_cells else 0.0

    mean_at = {k: daily["all", k][3] for k in (-1, 0, 1) if ("all", k) in daily}
    # left to right, as ``sum`` gives before Python 3.12 (which compensates)
    three_day = mean_at.get(-1, 0.0) + mean_at.get(0, 0.0) + mean_at.get(1, 0.0)
    summary_rows = [
        ("mean_tweets_per_ticker_day", overall_mean),
        ("three_day_event_multiplier", three_day / (3 * overall_mean) if overall_mean else 0.0),
        ("quiet_day_mean_tweets", quiet_mean),
        ("day0_to_quiet_ratio", mean_at.get(0, 0.0) / quiet_mean if quiet_mean else 0.0),
        ("n_events", float(np.count_nonzero(universe.used))),
        ("n_dropped_events", float(np.count_nonzero(universe.window & ~universe.used))),
        ("n_trading_days", float(n_days)),
        ("n_tickers", float(n_tickers)),
    ]
    return VolumeReport(
        daily_rows=daily_rows, hourly_rows=hourly_rows, summary_rows=summary_rows
    )

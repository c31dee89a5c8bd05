"""Analysis orchestration shared by the CLI subcommands.

``build_universe`` counts the tweets by day and builds the event table once
per run: the dataset's event columns, anchored in one pass
(``alignment.anchor_days``) and scored once, as columns (``EventTable``).
An event that cannot be anchored keeps a reason code, whose text is written
only when a report prints it. Every report reads the table through masks:
the universe is the table plus a date window, a stratum the universe's
events of one timing class, with thresholds cut from its score column and
labels in one int8 column. The study and the curves measure events from its
day-0 and bar-row columns. The volume report gathers each event's relative
days by calendar index from the tweet count grids and the dataset's price
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date
from functools import cached_property

import numpy as np

from .alignment import EventAnchor, TradingCalendar, anchor_days, anchor_error
from .event_study import LabeledEvent
from .model import Dataset, EarningsEvent, Events, Timing
from .regression import RegressionFit, fit_es_regression
from .sentiment import (
    DailyCounts,
    EventPolarity,
    PolarityThresholds,
    categorize_scores,
    covered_tweets,
    daily_counts,
    sentiment_scores,
    tercile_thresholds,
)

# (timing, scoring day) of the four strata, in report order
STRATA = tuple(
    (timing, day) for timing in (Timing.AFTER_CLOSE, Timing.BEFORE_OPEN) for day in (0, -1)
)
SCORING_DAYS = (0, -1)  # the relative days of the table's count and score columns
CLASS_NAMES = {
    EventPolarity.NEGATIVE: "negative",
    EventPolarity.NEUTRAL: "neutral",
    EventPolarity.POSITIVE: "positive",
}
TIMING_NAMES = {Timing.AFTER_CLOSE: "afterclose", Timing.BEFORE_OPEN: "beforeopen"}


@dataclass(frozen=True, eq=False)
class EventTable:
    """Every event of a dataset, anchored and scored once, as columns.

    Row i is the i-th event in canonical (ticker, announce_at) order. A
    ticker without bars or tweets has grid row -1. An event that cannot be
    anchored has day 0 at -1, zero counts and the code of its anchoring
    error (``anchor_error`` gives the text).
    """

    cal: TradingCalendar
    events: Events
    reason: np.ndarray  # int8 code of alignment.ANCHOR_ERRORS, 0 where anchored
    day0: np.ndarray  # calendar index of day 0
    announced: np.ndarray  # US/Eastern announcement date, datetime64[D]
    bar_row: np.ndarray  # row in the price grid
    count_row: np.ndarray  # row in the tweet count grids
    day_labels: np.ndarray  # (n_neg, n_neut, n_pos) per event and scoring day
    sent: np.ndarray  # sentiment score per event and scoring day
    surprise: np.ndarray  # earnings surprise, NaN where excluded
    excluded: np.ndarray  # by the input, or for a zero EPS estimate

    def sent_on(self, polarity_day: int) -> np.ndarray:
        """Sent(polarity_day) of every event."""
        return self.sent[:, SCORING_DAYS.index(polarity_day)]

    def anchor_error(self, i: int) -> str:
        """Why row i has no day 0, as ``type: message``."""
        ev = self.events[i]
        exc = anchor_error(int(self.reason[i]), ev.ticker, ev.announce_at,
                           int(self.announced[i].astype(np.int64)))
        return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True, eq=False)
class EventUniverse:
    """The event table, the events in use, and the shared tweet counts.

    ``window`` marks the events announced up to a date, ``used`` those of
    them that are anchored and have day-0 tweets, and ``dropped`` lists the
    others with a reason, mirroring the exclusion of announcements with no
    same-day tweet activity. ``counts`` holds the daily and hourly tweet
    counts every report reads; tweet buckets outside the calendar are left
    out of them and counted in ``tweets_outside``.
    """

    ds: Dataset
    counts: DailyCounts
    table: EventTable
    window: np.ndarray
    tweets_outside: int

    @property
    def cal(self) -> TradingCalendar:
        return self.table.cal

    @cached_property
    def used(self) -> np.ndarray:
        # an event that cannot be anchored has no day-0 tweets either
        return self.window & (self.table.day_labels[:, 0].sum(axis=1) > 0)

    @property
    def events(self) -> tuple[EarningsEvent, ...]:
        return tuple(self.table.events[i] for i in np.flatnonzero(self.used).tolist())

    @property
    def dropped(self) -> list[tuple[EarningsEvent, str]]:
        t = self.table
        return [
            (t.events[i],
             f"not anchorable: {t.anchor_error(i).partition(': ')[2]}" if t.day0[i] < 0
             else "no day-0 tweets")
            for i in np.flatnonzero(self.window & ~self.used).tolist()
        ]

    def stratum(self, timing: Timing) -> np.ndarray:
        """The used events of one timing class."""
        return self.used & (self.table.events.timing == timing.code)

    def until(self, until: date | None) -> "EventUniverse":
        """The universe of the dataset's events announced up to ``until``
        (all of them if None), sharing this universe's table and counts."""
        if until is None:
            return replace(self, window=np.full(len(self.table.events), True))
        return replace(self, window=self.table.announced <= np.datetime64(until))


def build_universe(
    ds: Dataset,
    cal: TradingCalendar | None = None,
    until: date | None = None,
) -> EventUniverse:
    """Count the tweets by day and build the event table once, then keep the
    events announced up to ``until``."""
    if cal is None:
        cal = TradingCalendar.from_dataset(ds)
    covered, n_outside = covered_tweets(ds.tweets, cal)
    counts = daily_counts(covered, cal)
    events = ds.events.canonical()
    day0, reason, local_day = anchor_days(cal, events)
    bar_rows = {t: i for i, t in enumerate(ds.tickers)}  # the price grid's row order
    bar_row = np.array([bar_rows.get(t, -1) for t in events.tickers], dtype=np.int64)
    count_row = np.array([counts.row(t) for t in events.tickers], dtype=np.int64)
    bar_row, count_row = bar_row[events.code], count_row[events.code]
    # one gather of the label counts on every scoring day of every event
    known = (day0 >= 0) & (count_row >= 0)
    days = day0[known, None] + np.array(SCORING_DAYS)
    day_labels = np.zeros((len(events), len(SCORING_DAYS), 3), dtype=np.int64)
    day_labels[known] = np.moveaxis(counts.labels[:, count_row[known, None], days], 0, -1)
    excluded = events.excluded | (events.eps_estimated == 0)
    reported, estimated = events.eps_reported, events.eps_estimated
    with np.errstate(all="ignore"):  # a zero estimate divides by zero, but is excluded
        surprise = np.where(excluded, np.nan, (reported - estimated) / estimated)
    table = EventTable(
        cal=cal,
        events=events,
        reason=reason,
        day0=day0,
        announced=local_day.astype("datetime64[D]"),
        bar_row=bar_row,
        count_row=count_row,
        day_labels=day_labels,
        sent=sentiment_scores(day_labels),
        surprise=surprise,
        excluded=excluded,
    )
    return EventUniverse(ds, counts, table, np.full(len(events), True), n_outside).until(until)


def stratum_thresholds(
    universe: EventUniverse, timing: Timing, polarity_day: int
) -> tuple[PolarityThresholds, int]:
    """Tercile cuts for one (timing, scoring-day) stratum."""
    scores = universe.table.sent_on(polarity_day)[universe.stratum(timing)].tolist()
    return tercile_thresholds(scores), len(scores)


def all_thresholds(
    universe: EventUniverse,
) -> list[tuple[Timing, int, PolarityThresholds, int]]:
    return [(timing, day, *stratum_thresholds(universe, timing, day)) for timing, day in STRATA]


def stratum_labels(universe: EventUniverse, timing: Timing, polarity_day: int) -> np.ndarray:
    """The class of every table row by the stratum's tercile cuts, as int8
    ``EventPolarity`` values; only the rows of ``universe.stratum(timing)``
    belong to the stratum."""
    thresholds, _ = stratum_thresholds(universe, timing, polarity_day)
    return categorize_scores(universe.table.sent_on(polarity_day), thresholds)


def label_stratum(
    universe: EventUniverse,
    timing: Timing,
    polarity_day: int,
    thresholds: PolarityThresholds | None = None,
) -> list[LabeledEvent]:
    """Classify one timing class's events by their stratum sentiment score."""
    if thresholds is None:
        thresholds, _ = stratum_thresholds(universe, timing, polarity_day)
    t, day0 = universe.table, universe.table.day0.tolist()
    labels = categorize_scores(t.sent_on(polarity_day), thresholds).tolist()
    return [
        LabeledEvent(t.events[i], EventAnchor(t.events[i], t.cal, t.cal.dates[day0[i]]),
                     EventPolarity(labels[i]))
        for i in np.flatnonzero(universe.stratum(timing)).tolist()
    ]


def surprise_regressions(universe: EventUniverse) -> list[RegressionFit]:
    """The four sentiment-vs-surprise fits: timing x scoring day."""
    t = universe.table
    fits = []
    for timing, day in STRATA:
        rows = universe.stratum(timing) & ~t.excluded
        pairs = list(zip(t.sent_on(day)[rows].tolist(), t.surprise[rows].tolist()))
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
    ordered = np.sort(block.T, axis=1)  # one row per column, ascending
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
    ``rel_days`` prints. Ticker-days are (bar ticker, trading day) cells, so
    the tweets of a ticker without bars count in neither the average nor the
    baseline. Every daily value is a gather from the tweet count grids and
    the price grid's volume by calendar index; the hourly profiles are
    summed for just the event cells.
    """
    if rel_days[0] > rel_days[1]:
        raise ValueError(f"relative days {list(rel_days)}: the first exceeds the last")
    ds, cal, counts, t = universe.ds, universe.cal, universe.counts, universe.table
    prices = ds.prices(cal.dates)
    tickers = prices.tickers
    n_days = len(cal.dates)

    def on_day(grid: np.ndarray, rows: np.ndarray, days: np.ndarray, missing) -> np.ndarray:
        """grid[row, day] per event; ``missing`` for a row of -1."""
        values = np.full((len(rows), *grid.shape[2:]), missing, dtype=grid.dtype)
        known = rows >= 0
        values[known] = grid[rows[known], days[known]]
        return values

    # (day-0 calendar index, tweet count row, bar row) of each group's events
    groups = [
        (name, mask, (t.day0[mask], t.count_row[mask], t.bar_row[mask]))
        for name, mask in (
            ("all", universe.used),
            ("afterclose", universe.stratum(Timing.AFTER_CLOSE)),
            ("beforeopen", universe.stratum(Timing.BEFORE_OPEN)),
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
        tweets = on_day(counts.totals, count_row[has_day], days, 0)
        volume = on_day(prices.volume, bar_row[has_day], days, np.nan)
        volume = volume[~np.isnan(volume)]
        mv, sv = _mean_se(volume) if len(volume) else (0.0, 0.0)
        return (len(tweets), *_mean_se(tweets), mv, sv)

    daily_rows = [
        (name, k, *row)
        for name, _, group in groups
        for k in range(rel_days[0], rel_days[1] + 1)
        if (row := daily(group, k)) is not None
    ]

    # days -1..+1 of each used event, as calendar indexes
    day0, count_row, bar_row = groups[0][2]
    days = day0[:, None] + np.array([-1, 0, 1])
    has_day = (days >= 0) & (days < n_days)

    # one 24-hour tweet profile per used event on each of those days it has
    known = has_day & (count_row >= 0)[:, None]
    on_known = counts.hourly(np.broadcast_to(count_row[:, None], days.shape)[known], days[known])
    profiles = np.zeros((*days.shape, 24), dtype=np.int64)
    profiles[known] = on_known
    hourly_rows = []
    for name, mask, _ in groups:
        in_group = mask[universe.used]
        for j, k in enumerate((-1, 0, 1)):
            on_k = profiles[in_group & has_day[:, j], j]
            for h, moments in enumerate(_count_moments(on_k) if len(on_k) else []):
                hourly_rows.append((name, k, h, len(on_k), *moments))

    # quiet cells: every (bar ticker, trading day) outside days -1..+1 of an event
    quiet = np.ones((len(tickers), n_days), dtype=bool)
    event_cell = has_day & (bar_row >= 0)[:, None]
    quiet[np.broadcast_to(bar_row[:, None], days.shape)[event_cell], days[event_cell]] = False
    totals = np.array([counts.day_totals(t) for t in tickers], dtype=np.int64).reshape(quiet.shape)
    overall_mean = int(totals.sum()) / (n_days * max(len(tickers), 1))
    quiet_total = int(totals[quiet].sum())
    quiet_cells = int(np.count_nonzero(quiet))
    quiet_mean = quiet_total / quiet_cells if quiet_cells else 0.0

    mean_at = {k: row[1] for k in (-1, 0, 1) if (row := daily(groups[0][2], k)) is not None}
    three_day = sum(mean_at.get(k, 0.0) for k in (-1, 0, 1))
    summary_rows = [
        ("mean_tweets_per_ticker_day", overall_mean),
        ("three_day_event_multiplier", three_day / (3 * overall_mean) if overall_mean else 0.0),
        ("quiet_day_mean_tweets", quiet_mean),
        ("day0_to_quiet_ratio", mean_at.get(0, 0.0) / quiet_mean if quiet_mean else 0.0),
        ("n_events", float(np.count_nonzero(universe.used))),
        ("n_dropped_events", float(np.count_nonzero(universe.window & ~universe.used))),
        ("n_trading_days", float(n_days)),
        ("n_tickers", float(len(tickers))),
    ]
    return VolumeReport(
        daily_rows=daily_rows, hourly_rows=hourly_rows, summary_rows=summary_rows
    )

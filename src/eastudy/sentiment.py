"""Daily sentiment aggregation and event polarity classification.

Hourly tweet buckets roll up into close-delimited trading days in one pass
over the bucket columns: one ``np.searchsorted`` assigns every bucket its
trading day, and ``np.add.at`` sums the int32 label counts, widened to
int64, into an int64 (ticker x trading day) grid, so totals are exact
integers whatever the order of the buckets. The same pass keeps each
bucket's grid cell, so that US/Eastern hour-of-day totals are summed in
int64 for just the cells asked for: only their buckets are read.

A day's sentiment score is the Laplace-smoothed mean of the {-1, 0, +1}
label distribution, which keeps the score strictly inside (-1, +1) even for
empty days. Events are classified negative/neutral/positive by tercile
cuts of the score distribution within their stratum (timing class x
scoring day), so the three classes are uniformly populated.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from functools import cached_property

import numpy as np

from .alignment import TradingCalendar, eastern_hours
from .errors import TooFewEvents
from .model import TweetBuckets

LAPLACE_LABELS = 3  # one pseudo-count per sentiment label


class EventPolarity(enum.IntEnum):
    """Ordered so that monotone score implies monotone polarity."""

    NEGATIVE = -1
    NEUTRAL = 0
    POSITIVE = 1


class PolarityThresholds(namedtuple("PolarityThresholds", "t_low t_high")):
    """Right-closed class boundaries: (-1, t_low], (t_low, t_high], (t_high, 1)."""

    __slots__ = ()

    def __new__(cls, t_low: float, t_high: float):
        if t_low > t_high:
            raise ValueError(f"t_low {t_low} exceeds t_high {t_high}")
        return super().__new__(cls, t_low, t_high)

    @classmethod
    def _make(cls, values):  # so that ``_replace`` checks too
        return cls(*values)


class DailyCounts:
    """Close-delimited daily tweet counts as integer (ticker x day) grids.

    Rows are ``tickers`` (the buckets' sorted ticker table, so row i is code
    i, all zeros for a ticker without buckets), columns the calendar's
    trading days; ``buckets`` counts the buckets of each cell.
    ``hourly`` sums the hour-of-day profiles of the cells asked for.
    """

    def __init__(self, tweets: TweetBuckets, cal: TradingCalendar):
        self.tickers = tweets.tickers
        self.cal = cal
        self._tweets = tweets
        self._cells = tweets.code * len(cal) + cal.day_indices(tweets.ts)
        n_cells = len(self.tickers) * len(cal)
        labels = np.zeros((3, n_cells), dtype=np.int64)
        for row, column in zip(labels, (tweets.n_neg, tweets.n_neut, tweets.n_pos)):
            # int64 values: int32 ones into an int64 grid leave np.add.at's fast path
            np.add.at(row, self._cells, column.astype(np.int64))
        self.labels = labels.reshape(3, len(self.tickers), len(cal))
        self.buckets = np.bincount(self._cells, minlength=n_cells).reshape(
            len(self.tickers), len(cal)
        )

    @cached_property
    def totals(self) -> np.ndarray:
        """Tweets per (ticker, day) cell."""
        return self.labels.sum(axis=0)

    def hourly(self, rows: np.ndarray, days: np.ndarray) -> np.ndarray:
        """Tweets per US/Eastern hour of day of each (row, day) cell, as a
        (cells, 24) block; only the buckets of those cells are read."""
        cells, back = np.unique(rows * len(self.cal) + days, return_inverse=True)
        wanted = np.zeros(self.buckets.size, dtype=bool)
        wanted[cells] = True
        picked = np.flatnonzero(wanted[self._cells])
        tw = self._tweets
        block = np.zeros((len(cells), 24), dtype=np.int64)
        at = np.searchsorted(cells, self._cells[picked]), eastern_hours(tw.ts[picked])
        total = tw.n_neg[picked].astype(np.int64) + tw.n_neut[picked] + tw.n_pos[picked]
        np.add.at(block, at, total)
        return block[back]


def covered_tweets(tweets: TweetBuckets, cal: TradingCalendar) -> tuple[TweetBuckets, int]:
    """The tweet buckets inside the calendar's coverage, and how many are not.

    This is the one policy for buckets outside the calendar: they are left
    out of every count and reported as ``dataset.tweets_outside_calendar``
    in the manifest, never an error and never silently.
    """
    inside = cal.covers_ts(tweets.ts)
    n_outside = len(inside) - int(np.count_nonzero(inside))
    return (tweets[inside] if n_outside else tweets), n_outside


def daily_counts(tweets: TweetBuckets, cal: TradingCalendar) -> DailyCounts:
    """Sum hourly buckets into close-delimited daily counts.

    Sum-preserving: every input tweet lands in exactly one output day.
    Raises OutOfCalendarRange if a bucket falls outside calendar coverage.
    """
    return DailyCounts(tweets, cal)


def sentiment_score(n_neg: int, n_neut: int, n_pos: int) -> float:
    """Laplace-smoothed mean of the label distribution, in (-1, +1)."""
    if min(n_neg, n_neut, n_pos) < 0:
        raise ValueError("tweet counts must be non-negative")
    return (n_pos - n_neg) / (n_pos + n_neut + n_neg + LAPLACE_LABELS)


def sentiment_scores(labels: np.ndarray) -> np.ndarray:
    """``sentiment_score`` of every (n_neg, n_neut, n_pos) along the last axis.

    The counts are exact int64 sums below 2**53, so the float64 division is
    the IEEE operation Python's gives, bit for bit.
    """
    n_neg, n_neut, n_pos = np.moveaxis(labels, -1, 0)
    return (n_pos - n_neg) / (n_pos + n_neut + n_neg + LAPLACE_LABELS)


def tercile_thresholds(scores: list[float]) -> PolarityThresholds:
    """Order-statistic cuts that split scores into three equal classes.

    t_low is the ceil(n/3)-th smallest score and t_high the ceil(2n/3)-th;
    ties straddling a cut fall into the lower class because the class
    intervals are right-closed.
    """
    n = len(scores)
    if n < 3:
        raise TooFewEvents(f"need at least 3 scores to cut terciles, got {n}")
    ordered = sorted(scores)
    t_low = ordered[-(-n // 3) - 1]
    t_high = ordered[-(-2 * n // 3) - 1]
    return PolarityThresholds(t_low=t_low, t_high=t_high)


def categorize_scores(scores: np.ndarray, th: PolarityThresholds) -> np.ndarray:
    """The class of every score by the right-closed intervals of ``th``, as
    int8 ``EventPolarity`` values."""
    return (1 - (scores <= th.t_low) - (scores <= th.t_high)).astype(np.int8)


def categorize_event(score: float, th: PolarityThresholds) -> EventPolarity:
    return EventPolarity(int(categorize_scores(np.float64(score), th)))

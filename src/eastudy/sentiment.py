"""Daily sentiment aggregation and event polarity classification.

Hourly tweet buckets roll up into close-delimited trading days in one pass
over the canonical bucket columns (int32 codes and hours since the epoch),
sorted by (ticker, hour), a slice of ``SLICE_ROWS`` rows at a time: the
calendar's ``day_indices`` gives each bucket of the slice its trading day,
from its hour in epoch seconds, or an edge column outside the calendar, so
each (ticker x day) cell's buckets are one run. One ``np.add.reduceat`` per
label sums the slice's runs in int64, so totals are exact integers, and no
temporary is longer than a slice. Only the buckets of the cells kept for
hourly profiles stay, as US/Eastern hours of day and totals: each slice
adds its kept buckets, joined once at the end, so nothing longer is held.

A day's sentiment score is the Laplace-smoothed mean of the {-1, 0, +1}
label distribution, which keeps the score strictly inside (-1, +1) even for
empty days. Events are classified negative/neutral/positive by tercile
cuts of the score distribution within their stratum (timing class x
scoring day), so the three classes are uniformly populated.
"""

from __future__ import annotations

import enum
from collections import namedtuple

import numpy as np

from .alignment import TradingCalendar, eastern_hours
from .errors import TooFewEvents
from .model import SLICE_ROWS, TweetBuckets, run_starts

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
    trading days; ``buckets`` counts the buckets of each cell. ``outside``
    counts the buckets outside the calendar, the one policy for them: in no
    cell, and reported as ``dataset.tweets_outside_calendar`` in the manifest.
    ``hourly`` sums the hour-of-day profiles of kept cells (``rows``, ``days``),
    from their buckets alone: int8 Eastern hours and int64 totals.
    """

    def __init__(self, tweets: TweetBuckets, cal: TradingCalendar, rows=(), days=()):
        self.tickers, self.cal = tweets.tickers, cal
        tw = tweets.canonical()
        # buckets and label sums per cell, flat, with an edge column on either side of
        # the trading days; a slice may cut a cell's run, so each slice adds its part
        width = len(cal) + 2
        self._runs = np.zeros(len(self.tickers) * width, dtype=np.int64)
        labels = np.zeros((3, self._runs.size), dtype=np.int64)
        keep = np.zeros(self._runs.size, dtype=bool)
        keep[np.asarray(rows, np.intp) * width + np.asarray(days, np.intp) + 1] = True
        kept = np.flatnonzero(keep)
        # each slice's kept buckets, in order; the empty seeds hold the dtypes
        hours, totals = [np.empty(0, np.int8)], [np.empty(0, np.int64)]
        for lo in range(0, len(tw), SLICE_ROWS):
            part = slice(lo, lo + SLICE_ROWS)
            cells = cal.day_indices(tw.seconds(part))
            cells += 1
            cells += np.multiply(tw.code[part], width, dtype=np.intp)
            first = run_starts(cells)
            filled = cells[first]
            self._runs[filled] += np.diff(first, append=len(cells))
            for row, column in zip(labels, (tw.n_neg, tw.n_neut, tw.n_pos)):
                row[filled] += np.add.reduceat(column[part], first, dtype=np.int64)
            mine = tw[lo + np.flatnonzero(keep[cells])]
            hours.append(eastern_hours(mine.seconds()).astype(np.int8))
            totals.append(mine.total)
        self.labels = labels.reshape(3, len(self.tickers), width)[:, :, 1:-1]
        self.buckets = self._runs.reshape(len(self.tickers), width)[:, 1:-1]
        self.outside = len(tw) - int(self.buckets.sum())
        self._hour, self._total = np.concatenate(hours), np.concatenate(totals)
        self._kept, self._ends = kept.astype(np.int32), np.cumsum(self._runs[kept], dtype=np.int32)

    def hourly(self, rows: np.ndarray, days: np.ndarray) -> np.ndarray:
        """Tweets per US/Eastern hour of day of each (row, day) cell, as a
        (cells, 24) block; ValueError for a cell that is not kept."""
        cells = (rows.astype(np.intp) * (len(self.cal) + 2) + days + 1).astype(np.int32)
        at = np.searchsorted(self._kept, cells)
        if (np.searchsorted(self._kept, cells, side="right") == at).any():
            raise ValueError("hourly profiles are kept only for the cells DailyCounts was given")
        owner = np.repeat(np.arange(len(cells)), self._runs[cells])
        # a cell's kept buckets start where the kept buckets before it end
        kept = np.arange(len(owner)) + (self._ends[at] - np.cumsum(self._runs[cells]))[owner]
        block = np.zeros((len(cells), 24), dtype=np.int64)
        np.add.at(block, (owner, self._hour[kept]), self._total[kept])
        return block


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

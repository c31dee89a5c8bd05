import tracemalloc
from datetime import date, datetime, timedelta, timezone
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eastudy import sentiment
from eastudy.alignment import TradingCalendar, close_instant, eastern_hours, to_eastern
from eastudy.errors import OutOfCalendarRange, TooFewEvents
from eastudy.model import SLICE_ROWS
from eastudy.reports import build_universe
from eastudy.sentiment import (
    DailyCounts,
    EventPolarity,
    PolarityThresholds,
    categorize_event,
    sentiment_score,
    tercile_thresholds,
)
from eastudy.synth import SynthSpec, generate

from conftest import TweetBucket, day_cells, eastern, make_calendar, tweet_columns

counts = st.integers(min_value=0, max_value=10_000)

# trading days across both 2015 DST changes (March 8 and November 1)
DST_CALENDAR = make_calendar(date(2015, 3, 2), 185)
_COVERAGE_START = close_instant(DST_CALENDAR.dates[0] - timedelta(days=1))
_COVERAGE_HOURS = int(
    (close_instant(DST_CALENDAR.dates[-1]) - _COVERAGE_START).total_seconds()
) // 3600
_CHANGEOVER_HOURS = [datetime(2015, 3, 8, h, tzinfo=timezone.utc) for h in (6, 7, 8)] + [
    datetime(2015, 11, 1, h, tzinfo=timezone.utc) for h in (5, 6, 7)
]
hour_starts = st.one_of(
    st.integers(1, _COVERAGE_HOURS).map(lambda k: _COVERAGE_START + timedelta(hours=k)),
    st.sampled_from([close_instant(d) for d in DST_CALENDAR.dates]),  # exactly 16:00 ET
    st.sampled_from(_CHANGEOVER_HOURS),
)
# hours at or before the virtual previous close, and after the last close
outside_hour_starts = st.one_of(
    st.integers(0, 200).map(lambda k: _COVERAGE_START - timedelta(hours=k)),
    st.integers(1, 200).map(lambda k: close_instant(DST_CALENDAR.dates[-1]) + timedelta(hours=k)),
)
# the trading days that hold the changeover hours
_SWITCH_DAYS = DST_CALENDAR.day_indices(
    np.array([int(h.timestamp()) for h in _CHANGEOVER_HOURS])
).tolist()


def every_cell(tweets, cal):
    """The (ticker row, day) of every cell of the count grids, as two arrays."""
    return np.indices((len(tweets.tickers), len(cal))).reshape(2, -1)


def ref_hourly(days, tweets):
    """The full (ticker, day, US/Eastern hour) grid of tweet totals, summed
    over every bucket."""
    grid = np.zeros(days.buckets.size * 24, dtype=np.int64)
    cells = tweets.code.astype(np.int64) * len(days.cal) + days.cal.day_indices(tweets.seconds())
    np.add.at(grid, cells * 24 + eastern_hours(tweets.seconds()), tweets.total)
    return grid.reshape(*days.buckets.shape, 24)


def ref_counts(buckets, tickers, cal):
    """The label grids, bucket counts, buckets outside the calendar and the
    (ticker, day, US/Eastern hour) grid of tweet totals, one bucket at a time."""
    labels = np.zeros((3, len(tickers), len(cal)), dtype=np.int64)
    n_buckets = np.zeros(labels.shape[1:], dtype=np.int64)
    hourly = np.zeros((*n_buckets.shape, 24), dtype=np.int64)
    outside = 0
    for b in buckets:
        try:
            day = cal.index_of(cal.close_delimited_day(b.hour_start))
        except OutOfCalendarRange:
            outside += 1
            continue
        row = tickers.index(b.ticker)
        labels[:, row, day] += (b.n_neg, b.n_neut, b.n_pos)
        n_buckets[row, day] += 1
        hourly[row, day, to_eastern(b.hour_start).hour] += b.total
    return labels, n_buckets, outside, hourly


class TestSentimentScore:
    def test_zero_counts(self):
        assert sentiment_score(0, 0, 0) == 0.0

    def test_direct_evaluation(self):
        assert sentiment_score(5, 5, 10) == pytest.approx(5 / 23, abs=0)

    @pytest.mark.parametrize("k,m", [(0, 1), (3, 0), (7, 7), (100, 5)])
    def test_symmetric_counts_score_zero(self, k, m):
        assert sentiment_score(k, m, k) == 0.0

    @pytest.mark.parametrize(
        "neg,neut,pos",
        [(0, 0, 1), (1, 0, 0), (2, 3, 4), (10, 0, 0), (0, 10, 3), (5, 5, 10),
         (1, 1, 1), (99, 1, 100), (0, 1000, 1), (7, 2, 0), (123, 456, 789)],
    )
    def test_matches_exact_rational(self, neg, neut, pos):
        expected = Fraction(pos - neg, pos + neut + neg + 3)
        assert sentiment_score(neg, neut, pos) == float(expected)

    @given(counts, counts, counts)
    def test_antisymmetry(self, neg, neut, pos):
        assert sentiment_score(neg, neut, pos) == -sentiment_score(pos, neut, neg)

    @given(counts, counts, counts)
    def test_strictly_inside_unit_interval(self, neg, neut, pos):
        assert -1 < sentiment_score(neg, neut, pos) < 1

    @given(counts, counts, counts, st.integers(min_value=1, max_value=1000))
    def test_neutral_tweets_shrink_magnitude(self, neg, neut, pos, extra):
        before = sentiment_score(neg, neut, pos)
        after = sentiment_score(neg, neut + extra, pos)
        if before != 0:
            assert abs(after) < abs(before)
        else:
            assert after == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            sentiment_score(-1, 0, 0)


class TestTerciles:
    def test_three_distinct_scores(self):
        th = tercile_thresholds([-0.5, 0.0, 0.5])
        assert th.t_low == -0.5 and th.t_high == 0.0
        classes = [categorize_event(s, th) for s in (-0.5, 0.0, 0.5)]
        assert classes == [EventPolarity.NEGATIVE, EventPolarity.NEUTRAL, EventPolarity.POSITIVE]

    def test_nine_distinct_scores_split_evenly(self):
        scores = [0.91, -0.47, 0.02, 0.33, -0.88, 0.11, 0.76, -0.21, 0.55]
        th = tercile_thresholds(scores)
        classes = [categorize_event(s, th) for s in scores]
        assert sum(1 for c in classes if c is EventPolarity.NEGATIVE) == 3
        assert sum(1 for c in classes if c is EventPolarity.NEUTRAL) == 3
        assert sum(1 for c in classes if c is EventPolarity.POSITIVE) == 3

    def test_too_few(self):
        with pytest.raises(TooFewEvents):
            tercile_thresholds([0.1, 0.2])

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            PolarityThresholds(t_low=0.5, t_high=0.1)
        with pytest.raises(ValueError):
            PolarityThresholds(t_low=0.0, t_high=0.1)._replace(t_low=0.5)

    @given(st.lists(st.floats(min_value=-0.99, max_value=0.99), min_size=3,
                    max_size=300, unique=True))
    def test_counts_within_one_of_third(self, scores):
        n = len(scores)
        th = tercile_thresholds(scores)
        classes = [categorize_event(s, th) for s in scores]
        for pol in EventPolarity:
            count = sum(1 for c in classes if c is pol)
            assert abs(count - n / 3) <= 1

    @given(st.lists(st.floats(min_value=-0.99, max_value=0.99), min_size=3,
                    max_size=60, unique=True))
    def test_boundary_scores_fall_in_lower_class(self, scores):
        th = tercile_thresholds(scores)
        assert categorize_event(th.t_low, th) is EventPolarity.NEGATIVE
        if th.t_high > th.t_low:
            assert categorize_event(th.t_high, th) is EventPolarity.NEUTRAL


class TestCategorize:
    # published AfterClose day-0 cuts: (-1, 0.03], (0.03, 0.25], (0.25, 1)
    TH = PolarityThresholds(t_low=0.03, t_high=0.25)

    def test_boundary_is_right_closed(self):
        assert categorize_event(0.03, self.TH) is EventPolarity.NEGATIVE

    def test_above_upper_cut(self):
        assert categorize_event(0.30, self.TH) is EventPolarity.POSITIVE

    def test_between_cuts(self):
        assert categorize_event(0.10, self.TH) is EventPolarity.NEUTRAL

    @given(st.floats(min_value=-1, max_value=1), st.floats(min_value=-1, max_value=1))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert categorize_event(lo, self.TH) <= categorize_event(hi, self.TH)


class TestDailyCounts:
    @pytest.mark.parametrize("kept_days", [(), (449, 450, 451)])
    def test_counting_peaks_below_one_and_a_half_times_what_it_keeps(self, kept_days):
        """Over 100k buckets, counted a slice of rows at a time: no temporary
        is as long as the tweet columns, so the peak stays near the grids,
        also when every ticker has kept cells (on ``kept_days``)."""
        ds = generate(SynthSpec(seed=3, n_tickers=16, n_days=900, events_per_ticker=0))
        cal = TradingCalendar.from_dataset(ds)
        assert len(ds.tweets) > 100_000
        rows, cells = np.repeat(np.arange(16), len(kept_days)), np.array(kept_days * 16, np.intp)
        tracemalloc.start()
        try:
            days = DailyCounts(ds.tweets, cal, rows, cells)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert days.buckets.sum() == len(ds.tweets)
        assert days.hourly(rows, cells).sum() == days.labels[:, rows, cells].sum()
        assert peak < 1.5 * held

    def test_hourly_peaks_below_twice_its_block(self):
        """On the event_dense workload one ``hourly`` call, for the day-0 cells
        of one ticker's events, peaks below twice its (cells x 24) int64 block:
        it reads only the kept buckets, and nothing as long as the grid."""
        ds = generate(SynthSpec(seed=7, n_tickers=30, n_days=900, events_per_ticker=150,
                                event_spacing=5, tweet_rate=1.0))
        universe = build_universe(ds)
        mine = (universe.events.code == 0) & (universe.day0 >= 0)
        rows, days = universe.events.code[mine], universe.day0[mine]
        tracemalloc.start()
        try:
            block = universe.counts.hourly(rows, days)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.shape == (len(rows), 24) and len(rows) > 100 and block.sum() > 0
        assert peak < 2 * block.nbytes

    def test_hourly_of_a_cell_not_kept_raises(self, week_calendar):
        bucket = TweetBucket("AAA", eastern(2015, 6, 2, 10, 0), 1, 2, 3)
        days = DailyCounts(tweet_columns([bucket]), week_calendar, [0], [1])
        assert days.hourly(np.array([0]), np.array([1])).sum() == 6
        with pytest.raises(ValueError):
            days.hourly(np.array([0, 0]), np.array([1, 2]))
        with pytest.raises(ValueError):
            DailyCounts(tweet_columns([bucket]), week_calendar).hourly(np.array([0]), np.array([1]))

    def test_bucket_after_close_counts_to_next_day(self, week_calendar):
        bucket = TweetBucket("AAA", eastern(2015, 6, 2, 17, 0), 1, 2, 3)
        [day] = day_cells(DailyCounts(tweet_columns([bucket]), week_calendar))
        assert day.trading_date == date(2015, 6, 3)
        assert (day.n_neg, day.n_neut, day.n_pos) == (1, 2, 3)

    def test_empty_input(self, week_calendar):
        assert day_cells(DailyCounts(tweet_columns([]), week_calendar)) == []

    def test_split_across_close(self, week_calendar):
        buckets = [
            TweetBucket("AAA", eastern(2015, 6, 2, 10, 0), 1, 0, 0),
            TweetBucket("AAA", eastern(2015, 6, 2, 18, 0), 0, 0, 1),
        ]
        days = DailyCounts(tweet_columns(buckets), week_calendar)
        by_date = {c.trading_date: c for c in day_cells(days)}
        assert by_date[date(2015, 6, 2)].n_neg == 1
        assert by_date[date(2015, 6, 3)].n_pos == 1

    def test_buckets_before_and_after_coverage_are_counted_outside(self, week_calendar):
        """A bucket before the coverage and one after it are counted in
        ``outside`` and reach no cell; the inside buckets' totals are kept."""
        inside = [TweetBucket("AAA", eastern(2015, 6, 2, 10, 0), 1, 2, 3),
                  TweetBucket("BBB", eastern(2015, 6, 3, 18, 0), 4, 5, 6)]
        before = TweetBucket("AAA", eastern(2015, 5, 31, 16, 0), 7, 0, 0)  # the virtual close
        after = TweetBucket("BBB", eastern(2015, 6, 14, 12, 0), 0, 0, 8)
        days = DailyCounts(tweet_columns([before, *inside, after]), week_calendar)
        assert days.outside == 2
        assert int(days.buckets.sum()) == len(inside)
        assert [(c.ticker, c.trading_date, c.total) for c in day_cells(days)] == [
            ("AAA", date(2015, 6, 2), 6), ("BBB", date(2015, 6, 4), 15)]
        assert int(days.labels.sum()) == sum(b.total for b in inside)

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 23), counts, counts, counts),
                    max_size=40))
    def test_totals_conserved(self, spec):
        cal = make_calendar(date(2015, 6, 1), 12)
        buckets = [
            TweetBucket("AAA", eastern(2015, 6, 1 + day_off, hour), neg, neut, pos)
            for day_off, hour, neg, neut, pos in spec
        ]
        days = DailyCounts(tweet_columns(buckets), cal)
        assert sum(c.total for c in day_cells(days)) == sum(b.total for b in buckets)

    @given(st.lists(st.tuples(st.sampled_from(["AAA", "BBB"]), hour_starts, counts, counts,
                              counts), max_size=40))
    def test_columnar_counts_match_per_bucket_reference(self, spec):
        buckets = [TweetBucket(t, at, neg, neut, pos) for t, at, neg, neut, pos in spec]
        ref_days: dict = {}
        ref_hours: dict = {}
        for b in buckets:
            day = DST_CALENDAR.close_delimited_day(b.hour_start)
            acc = ref_days.setdefault((b.ticker, day), [0, 0, 0])
            acc[0] += b.n_neg
            acc[1] += b.n_neut
            acc[2] += b.n_pos
            key = (b.ticker, day, to_eastern(b.hour_start).hour)
            ref_hours[key] = ref_hours.get(key, 0) + b.total
        tweets = tweet_columns(buckets)
        rows, cols = every_cell(tweets, DST_CALENDAR)
        days = DailyCounts(tweets, DST_CALENDAR, rows, cols)
        assert {
            (c.ticker, c.trading_date): [c.n_neg, c.n_neut, c.n_pos] for c in day_cells(days)
        } == ref_days
        hourly = days.hourly(rows, cols).reshape(*days.buckets.shape, 24)
        hours = {
            (days.tickers[r], DST_CALENDAR.dates[d], h): int(hourly[r, d, h])
            for r, d, h in zip(*np.nonzero(hourly))
        }
        assert hours == {k: v for k, v in ref_hours.items() if v}

    @given(st.lists(st.tuples(st.sampled_from(["AAA", "BBB"]), hour_starts, counts, counts,
                              counts), min_size=1, max_size=40), st.data())
    def test_event_cell_profiles_equal_the_full_grid(self, spec, data):
        tweets = tweet_columns(TweetBucket(*b) for b in spec)
        day = st.one_of(
            st.integers(0, len(DST_CALENDAR) - 1),  # mostly cells with no buckets
            st.sampled_from(_SWITCH_DAYS),
            st.sampled_from(DST_CALENDAR.day_indices(tweets.seconds()).tolist()),
        )
        cells = data.draw(st.lists(st.tuples(st.integers(0, len(tweets.tickers) - 1), day),
                                   max_size=30))
        cells += cells[:data.draw(st.integers(0, len(cells)))]  # repeated cells
        rows, cols = np.array(cells, dtype=np.int64).reshape(-1, 2).T
        days = DailyCounts(tweets, DST_CALENDAR, rows, cols)  # the drawn cells are kept
        assert np.array_equal(days.hourly(rows, cols), ref_hourly(days, tweets)[rows, cols])

    @given(st.lists(st.tuples(st.sampled_from(["AAA", "BBB", "CCC"]),
                              st.one_of(hour_starts, outside_hour_starts), counts, counts,
                              counts), max_size=60), st.randoms(),
           st.one_of(st.integers(1, 8), st.just(SLICE_ROWS)))
    def test_buckets_in_any_order_and_outside_equal_the_per_bucket_reference(self, spec, rnd,
                                                                             slice_rows):
        """Buckets out of canonical order, some before the calendar's coverage
        and some after it, give the per-bucket grids, outside count and
        hourly profiles, whichever slices of rows they are counted in."""
        buckets = [TweetBucket(*b) for b in spec]
        tweets = tweet_columns(buckets)
        order = list(range(len(tweets)))
        rnd.shuffle(order)
        rows, cols = every_cell(tweets, DST_CALENDAR)
        with mock.patch.object(sentiment, "SLICE_ROWS", slice_rows):
            days = DailyCounts(tweets[np.array(order, dtype=np.int64)], DST_CALENDAR, rows, cols)
        labels, n_buckets, outside, hourly = ref_counts(buckets, tweets.tickers, DST_CALENDAR)
        assert np.array_equal(days.labels, labels)
        assert np.array_equal(days.buckets, n_buckets)
        assert days.outside == outside
        assert np.array_equal(days.hourly(rows, cols).reshape(hourly.shape), hourly)

from datetime import date, datetime, timedelta, timezone
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eastudy.alignment import close_instant, eastern_hours, to_eastern
from eastudy.errors import OutOfCalendarRange, TooFewEvents
from eastudy.sentiment import (
    DailyCounts,
    EventPolarity,
    PolarityThresholds,
    categorize_event,
    sentiment_score,
    tercile_thresholds,
)

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


def ref_hourly(days, tweets):
    """The full (ticker, day, US/Eastern hour) grid of tweet totals, summed
    over every bucket."""
    grid = np.zeros(days.buckets.size * 24, dtype=np.int64)
    cells = tweets.code * len(days.cal) + days.cal.day_indices(tweets.ts)
    np.add.at(grid, cells * 24 + eastern_hours(tweets.ts), tweets.total)
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
        assert int(days.totals.sum()) == sum(b.total for b in inside)

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
        days = DailyCounts(tweet_columns(buckets), DST_CALENDAR)
        assert {
            (c.ticker, c.trading_date): [c.n_neg, c.n_neut, c.n_pos] for c in day_cells(days)
        } == ref_days
        rows, cols = np.indices(days.buckets.shape).reshape(2, -1)
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
        days = DailyCounts(tweets, DST_CALENDAR)
        day = st.one_of(
            st.integers(0, len(DST_CALENDAR) - 1),  # mostly cells with no buckets
            st.sampled_from(_SWITCH_DAYS),
            st.sampled_from(DST_CALENDAR.day_indices(tweets.ts).tolist()),
        )
        cells = data.draw(st.lists(st.tuples(st.integers(0, len(days.tickers) - 1), day),
                                   max_size=30))
        cells += cells[:data.draw(st.integers(0, len(cells)))]  # repeated cells
        rows, cols = np.array(cells, dtype=np.int64).reshape(-1, 2).T
        assert np.array_equal(days.hourly(rows, cols), ref_hourly(days, tweets)[rows, cols])

    @given(st.lists(st.tuples(st.sampled_from(["AAA", "BBB", "CCC"]),
                              st.one_of(hour_starts, outside_hour_starts), counts, counts,
                              counts), max_size=60), st.randoms())
    def test_buckets_in_any_order_and_outside_equal_the_per_bucket_reference(self, spec, rnd):
        """Buckets out of canonical order, some before the calendar's coverage
        and some after it, give the per-bucket grids, outside count and
        hourly profiles."""
        buckets = [TweetBucket(*b) for b in spec]
        tweets = tweet_columns(buckets)
        order = list(range(len(tweets)))
        rnd.shuffle(order)
        days = DailyCounts(tweets[np.array(order, dtype=np.int64)], DST_CALENDAR)
        labels, n_buckets, outside, hourly = ref_counts(buckets, tweets.tickers, DST_CALENDAR)
        assert np.array_equal(days.labels, labels)
        assert np.array_equal(days.buckets, n_buckets)
        assert days.outside == outside
        rows, cols = np.indices(days.buckets.shape).reshape(2, -1)
        assert np.array_equal(days.hourly(rows, cols).reshape(hourly.shape), hourly)

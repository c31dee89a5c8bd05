import math
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eastudy.alignment import TradingCalendar
from eastudy.ingest import MAX_COUNT, parse_tweets_csv, write_dataset
from eastudy.model import Dataset, Events, Timing, TweetBuckets
from eastudy.reports import (
    STRATA,
    _mean_se,
    all_thresholds,
    build_universe,
    label_stratum,
    stratum_labels,
    stratum_thresholds,
    surprise_regressions,
    volume_report,
)
from eastudy.sentiment import DailyCounts, EventPolarity, sentiment_score
from eastudy.trading import run_strategy
from eastudy.synth import SynthSpec, generate, generate_with_truth

from conftest import bar_columns, close_prices, records, tweet_columns


@pytest.fixture(scope="module")
def universe():
    ds = generate(SynthSpec(seed=31, n_tickers=6, n_days=300, events_per_ticker=4,
                            first_event_day=135, event_spacing=35,
                            afterclose_fraction=0.5))
    return build_universe(ds)


class TestUniverse:
    def test_all_events_anchored(self, universe):
        assert np.count_nonzero(universe.used) == 24
        assert universe.dropped == []

    def test_until_filter(self):
        ds = generate(SynthSpec(seed=31, n_tickers=6, n_days=300, events_per_ticker=4,
                                first_event_day=135, event_spacing=35))
        universe = build_universe(ds)
        first_day0 = universe.cal.dates[universe.day0[universe.used].min()]
        trimmed = build_universe(ds, until=first_day0)
        assert 0 < np.count_nonzero(trimmed.used) < 24

    def test_until_shares_every_column(self, universe):
        """A window is the one field ``until`` makes: a ``--thresholds-until``
        sample copies no column."""
        sample = universe.until(universe.cal.dates[0])
        assert not sample.window.any()
        for name in ("ds", "counts", "cal", "events", "day0", "sent", "announced"):
            assert getattr(sample, name) is getattr(universe, name)

    def test_backtest_ignores_the_window(self, universe):
        """Every AfterClose event of the dataset is a backtest candidate, even
        in a universe whose window holds no event."""
        ds = universe.ds
        thresholds, _ = stratum_thresholds(universe, Timing.AFTER_CLOSE, -1)
        before_every_event = universe.announced.min().item() - timedelta(days=1)
        empty = build_universe(ds, until=before_every_event)
        assert not empty.window.any()
        ledger = run_strategy(ds, thresholds)
        assert ledger.trades
        assert run_strategy(ds, thresholds, universe=empty) == ledger

    def test_event_without_day0_tweets_dropped(self):
        ds = generate(SynthSpec(seed=31, n_tickers=2, n_days=200, events_per_ticker=1,
                                first_event_day=150, tweet_rate=0.0))
        universe = build_universe(ds)
        assert not universe.used.any()
        assert all(reason == "no day-0 tweets" for _, _, reason in universe.dropped)

    def test_universe_holds_the_count_grids_and_no_per_bucket_array(self):
        """``build_universe`` over more than 100k buckets keeps the tweet count
        grids and under 2 bytes per bucket besides: no array of each bucket's
        cell (8 bytes per bucket) and no copy of the buckets."""
        ds = generate(SynthSpec(seed=3, n_tickers=16, n_days=900, events_per_ticker=4))
        assert len(ds.tweets) > 100_000
        tracemalloc.start()
        try:
            counts = build_universe(ds).counts
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < counts.labels.nbytes + counts.buckets.nbytes + 2 * len(ds.tweets)


class TestThresholds:
    def test_four_strata(self, universe):
        rows = all_thresholds(universe)
        assert [(t, d) for t, d, _, _ in rows] == [
            (Timing.AFTER_CLOSE, 0), (Timing.AFTER_CLOSE, -1),
            (Timing.BEFORE_OPEN, 0), (Timing.BEFORE_OPEN, -1),
        ]
        for _, _, th, n in rows:
            assert -1 < th.t_low <= th.t_high < 1
            assert n > 0

    def test_labeling_splits_into_balanced_classes(self, universe):
        for timing in (Timing.AFTER_CLOSE, Timing.BEFORE_OPEN):
            labeled = label_stratum(universe, timing, 0)
            n = len(labeled)
            for pol in EventPolarity:
                count = sum(1 for le in labeled if le.polarity is pol)
                assert abs(count - n / 3) <= 1

    def test_day0_scores_recover_planted_classes(self):
        ds, truth = generate_with_truth(
            SynthSpec(seed=13, n_tickers=6, n_days=300, events_per_ticker=4,
                      first_event_day=135, event_spacing=35, afterclose_fraction=1.0)
        )
        universe = build_universe(ds)
        labeled = label_stratum(universe, Timing.AFTER_CLOSE, 0)
        truth_by_key = {(t.ticker, t.announce_at): t.polarity for t in truth}
        assert all(
            truth_by_key[(le.event.ticker, le.event.announce_at)] is le.polarity
            for le in labeled
        )


class TestSurpriseRegressions:
    def test_four_fits_with_signal_at_day0(self, universe):
        fits = {f.stratum: f for f in surprise_regressions(universe)}
        assert set(fits) == {
            "afterclose_day0", "afterclose_day-1", "beforeopen_day0", "beforeopen_day-1",
        }
        # day-0 sentiment and surprise share the planted class sign
        assert fits["afterclose_day0"].slope > 0
        assert fits["beforeopen_day0"].slope > 0
        assert fits["afterclose_day0"].r_squared > fits["afterclose_day-1"].r_squared


class TestVolumeReport:
    def test_planted_multiplier_recovered(self):
        ds = generate(SynthSpec(seed=23, n_tickers=4, n_days=300, events_per_ticker=3,
                                first_event_day=140, event_spacing=40,
                                event_tweet_multiplier=3.0))
        report = volume_report(build_universe(ds))
        summary = dict(report.summary_rows)
        assert summary["day0_to_quiet_ratio"] == pytest.approx(3.0, rel=0.05)
        assert summary["mean_tweets_per_ticker_day"] == pytest.approx(200, rel=0.1)

    def test_uniform_tweets_mean_flat_profile(self):
        ds = generate(SynthSpec(seed=29, n_tickers=4, n_days=300, events_per_ticker=3,
                                first_event_day=140, event_spacing=40,
                                event_tweet_multiplier=1.0))
        report = volume_report(build_universe(ds))
        summary = dict(report.summary_rows)
        assert summary["day0_to_quiet_ratio"] == pytest.approx(1.0, rel=0.05)
        assert summary["three_day_event_multiplier"] == pytest.approx(1.0, rel=0.05)

    def test_daily_rows_have_all_groups(self, universe):
        report = volume_report(universe)
        groups = {row[0] for row in report.daily_rows}
        assert groups == {"all", "afterclose", "beforeopen"}
        rel_days = {row[1] for row in report.daily_rows if row[0] == "all"}
        assert rel_days == set(range(-5, 6))

    def test_hourly_rows_cover_event_days(self, universe):
        report = volume_report(universe)
        keys = {(row[0], row[1]) for row in report.hourly_rows}
        assert ("all", -1) in keys and ("all", 0) in keys and ("all", 1) in keys
        hours = {row[2] for row in report.hourly_rows}
        assert hours == set(range(24))

    def test_summary_reads_days_m1_to_p1_whatever_the_window(self, universe):
        default = dict(volume_report(universe).summary_rows)
        late = volume_report(universe, (2, 5))
        assert {row[1] for row in late.daily_rows} == {2, 3, 4, 5}
        assert dict(late.summary_rows) == default
        assert default["three_day_event_multiplier"] > 1.5

    def test_window_that_ends_before_it_starts(self, universe):
        with pytest.raises(ValueError):
            volume_report(universe, (5, -5))

    def test_tweets_of_a_ticker_without_bars_change_nothing(self, universe):
        ds, tw = universe.ds, universe.ds.tweets
        copied = tw[tw.code == 0]
        assert max(tw.tickers) < "ZZZ" and "ZZZ" not in ds.bars.tickers
        tweets = TweetBuckets(
            (*tw.tickers, "ZZZ"),
            np.concatenate((tw.code, np.full(len(copied), len(tw.tickers)))),
            *(np.concatenate((getattr(tw, f), getattr(copied, f)))
              for f in ("ts", "n_neg", "n_neut", "n_pos")),
        )
        with_zzz = Dataset(bars=ds.bars, index=ds.index, tweets=tweets, events=ds.events)
        assert volume_report(build_universe(with_zzz)) == volume_report(universe)

    def test_reads_hourly_profiles_of_event_cells_only(self):
        """At paper scale the report holds far less than one full (ticker x
        day x hour) int64 grid at any time."""
        ds = generate(SynthSpec(seed=7, n_tickers=30, n_days=900, events_per_ticker=12,
                                event_spacing=60))
        universe = build_universe(ds)
        ds.prices  # built once per dataset, by whichever report is first
        tracemalloc.start()
        try:
            volume_report(universe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid = len(universe.counts.tickers) * len(universe.cal) * 24 * 8
        assert peak < grid / 4

    def test_tweet_ingest_holds_little_more_than_its_columns(self, tmp_path):
        """``parse_tweets_csv`` of about 100k buckets peaks below 1.8 times the
        columns it returns: its column buffers are sized by the shortest
        tweets line, the counts are int32, the order check and each block's
        reads make no full-length temporaries."""
        peak, held = self.tweet_ingest_peak(tmp_path, b"\n")
        assert peak < 1.8 * held

    def test_crlf_tweet_ingest_holds_little_more_than_its_columns(self, tmp_path):
        """The same bound with CRLF line ends, which keep every line on the
        fast path."""
        peak, held = self.tweet_ingest_peak(tmp_path, b"\r\n")
        assert peak < 1.8 * held

    @staticmethod
    def tweet_ingest_peak(tmp_path, end: bytes) -> tuple[int, int]:
        """The traced peak of ``parse_tweets_csv`` on about 100k buckets with
        the given line ends, and the bytes of the columns it returns."""
        write_dataset(generate(SynthSpec(seed=3, n_tickers=16, n_days=900,
                                         events_per_ticker=0)), tmp_path)
        path = tmp_path / "tweets.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", end))
        tracemalloc.start()
        try:
            accepted, diags = parse_tweets_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tw = accepted.rows
        assert diags == [] and len(tw) > 100_000
        return peak, sum(c.nbytes for c in (tw.code, tw.ts, tw.n_neg, tw.n_neut, tw.n_pos))


# Quickstart-like, small: both timing classes, every stratum cuts terciles
PERMUTED_DS = generate(SynthSpec(seed=37, n_tickers=4, n_days=220, events_per_ticker=4,
                                 first_event_day=130, event_spacing=20,
                                 afterclose_fraction=0.5))


def table_columns(universe):
    """Every event column of a universe, as comparable Python values."""
    return repr([c if isinstance(c, tuple) else records(c) if isinstance(c, Events) else c.tolist()
                 for c in vars(universe).values()
                 if not isinstance(c, (TradingCalendar, Dataset, DailyCounts))])


def outcomes(ds):
    universe = build_universe(ds)
    strata = [(universe.stratum(t), stratum_labels(universe, t, d)) for t, d in STRATA]
    thresholds = all_thresholds(universe)
    ledger = run_strategy(ds, thresholds[1][2], universe=universe)
    return (table_columns(universe), thresholds,
            [(mask.tolist(), labels[mask].tolist()) for mask, labels in strata], ledger)


class TestEventTable:
    def test_scores_are_sentiment_score_bit_for_bit(self):
        universe = build_universe(PERMUTED_DS)
        for counts, sent in zip(universe.day_labels.tolist(), universe.sent.tolist()):
            assert repr([sentiment_score(*c) for c in counts]) == repr(sent)

    def test_every_grid_has_a_row_per_dataset_ticker_and_events_read_their_own(self):
        """SYAA has SYA's bars and no tweets, SYBB SYB's tweets and no bars,
        and neither has events: the bars, the tweets and the events each
        have a ticker table of their own, which the dataset codes into one."""
        base = PERMUTED_DS
        bars, tweets = records(base.bars), records(base.tweets)
        ds = Dataset(
            bars=bar_columns([*bars, *(b._replace(ticker="SYAA") for b in bars
                                       if b.ticker == "SYA")]).canonical(),
            index=base.index,
            tweets=tweet_columns([*tweets, *(b._replace(ticker="SYBB") for b in tweets
                                             if b.ticker == "SYB")]),
            events=base.events,
        )
        universe = build_universe(ds)
        prices, counts, t = ds.prices, universe.counts, universe
        assert ds.tickers == ("SYA", "SYAA", "SYB", "SYBB", "SYC", "SYD")
        assert prices.tickers == counts.tickers == ds.tickers
        assert len(prices.closes) == len(counts.totals) == len(ds.tickers)
        assert universe.counts.outside == 0
        for row, ticker in enumerate(ds.tickers):
            closes = prices.closes[row].tolist()
            assert {d: c for d, c in zip(prices.dates, closes) if not math.isnan(c)} == (
                close_prices(ds, ticker))
            assert counts.totals[row].sum() == sum(b.total for b in records(ds.tweets)
                                                   if b.ticker == ticker)
        assert np.isnan(prices.closes[ds.tickers.index("SYBB")]).all()
        assert not counts.totals[ds.tickers.index("SYAA")].any()
        assert [ds.tickers[c] for c in t.events.code.tolist()] == [
            ev.ticker for ev in records(t.events)]
        for i, ev in enumerate(records(t.events)):
            assert t.day0[i] > 0
            on_day0 = counts.labels[:, ds.tickers.index(ev.ticker), t.day0[i]]
            assert t.day_labels[i, 0].tolist() == on_day0.tolist()

    @settings(max_examples=20)
    @given(st.integers(0, 2**32 - 1))
    def test_permuting_events_and_tweets_changes_nothing(self, seed):
        ds, events = PERMUTED_DS, records(PERMUTED_DS.events)
        rng = np.random.default_rng(seed)
        permuted = Dataset(bars=ds.bars, index=ds.index,
                           tweets=ds.tweets[rng.permutation(len(ds.tweets))],
                           events=tuple(events[i] for i in rng.permutation(len(events))))
        assert outcomes(permuted) == outcomes(ds)


def ref_mean_se(values: list[float]) -> tuple[float, float]:
    """The per-value form the report used before: a generator of ``** 2``."""
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


class TestMeanSe:
    @settings(max_examples=200)
    @given(st.lists(st.one_of(st.integers(0, 10**6).map(float),
                              st.floats(0, 1e12, allow_nan=False)), min_size=1, max_size=60))
    # squared with np.square (d * d), one deviation differs from ** 2 in the last bit
    @example([669.6191446813955, 639.0144482013467, 16.406066729352187])
    def test_equals_the_per_value_form_bit_for_bit(self, values):
        got = _mean_se(np.array(values, dtype=np.float64))
        assert np.array(got).tobytes() == np.array(ref_mean_se(values)).tobytes()


class TestMeanSeOfCounts:
    """Counts (int64) are summed as integers and grouped by value; both
    moments equal the per-value form on the same values as floats."""

    @staticmethod
    def assert_same(values: np.ndarray):
        got = _mean_se(values)
        want = ref_mean_se(values.astype(np.float64).tolist())
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @settings(max_examples=300)
    @given(st.lists(st.one_of(st.integers(0, 30), st.integers(0, MAX_COUNT)),
                    min_size=1, max_size=80))
    @example([7])  # n = 1
    @example([12] * 9)  # constant
    @example([MAX_COUNT] * 3)
    @example([0, MAX_COUNT, MAX_COUNT])
    def test_equals_the_per_value_form_bit_for_bit(self, values):
        self.assert_same(np.array(values, dtype=np.int64))

    @settings(max_examples=5)
    @given(st.integers(0, MAX_COUNT), st.integers(2**20 + 1, 2**20 + 64),
           st.lists(st.integers(0, MAX_COUNT), max_size=20), st.integers(0, 2**32 - 1))
    def test_a_value_repeated_over_2_to_the_20_times(self, value, times, others, seed):
        values = np.concatenate((np.full(times, value), others)).astype(np.int64)
        np.random.default_rng(seed).shuffle(values)
        self.assert_same(values)

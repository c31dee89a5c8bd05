from collections import Counter
from datetime import date
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eastudy.alignment import anchor_event
from eastudy.errors import EmptyClass
from eastudy.event_study import LabeledEvent
from eastudy.model import Timing
from eastudy.reports import build_universe, stratum_thresholds
from eastudy.returns import trading_return
from eastudy.sentiment import EventPolarity, PolarityThresholds
from eastudy.trading import Trade, run_strategy, trade_return_curves

from conftest import (
    TweetBucket,
    bars_from_closes,
    close_prices,
    eastern,
    index_from_closes,
    make_calendar,
    make_dataset,
    make_event,
    records,
)

# thresholds that call any sub-zero score negative
LOOSE_TH = PolarityThresholds(t_low=-0.0001, t_high=0.5)


def one_event_dataset(closes, index_closes=None, tweets=(), n_days=10):
    cal = make_calendar(date(2015, 6, 1), n_days)
    bars = bars_from_closes("AAA", cal.dates[: len(closes)], closes)
    idx = index_from_closes(cal.dates, index_closes or [1000.0 + i for i in range(n_days)])
    ev = make_event("AAA", eastern(2015, 6, 2, 17, 0), Timing.AFTER_CLOSE)
    ds = make_dataset(bars=bars, index=idx, tweets=tweets, events=[ev])
    return ds, cal, ev


class TestTradeNet:
    def test_toy_case_exact(self):
        # open 100, close 95, spread 0.05: the direct evaluation of the
        # net-return identity, bit for bit
        net = Trade.net(100.0, 95.0, 0.05)
        assert net == (100.0 - 95.0 - 0.05) / 100.0
        assert net == 0.0495
        assert 1.0 * (1.0 + net) == 1.0495

    @pytest.mark.parametrize(
        "open_px,close_px,spread",
        [(100.0, 95.0, 0.05), (50.0, 55.0, 0.05), (10.0, 10.0, 0.0),
         (200.0, 190.0, 0.02), (33.0, 30.0, 0.05), (80.0, 81.5, 0.1),
         (120.0, 96.0, 0.05), (64.0, 66.0, 0.0), (99.0, 88.0, 0.05),
         (41.0, 40.0, 0.01)],
    )
    def test_matches_exact_rational(self, open_px, close_px, spread):
        exact = (Fraction(open_px) - Fraction(close_px) - Fraction(spread)) / Fraction(open_px)
        assert abs(Trade.net(open_px, close_px, spread) - float(exact)) <= 1e-12


class TestTradeReturnCurves:
    def test_constant_prices_flat_curves(self):
        ds, cal, ev = one_event_dataset([100.0] * 10, index_closes=[500.0] * 10)
        labeled = [LabeledEvent(ev, anchor_event(ev, cal), EventPolarity.NEUTRAL)]
        curves = trade_return_curves(labeled, ds, max_d=5)
        c = curves.classes[EventPolarity.NEUTRAL]
        assert c.stock_mean == (0.0,) * 6
        assert c.index_mean == (0.0,) * 6

    def test_two_event_means_match_hand_oracle(self):
        cal = make_calendar(date(2015, 6, 1), 10)
        bars_a = bars_from_closes("AAA", cal.dates, [100, 104, 102, 106, 103, 105, 101, 99, 98, 97])
        bars_b = bars_from_closes("BBB", cal.dates, [50, 49, 51, 53, 52, 54, 55, 53, 52, 51])
        idx = index_from_closes(cal.dates, [1000, 1010, 1005, 1020, 1015, 1030, 1025, 1040, 1035, 1050])
        ev_a = make_event("AAA", eastern(2015, 6, 2, 17, 0), Timing.AFTER_CLOSE)
        ev_b = make_event("BBB", eastern(2015, 6, 2, 17, 0), Timing.AFTER_CLOSE)
        ds = make_dataset(bars=bars_a + bars_b, index=idx, events=[ev_a, ev_b])
        labeled = [
            LabeledEvent(ev_a, anchor_event(ev_a, cal), EventPolarity.POSITIVE),
            LabeledEvent(ev_b, anchor_event(ev_b, cal), EventPolarity.POSITIVE),
        ]
        curves = trade_return_curves(labeled, ds, max_d=3)
        c = curves.classes[EventPolarity.POSITIVE]
        # hand evaluation: both events anchor at day -1 = 6/2 (index 1)
        for d in range(4):
            rt_a = Fraction([100, 104, 102, 106, 103, 105][2 + d] - 104, 104)
            rt_b = Fraction([50, 49, 51, 53, 52, 54][2 + d] - 49, 49)
            expected = (rt_a + rt_b) / 2
            assert c.stock_mean[d] == pytest.approx(float(expected), abs=1e-15)
            rt_i = Fraction([1000, 1010, 1005, 1020, 1015, 1030][2 + d] - 1010, 1010)
            assert c.index_mean[d] == pytest.approx(float(rt_i), abs=1e-15)

    def test_missing_bar_skips_event_only(self):
        ds, cal, ev = one_event_dataset([100.0] * 4)  # bars end before day 10
        labeled = [LabeledEvent(ev, anchor_event(ev, cal), EventPolarity.NEUTRAL)]
        with pytest.raises(EmptyClass):
            trade_return_curves(labeled, ds, max_d=8)

    def test_empty_input(self):
        ds, _, _ = one_event_dataset([100.0] * 10)
        with pytest.raises(EmptyClass):
            trade_return_curves([], ds)


def negative_tweets(ticker, when):
    return TweetBucket(ticker, when, n_neg=30, n_neut=5, n_pos=1)


class TestRunStrategy:
    def test_no_negative_events_means_flat_equity(self):
        # all-positive tweets keep the score above the negative cut
        tweets = [TweetBucket("AAA", eastern(2015, 6, 2, 10, 0), 0, 0, 20)]
        ds, cal, ev = one_event_dataset([100.0] * 10, tweets=tweets)
        ledger = run_strategy(ds, LOOSE_TH)
        assert ledger.trades == ()
        assert all(v == 1.0 for _, v in ledger.equity)

    def test_single_trade_toy_equity(self):
        # day -1 = 6/2 close 100, day 0 = 6/3 close 95
        closes = [100.0, 100.0, 95.0] + [95.0] * 7
        tweets = [negative_tweets("AAA", eastern(2015, 6, 2, 10, 0))]
        ds, cal, ev = one_event_dataset(closes, tweets=tweets)
        ledger = run_strategy(ds, LOOSE_TH, spread=0.05)
        assert len(ledger.trades) == 1
        trade = ledger.trades[0]
        assert trade.open_date == date(2015, 6, 2)
        assert trade.close_date == date(2015, 6, 3)
        assert trade.net_return == 0.0495
        assert ledger.final_equity == 1.0495

    def test_zero_spread_single_trade_is_negated_rt0(self):
        closes = [100.0, 102.0, 97.0, 98.0, 99.0, 100.0, 101.0, 96.0, 95.0, 94.0]
        tweets = [negative_tweets("AAA", eastern(2015, 6, 2, 10, 0))]
        ds, cal, ev = one_event_dataset(closes, tweets=tweets)
        ledger = run_strategy(ds, LOOSE_TH, spread=0.0)
        anchor = anchor_event(ev, cal)
        rt0 = trading_return(anchor, close_prices(ds, "AAA"), 0)
        assert ledger.final_equity - 1.0 == pytest.approx(-rt0, abs=1e-15)

    def test_benchmark_normalized_to_one(self):
        ds, cal, ev = one_event_dataset([100.0] * 10)
        ledger = run_strategy(ds, LOOSE_TH)
        assert ledger.benchmark[0][1] == 1.0
        last_date, last_val = ledger.benchmark[-1]
        assert last_val == pytest.approx(1009.0 / 1000.0, abs=1e-15)

    def test_equity_piecewise_constant_between_trades(self):
        closes = [100.0, 100.0, 95.0] + [95.0] * 7
        tweets = [negative_tweets("AAA", eastern(2015, 6, 2, 10, 0))]
        ds, cal, ev = one_event_dataset(closes, tweets=tweets)
        ledger = run_strategy(ds, LOOSE_TH)
        values = [v for _, v in ledger.equity]
        assert values[0] == 1.0  # 6/1, before the trade settles
        assert values[1] == 1.0  # 6/2, trade opens at the close
        assert all(v == 1.0495 for v in values[2:])

    def test_same_day_events_split_capital(self):
        cal = make_calendar(date(2015, 6, 1), 10)
        bars_a = bars_from_closes("AAA", cal.dates, [100.0, 100.0] + [90.0] * 8)
        bars_b = bars_from_closes("BBB", cal.dates, [50.0, 50.0] + [55.0] * 8)
        idx = index_from_closes(cal.dates, [1000.0] * 10)
        ev_a = make_event("AAA", eastern(2015, 6, 2, 17, 0), Timing.AFTER_CLOSE)
        ev_b = make_event("BBB", eastern(2015, 6, 2, 16, 30), Timing.AFTER_CLOSE)
        tweets = [
            negative_tweets("AAA", eastern(2015, 6, 2, 10, 0)),
            negative_tweets("BBB", eastern(2015, 6, 2, 11, 0)),
        ]
        ds = make_dataset(bars=bars_a + bars_b, index=idx, tweets=tweets,
                          events=[ev_a, ev_b])
        ledger = run_strategy(ds, LOOSE_TH, spread=0.0)
        assert len(ledger.trades) == 2
        r_a = (100.0 - 90.0) / 100.0
        r_b = (50.0 - 55.0) / 50.0
        assert ledger.final_equity == pytest.approx(1.0 + (r_a + r_b) / 2, abs=1e-15)

    def test_reruns_identical(self):
        closes = [100.0, 100.0, 95.0] + [94.0] * 7
        tweets = [negative_tweets("AAA", eastern(2015, 6, 2, 10, 0))]
        ds, cal, ev = one_event_dataset(closes, tweets=tweets)
        a = run_strategy(ds, LOOSE_TH)
        b = run_strategy(ds, LOOSE_TH)
        assert a == b

    def test_missing_close_bar_skips_with_diagnostic(self):
        # bars stop at day -1, so the cover price is missing
        cal = make_calendar(date(2015, 6, 1), 10)
        bars = bars_from_closes("AAA", cal.dates[:2], [100.0, 100.0])
        idx = index_from_closes(cal.dates, [1000.0] * 10)
        ev = make_event("AAA", eastern(2015, 6, 2, 17, 0), Timing.AFTER_CLOSE)
        tweets = [negative_tweets("AAA", eastern(2015, 6, 2, 10, 0))]
        ds = make_dataset(bars=bars, index=idx, tweets=tweets, events=[ev])
        ledger = run_strategy(ds, LOOSE_TH)
        assert ledger.trades == ()
        assert len(ledger.skipped) == 1
        assert "MissingBar" in ledger.skipped[0][2]

    def test_date_range_filter(self):
        closes = [100.0, 100.0, 95.0] + [94.0] * 7
        tweets = [negative_tweets("AAA", eastern(2015, 6, 2, 10, 0))]
        ds, cal, ev = one_event_dataset(closes, tweets=tweets)
        ledger = run_strategy(ds, LOOSE_TH, start=date(2015, 6, 4), end=date(2015, 6, 10))
        assert ledger.trades == ()  # event's open date precedes the range
        assert ledger.final_equity == 1.0


class TestBacktestEventPolicy:
    """The backtest's candidates are every AfterClose event of the dataset,
    not the universe's: it trades an event the universe drops for no day-0
    tweets and one announced after the threshold sample's end, and it names
    an event it cannot anchor by the anchoring error, where the universe
    drops that event as not anchorable."""

    @staticmethod
    def dataset():
        cal = make_calendar(date(2015, 6, 1), 12)
        tickers = ("AAA", "BBB", "CCC", "DDD", "EEE", "FFF")
        bars = sum((bars_from_closes(t, cal.dates, [100.0 + (i * 7 + k) % 5 for i in range(12)])
                    for k, t in enumerate(tickers)), ())
        idx = index_from_closes(cal.dates, [1000.0 + i for i in range(12)])
        # (ticker, announcement day and hour, day -1 counts, day-0 counts)
        plan = [
            ("AAA", (2, 17), (30, 0, 0), None),  # negative, no day-0 tweets
            ("BBB", (2, 15), (30, 0, 0), (1, 1, 1)),  # AfterClose before 16:00
            ("CCC", (3, 17), (0, 0, 20), (1, 1, 1)),
            ("DDD", (3, 17), (0, 10, 0), (1, 1, 1)),
            ("EEE", (4, 17), (5, 0, 0), (1, 1, 1)),
            ("FFF", (10, 17), (30, 0, 0), (1, 1, 1)),  # after the sample's end
        ]
        events, tweets = [], []
        for ticker, (day, hour), day_m1, day0 in plan:
            events.append(make_event(ticker, eastern(2015, 6, day, hour), Timing.AFTER_CLOSE))
            tweets.append(TweetBucket(ticker, eastern(2015, 6, day, 10), *day_m1))
            if day0 is not None:  # day 0 is the next trading day
                tweets.append(TweetBucket(ticker, eastern(2015, 6, day + 1, 10), *day0))
        return make_dataset(bars=bars, index=idx, tweets=tweets, events=events)

    def test_candidates_and_reasons(self):
        ds = self.dataset()
        bbb = next(ev for ev in records(ds.events) if ev.ticker == "BBB")
        why = f"BBB {bbb.announce_at.isoformat()}: AfterClose but before 16:00"
        sample = build_universe(ds, until=date(2015, 6, 5))
        assert np.count_nonzero(sample.used) == 3  # CCC, DDD and EEE: see the cuts below
        assert [(t, r) for t, _, r in sample.dropped] == [
            ("AAA", "no day-0 tweets"), ("BBB", f"not anchorable: {why}"),
        ]
        assert build_universe(ds).until(date(2015, 6, 5)).dropped == sample.dropped
        thresholds, n = stratum_thresholds(sample, Timing.AFTER_CLOSE, -1)
        assert n == 3 and thresholds.t_low == -5 / 8

        ledger = run_strategy(ds, thresholds)
        assert [(t.ticker, t.open_date, t.close_date) for t in ledger.trades] == [
            ("AAA", date(2015, 6, 2), date(2015, 6, 3)),
            ("EEE", date(2015, 6, 4), date(2015, 6, 5)),
            ("FFF", date(2015, 6, 10), date(2015, 6, 11)),
        ]
        assert [(t, r) for t, _, r in ledger.skipped] == [
            ("BBB", f"NonTradingAnnouncement: {why}"),
        ]


def walked_equity(trades, dates):
    """The equity as a walk over the trading days with the trades grouped by
    close date: a day with trades multiplies the value by one plus their mean
    net return, summed in trade order, and a wipe-out leaves 0."""
    by_close = {}
    for t in trades:
        by_close.setdefault(t.close_date, []).append(t)
    value = 1.0
    equity = []
    for d in dates:
        group = by_close.get(d)
        if group:
            value = max(0.0, value * (1.0 + sum(t.net_return for t in group) / len(group)))
        equity.append((d, value))
    return equity


N_DAYS = 8
# a close of 1.0 before one of 2.5 or more, or 10.0 before 40.0, loses more
# than a short's equity
CLOSES = st.lists(st.one_of(st.sampled_from([1.0, 2.5, 10.0, 40.0]), st.floats(1.0, 100.0)),
                  min_size=N_DAYS, max_size=N_DAYS)
# per day: 0 no announcement; 1 or 2 an AfterClose one with negative or
# positive day -1 tweets, so shorted or not
SIGNALS = st.lists(st.sampled_from([0, 1, 1, 2]), min_size=N_DAYS - 1, max_size=N_DAYS - 1)
# three trades close on day 1 and wipe the equity out, three more on day 4
WIPE_OUT = [
    ([10.0, 40.0, 40.0, 40.0, 10.0, 10.0, 10.0, 10.0], [1, 0, 0, 1, 0, 0, 0]),
    ([20.0, 20.0, 20.0, 20.0, 25.0, 10.0, 10.0, 10.0], [1, 0, 0, 1, 0, 0, 0]),
    ([5.0, 5.0, 5.0, 5.0, 4.5, 4.0, 4.0, 4.0], [1, 0, 0, 1, 2, 0, 0]),
]


def strategy_ledger(tickers, spread, first, last):
    """The ledger over calendar days first..last of one ticker per
    (closes, signals) pair; signal k announces after the close of day k."""
    cal = make_calendar(date(2015, 6, 1), N_DAYS)
    bars, tweets, events = [], [], []
    for name, (closes, signals) in zip(("AAA", "BBB", "CCC", "DDD", "EEE"), tickers):
        bars += bars_from_closes(name, cal.dates, closes)
        for d, signal in zip(cal.dates, signals):
            if signal:
                events.append(make_event(name, eastern(d.year, d.month, d.day, 17),
                                         Timing.AFTER_CLOSE))
                tweets.append(TweetBucket(name, eastern(d.year, d.month, d.day, 10),
                                          *((30, 5, 1) if signal == 1 else (0, 0, 20))))
    ds = make_dataset(bars=bars, index=index_from_closes(cal.dates, [1000.0] * N_DAYS),
                      tweets=tweets, events=events)
    ledger = run_strategy(ds, LOOSE_TH, spread=spread, start=cal.dates[first],
                          end=cal.dates[last])
    return ledger, cal.dates[first:last + 1]


class TestEquityCompounding:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(tickers=st.lists(st.tuples(CLOSES, SIGNALS), min_size=1, max_size=5),
           spread=st.sampled_from([0.0, 0.05, 0.5]), first=st.integers(0, 2),
           last=st.integers(N_DAYS - 3, N_DAYS - 1))
    @example(tickers=WIPE_OUT, spread=0.05, first=0, last=N_DAYS - 1)
    def test_equity_is_the_walk_by_close_day_bit_for_bit(self, tickers, spread, first, last):
        ledger, dates = strategy_ledger(tickers, spread, first, last)
        assert [(d, v.hex()) for d, v in ledger.equity] == [
            (d, v.hex()) for d, v in walked_equity(ledger.trades, dates)]
        assert [t.net_return.hex() for t in ledger.trades] == [
            Trade.net(t.open_price, t.close_price, t.spread).hex() for t in ledger.trades]

    def test_the_wipe_out_example_holds_every_case(self):
        ledger, dates = strategy_ledger(WIPE_OUT, 0.05, 0, N_DAYS - 1)
        closing = Counter(t.close_date for t in ledger.trades)
        assert closing == {dates[1]: 3, dates[4]: 3}  # several a day, most days none
        assert [v for _, v in ledger.equity] == [1.0] + [0.0] * (N_DAYS - 1)

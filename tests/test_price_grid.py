"""The calendar-index kernels against the day-by-day lookups they replaced.

The reference functions below walk the calendar date by date over
``{date: return}`` and ``{date: close}`` maps. The grid kernels must give
the same fits, abnormal returns, hold returns and skip reasons, bit for bit,
on random bar gaps and events near both ends of the calendar.
"""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eastudy.alignment import EventAnchor, anchor_event
from eastudy.errors import (
    DegenerateRegressor,
    InsufficientHistory,
    InvariantViolation,
    MissingBar,
    OutOfCalendarRange,
)
from eastudy.event_study import (
    EventFits,
    LabeledEvent,
    MarketModelFit,
    StudyConfig,
    abnormal_returns,
    aggregate_study,
    fit_events,
    fit_market_model,
)
from eastudy.model import DailyBar, Dataset, Timing
from eastudy.returns import daily_returns, trading_return
from eastudy.sentiment import EventPolarity
from eastudy.trading import EventHolds, hold_returns

from conftest import (
    anchor_columns,
    as_dict,
    bar_columns,
    bars_of,
    IndexBar,
    close_prices,
    eastern,
    index_columns,
    make_calendar,
    make_dataset,
    make_event,
    records,
    tweet_columns,
)

# --- reference: the per-date walk ------------------------------------------


def ref_calendar_aligned_returns(bars, cal):
    out = {}
    for prev, cur in zip(bars, bars[1:]):
        if cal.next_after(prev.date) == cur.date:
            out[cur.date] = (cur.close - prev.close) / prev.close
    return out


def ref_fit_market_model(stock_returns, index_returns, anchor, cfg):
    cal = anchor.calendar
    end_idx = cal.index_of(anchor.day0) + cfg.event_window[0] - 1
    window = []
    i = end_idx
    while i >= 0 and len(window) < cfg.estimation_window_length:
        d = cal.date_at(i)
        if d in stock_returns and d in index_returns:
            window.append(d)
        i -= 1
    if len(window) < cfg.estimation_window_length:
        raise InsufficientHistory(
            f"{anchor.event.ticker}: {len(window)} paired returns before the "
            f"event window, need {cfg.estimation_window_length}"
        )
    window.reverse()
    x = np.array([index_returns[d] for d in window])
    y = np.array([stock_returns[d] for d in window])
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise DegenerateRegressor("index returns are constant over the window")
    beta = float(xc @ (y - y.mean())) / sxx
    alpha = float(y.mean() - beta * x.mean())
    resid = y - (alpha + beta * x)
    n = len(window)
    sigma2 = float(resid @ resid) / (n - 2)
    return MarketModelFit(alpha=alpha, beta=beta, sigma2_eps=sigma2, n_obs=n)


def ref_abnormal_returns(fit, anchor, stock_returns, index_returns, cfg):
    ars = []
    for tau in cfg.taus:
        try:
            d = anchor.day(tau)
        except OutOfCalendarRange:
            raise MissingBar(
                f"{anchor.event.ticker}: calendar ends before relative day {tau}"
            ) from None
        if d not in stock_returns or d not in index_returns:
            raise MissingBar(f"{anchor.event.ticker}: no return on {d}")
        ars.append(stock_returns[d] - fit.expected(index_returns[d]))
    return tuple(ars)


def ref_fit_events(anchors, ds, cfg):
    index_returns = as_dict(daily_returns(records(ds.index)))
    stock_returns = {}
    ars = np.full((len(anchors), len(cfg.taus)), np.nan)
    sigma2 = np.full(len(anchors), np.nan)
    skips = [None] * len(anchors)
    for i, anchor in enumerate(anchors):
        if anchor is None:
            continue
        ticker = anchor.event.ticker
        if ticker not in stock_returns:
            bars = bars_of(ds, ticker)
            if len(bars) < 2:
                skips[i] = "no price history"
                continue
            stock_returns[ticker] = ref_calendar_aligned_returns(bars, anchor.calendar)
        try:
            fit = ref_fit_market_model(stock_returns[ticker], index_returns, anchor, cfg)
            ars[i] = ref_abnormal_returns(fit, anchor, stock_returns[ticker], index_returns, cfg)
        except (InsufficientHistory, MissingBar, DegenerateRegressor, OutOfCalendarRange) as exc:
            skips[i] = f"{type(exc).__name__}: {exc}"
            continue
        sigma2[i], skips[i] = fit.sigma2_eps, ""
    return EventFits(ars, sigma2, tuple(skips))


def ref_trading_return(anchor, prices, d):
    base_date = anchor.day(-1)
    end_date = anchor.day(d)
    try:
        base = prices[base_date]
        end = prices[end_date]
    except KeyError as exc:
        raise MissingBar(f"{anchor.event.ticker}: no closing price on {exc.args[0]}") from None
    return (end - base) / base


def ref_hold_returns(anchors, ds, max_d):
    days = range(max_d + 1)
    index_closes = {b.date: b.close for b in records(ds.index)}
    stock = np.full((len(anchors), max_d + 1), np.nan)
    index = np.full(stock.shape, np.nan)
    skips = [None] * len(anchors)
    for i, anchor in enumerate(anchors):
        if anchor is None:
            continue
        prices = close_prices(ds, anchor.event.ticker)
        try:
            rt_stock = [ref_trading_return(anchor, prices, d) for d in days]
            rt_index = [ref_trading_return(anchor, index_closes, d) for d in days]
        except (MissingBar, OutOfCalendarRange) as exc:
            skips[i] = f"{type(exc).__name__}: {exc}"
            continue
        stock[i], index[i], skips[i] = rt_stock, rt_index, ""
    return EventHolds(stock, index, tuple(skips))


def rows(result):
    """Every column of a per-event result, as comparable Python values."""
    return [c if isinstance(c, tuple) else c.tolist() for c in vars(result).values()]


def outcome(fn, *args):
    """A call's result, or its exception's type and message: either way comparable."""
    try:
        return fn(*args)
    except (InsufficientHistory, MissingBar, DegenerateRegressor, OutOfCalendarRange) as exc:
        return type(exc).__name__, str(exc)


# --- random datasets with gaps ----------------------------------------------

TICKERS = ("AAA", "BBB", "NOB")  # NOB never has bars
closes = st.floats(min_value=1.0, max_value=1000.0)


@st.composite
def scenarios(draw):
    n_days = draw(st.integers(min_value=8, max_value=30))
    cal = make_calendar(date(2015, 6, 1), n_days)
    levels = draw(st.lists(closes, min_size=n_days, max_size=n_days))
    if draw(st.integers(0, 9)) == 0:  # a flat index: every regressor is constant
        levels = levels[:1] * n_days
    index = [IndexBar(d, c) for d, c in zip(cal.dates, levels)]
    bars = []
    for ticker in TICKERS[:2]:
        # mostly present: a bar is missing on about one day in five
        present = draw(st.lists(st.integers(0, 4), min_size=n_days, max_size=n_days))
        prices = draw(st.lists(closes, min_size=n_days, max_size=n_days))
        bars += [DailyBar(ticker, d, c, 100 + i) for i, (d, c, p) in
                 enumerate(zip(cal.dates, prices, present)) if p]
    events = []
    for ticker, day0 in draw(st.lists(
            st.tuples(st.sampled_from(TICKERS), st.integers(1, n_days - 1)),
            min_size=1, max_size=8, unique=True)):
        announce = cal.dates[day0 - 1]
        events.append(make_event(ticker, eastern(announce.year, announce.month,
                                                 announce.day, 17, 0), Timing.AFTER_CLOSE))
    w0 = draw(st.integers(-1, 4))
    cfg = StudyConfig(event_window=(w0, w0 + draw(st.integers(0, 6))),
                      estimation_window_length=draw(st.integers(3, 8)))
    ds = make_dataset(bars=bars, index=index, events=events)
    # an event left out (None) is not measured
    anchors = [anchor_event(ev, cal) if draw(st.integers(0, 4)) else None
               for ev in records(ds.events)]
    return ds, cal, anchors, cfg, draw(st.integers(0, 6))


class TestKernelsMatchTheDateWalk:
    @settings(max_examples=150)
    @given(scenarios())
    def test_fits_ars_holds_and_skips(self, scenario):
        ds, cal, anchors, cfg, max_d = scenario
        columns = anchor_columns(anchors, ds)
        got, want = fit_events(*columns, cfg), ref_fit_events(anchors, ds, cfg)
        assert repr(rows(got)) == repr(rows(want))
        got = hold_returns(*columns, max_d)
        want = ref_hold_returns(anchors, ds, max_d)
        assert repr(rows(got)) == repr(rows(want))

    @settings(max_examples=75)
    @given(scenarios())
    def test_mapping_adapters(self, scenario):
        ds, cal, anchors, cfg, max_d = scenario
        index_returns = as_dict(daily_returns(records(ds.index)))
        index_closes = {b.date: b.close for b in records(ds.index)}
        for a in filter(None, anchors):
            bars = bars_of(ds, a.event.ticker)
            stock = ref_calendar_aligned_returns(bars, cal)
            fit = outcome(fit_market_model, stock, index_returns, a, cfg)
            assert repr(fit) == repr(outcome(ref_fit_market_model, stock, index_returns, a, cfg))
            if isinstance(fit, MarketModelFit):
                assert repr(outcome(abnormal_returns, fit, a, stock, index_returns, cfg)) == repr(
                    outcome(ref_abnormal_returns, fit, a, stock, index_returns, cfg))
            for prices in (close_prices(ds, a.event.ticker), index_closes):
                for d in range(max_d + 1):
                    assert repr(outcome(trading_return, a, prices, d)) == repr(
                        outcome(ref_trading_return, a, prices, d))


class TestHoldReturnsAtTheGatherEdges:
    """One event at an edge of the per-offset gather: its RT_d, or its first
    error's type and text, match the date walk, in ``hold_returns`` and in
    ``trading_return`` at each d."""

    N_DAYS = 12

    @pytest.mark.parametrize("day0, holes, max_d", [
        (0, (), 3),  # day -1 off the calendar
        (0, (2,), 3),  # and a hole after it
        (9, (), 4),  # day0 + max_d past the last day
        (11, (), 0),  # day 0 the last day
        (11, (), 1),
        (5, (4,), 3),  # a hole at day -1
        (5, (7,), 3),  # a hole at d = 2
        (5, (4, 7), 3),  # both: day -1's comes first
        (9, (8,), 4),  # a hole at day -1, and max_d past the last day
        (9, (11,), 4),  # a hole at d = 2, then past the last day
        (5, (), 6),  # served
    ])
    def test_matches_the_date_walk(self, day0, holes, max_d):
        cal = make_calendar(date(2015, 6, 1), self.N_DAYS)
        index = [IndexBar(d, 1000.0 + 7 * i) for i, d in enumerate(cal.dates)]
        bars = [DailyBar("AAA", d, 10.0 + i, 100) for i, d in enumerate(cal.dates)
                if i not in holes]
        ev = make_event("AAA", eastern(2015, 5, 29, 17, 0), Timing.AFTER_CLOSE)
        ds = make_dataset(bars=bars, index=index, events=[ev])
        anchor = EventAnchor(ev, cal, cal.dates[day0])  # by hand: day 0 may be index 0
        got = hold_returns(*anchor_columns([anchor], ds), max_d)
        want = ref_hold_returns([anchor], ds, max_d)
        assert repr(rows(got)) == repr(rows(want))
        prices = close_prices(ds, "AAA")
        for d in range(max_d + 1):
            assert repr(outcome(trading_return, anchor, prices, d)) == repr(
                outcome(ref_trading_return, anchor, prices, d))


class TestGridRefusesWhatItCannotHold:
    """Hand-built datasets the calendar grid cannot represent as the bars say
    are refused, never read differently."""

    @staticmethod
    def dataset(bars, index_days=10, cal_days=10):
        """A dataset of ``bars`` and one AAA event, and the event's anchor."""
        cal = make_calendar(date(2015, 6, 1), cal_days)
        index = [IndexBar(d, 1000.0 + i) for i, d in enumerate(cal.dates[:index_days])]
        ev = make_event("AAA", eastern(2015, 6, 2, 17, 0), Timing.AFTER_CLOSE)
        ds = Dataset(bars=bar_columns(bars), index=index_columns(index), tweets=tweet_columns(()),
                     events=(ev,))
        return ds, anchor_event(ev, cal)

    def fit(self, bars):
        ds, anchor = self.dataset(bars)
        return fit_events(*anchor_columns([anchor], ds), StudyConfig(estimation_window_length=3))

    def test_bar_on_a_non_trading_date(self):
        saturday = date(2015, 6, 6)
        with pytest.raises(InvariantViolation, match="2015-06-06 is not a trading date"):
            self.fit([DailyBar("AAA", date(2015, 6, 5), 10.0, 1),
                      DailyBar("AAA", saturday, 11.0, 1)])

    def test_bars_out_of_order_or_repeated(self):
        d1, d2 = date(2015, 6, 1), date(2015, 6, 2)
        for bars in ([(d2, 10.0), (d1, 11.0)], [(d1, 10.0), (d1, 11.0)]):
            with pytest.raises(InvariantViolation, match="out of date order or repeated"):
                self.fit([DailyBar("AAA", d, c, 1) for d, c in bars])

    @pytest.mark.parametrize("close", [0.0, -1.0, float("nan"), float("inf")])
    def test_close_not_a_positive_number(self, close):
        with pytest.raises(InvariantViolation, match="positive number"):
            self.fit([DailyBar("AAA", date(2015, 6, 1), 10.0, 1),
                      DailyBar("AAA", date(2015, 6, 2), close, 1)])

    def test_events_on_another_calendar(self):
        bars = [DailyBar("AAA", date(2015, 6, 1) + timedelta(days=i), 10.0, 1) for i in range(3)]
        ds, anchor = self.dataset(bars, index_days=8)
        labeled = [LabeledEvent(anchor.event, anchor, EventPolarity.NEUTRAL)]
        with pytest.raises(ValueError, match="calendar the index implies"):
            aggregate_study(labeled, ds, StudyConfig(estimation_window_length=3))

    def test_interleaved_tickers_are_fine(self):
        d1, d2 = date(2015, 6, 1), date(2015, 6, 2)
        bars = [DailyBar("AAA", d1, 10.0, 1), DailyBar("BBB", d1, 5.0, 1),
                DailyBar("AAA", d2, 11.0, 1), DailyBar("BBB", d2, 6.0, 1)]
        fits = self.fit(bars)
        assert np.isnan(fits.sigma2).all() and "InsufficientHistory" in fits.skips[0]

from datetime import date
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eastudy.alignment import anchor_event
from eastudy.errors import GapInSeries, MissingBar, ZeroEstimate
from eastudy.model import Timing
from eastudy.returns import daily_returns, earnings_surprise, trading_return

from conftest import as_dict, bars_from_closes, eastern, make_calendar, make_event

prices = st.floats(min_value=1.0, max_value=10_000.0)


class TestDailyReturns:
    def test_one_percent_move(self, week_calendar):
        bars = bars_from_closes("AAA", week_calendar.dates[:2], [100.0, 101.0])
        series = daily_returns(bars)
        assert series.values == (0.01,)
        assert series.dates == (week_calendar.dates[1],)

    def test_flat_prices(self, week_calendar):
        bars = bars_from_closes("AAA", week_calendar.dates[:2], [100.0, 100.0])
        assert daily_returns(bars).values == (0.0,)

    def test_direct_evaluation(self, week_calendar):
        bars = bars_from_closes("AAA", week_calendar.dates[:3], [80.0, 100.0, 90.0])
        assert daily_returns(bars).values == (0.25, -0.10)

    def test_constant_series_is_zero(self, week_calendar):
        bars = bars_from_closes("AAA", week_calendar.dates, [55.5] * 10)
        assert all(v == 0.0 for v in daily_returns(bars).values)

    def test_gap_detection_needs_calendar(self, week_calendar):
        dates = [week_calendar.dates[0], week_calendar.dates[2]]
        bars = bars_from_closes("AAA", dates, [100.0, 101.0])
        daily_returns(bars)  # no calendar: gap not checked
        with pytest.raises(GapInSeries):
            daily_returns(bars, week_calendar)

    def test_too_few_bars(self, week_calendar):
        bars = bars_from_closes("AAA", week_calendar.dates[:1], [100.0])
        with pytest.raises(ValueError):
            daily_returns(bars)

    @pytest.mark.parametrize(
        "closes",
        [[100.0, 101.0], [100.0, 100.0], [80.0, 100.0, 90.0], [2.5, 5.0],
         [10.0, 1.0], [3.0, 4.0, 6.0], [50.0, 25.0, 75.0], [1.0, 1.5, 0.75],
         [400.0, 500.0], [7.0, 7.7, 8.47]],
    )
    def test_matches_exact_rational(self, closes, week_calendar):
        bars = bars_from_closes("AAA", week_calendar.dates[: len(closes)], closes)
        got = daily_returns(bars).values
        for r, (prev, cur) in zip(got, zip(closes, closes[1:])):
            exact = (Fraction(cur) - Fraction(prev)) / Fraction(prev)
            assert abs(r - float(exact)) <= 1e-12


class TestTradingReturn:
    def _anchor(self, cal):
        ev = make_event("AAA", eastern(2015, 6, 2, 17, 0), Timing.AFTER_CLOSE)
        return anchor_event(ev, cal)  # day0 = Wed 6/3, day -1 = Tue 6/2

    def test_day_zero(self, week_calendar):
        anchor = self._anchor(week_calendar)
        prices = {date(2015, 6, 2): 100.0, date(2015, 6, 3): 104.0}
        assert trading_return(anchor, prices, 0) == 0.04

    def test_multi_day(self, week_calendar):
        anchor = self._anchor(week_calendar)
        prices = {
            date(2015, 6, 2): 100.0,
            date(2015, 6, 3): 104.0,
            date(2015, 6, 4): 102.0,
        }
        assert trading_return(anchor, prices, 1) == pytest.approx(0.02, abs=1e-15)

    def test_missing_bar(self, week_calendar):
        anchor = self._anchor(week_calendar)
        with pytest.raises(MissingBar):
            trading_return(anchor, {date(2015, 6, 2): 100.0}, 0)

    def test_negative_d_rejected(self, week_calendar):
        anchor = self._anchor(week_calendar)
        with pytest.raises(ValueError):
            trading_return(anchor, {}, -1)

    @given(st.lists(prices, min_size=9, max_size=9))
    def test_composes_with_daily_returns(self, closes):
        cal = make_calendar(date(2015, 6, 1), 10)
        bars = bars_from_closes("AAA", cal.dates[:9], closes)
        by_date = {b.date: b.close for b in bars}
        ev = make_event("AAA", eastern(2015, 6, 2, 17, 0), Timing.AFTER_CLOSE)
        anchor = anchor_event(ev, cal)
        daily = as_dict(daily_returns(bars))
        for d in range(0, 6):
            rt = trading_return(anchor, by_date, d)
            product = 1.0
            for k in range(0, d + 1):
                product *= 1.0 + daily[anchor.day(k)]
            assert 1.0 + rt == pytest.approx(product, rel=1e-12)


class TestEarningsSurprise:
    def test_positive_surprise(self):
        ev = make_event("AAA", eastern(2015, 6, 2, 17, 0), Timing.AFTER_CLOSE, 1.05, 1.00)
        assert earnings_surprise(ev).es == pytest.approx(0.05, abs=1e-15)

    def test_no_surprise(self):
        ev = make_event("AAA", eastern(2015, 6, 2, 17, 0), Timing.AFTER_CLOSE, 1.0, 1.0)
        assert earnings_surprise(ev).es == 0.0

    def test_negative_surprise(self):
        ev = make_event("AAA", eastern(2015, 6, 2, 17, 0), Timing.AFTER_CLOSE, 0.95, 1.00)
        assert earnings_surprise(ev).es == pytest.approx(-0.05, abs=1e-15)

    def test_zero_estimate(self):
        ev = make_event("AAA", eastern(2015, 6, 2, 17, 0), Timing.AFTER_CLOSE, 1.0, 0.0)
        with pytest.raises(ZeroEstimate):
            earnings_surprise(ev)

    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=0.1, max_value=5),
        st.floats(min_value=0.1, max_value=7),
    )
    def test_scale_invariance(self, rep, est, scale):
        ev1 = make_event("AAA", eastern(2015, 6, 2, 17, 0), Timing.AFTER_CLOSE, rep, est)
        ev2 = make_event("AAA", eastern(2015, 6, 2, 17, 0), Timing.AFTER_CLOSE,
                         rep * scale, est * scale)
        assert earnings_surprise(ev1).es == pytest.approx(earnings_surprise(ev2).es, rel=1e-9)

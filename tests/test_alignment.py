from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from eastudy.alignment import (
    TradingCalendar,
    anchor_event,
    close_instant,
)
from eastudy.errors import NonTradingAnnouncement, OutOfCalendarRange
from eastudy.model import Timing

from conftest import eastern, make_calendar, make_event


class TestCloseDelimitedDay:
    def test_inside_trading_day(self, week_calendar):
        # Tuesday 15:59 US/Eastern belongs to that Tuesday
        assert week_calendar.close_delimited_day(eastern(2015, 6, 2, 15, 59)) == date(2015, 6, 2)

    def test_exactly_at_close_belongs_to_closing_day(self, week_calendar):
        assert week_calendar.close_delimited_day(eastern(2015, 6, 2, 16, 0, 0)) == date(2015, 6, 2)

    def test_after_close_rolls_to_next_day(self, week_calendar):
        assert week_calendar.close_delimited_day(eastern(2015, 6, 2, 16, 1)) == date(2015, 6, 3)
        assert week_calendar.close_delimited_day(eastern(2015, 6, 2, 16, 0, 1)) == date(2015, 6, 3)

    def test_weekend_maps_to_monday(self, week_calendar):
        assert week_calendar.close_delimited_day(eastern(2015, 6, 6, 12, 0)) == date(2015, 6, 8)

    def test_friday_evening_maps_to_monday(self, week_calendar):
        assert week_calendar.close_delimited_day(eastern(2015, 6, 5, 18, 0)) == date(2015, 6, 8)

    def test_holiday_skipped(self):
        cal = make_calendar(date(2015, 6, 1), 8, skip={date(2015, 6, 3)})
        # Wednesday is a holiday: Tuesday evening rolls to Thursday
        assert cal.close_delimited_day(eastern(2015, 6, 2, 17, 0)) == date(2015, 6, 4)

    def test_out_of_range(self, week_calendar):
        with pytest.raises(OutOfCalendarRange):
            week_calendar.close_delimited_day(eastern(2015, 6, 12, 16, 1))
        with pytest.raises(OutOfCalendarRange):
            # at/before the virtual previous close (Sun 2015-05-31 16:00)
            week_calendar.close_delimited_day(eastern(2015, 5, 31, 16, 0))
        with pytest.raises(OutOfCalendarRange):
            week_calendar.close_delimited_day(eastern(2015, 5, 31, 12, 0))

    def test_first_day_coverage_starts_after_virtual_close(self, week_calendar):
        assert week_calendar.close_delimited_day(eastern(2015, 5, 31, 16, 1)) == date(2015, 6, 1)

    def test_naive_timestamp_rejected(self, week_calendar):
        with pytest.raises(ValueError):
            week_calendar.close_delimited_day(datetime(2015, 6, 2, 12, 0))

    def test_dst_boundary_is_wall_clock(self):
        # 2015-03-06 is EST (close 21:00 UTC); 2015-03-09 is EDT (close 20:00 UTC)
        cal = make_calendar(date(2015, 3, 2), 10)
        est_day = datetime(2015, 3, 6, 20, 30, tzinfo=timezone.utc)
        assert cal.close_delimited_day(est_day) == date(2015, 3, 6)
        edt_day = datetime(2015, 3, 9, 20, 30, tzinfo=timezone.utc)
        assert cal.close_delimited_day(edt_day) == date(2015, 3, 10)


class TestPartitionProperty:
    @given(st.integers(min_value=0, max_value=14 * 24 * 3600 - 1))
    def test_every_instant_assigned_exactly_once(self, offset):
        cal = make_calendar(date(2015, 6, 1), 10)
        base = close_instant(date(2015, 5, 31))
        instant = base + timedelta(seconds=1 + offset)
        if instant > close_instant(cal.dates[-1]):
            with pytest.raises(OutOfCalendarRange):
                cal.close_delimited_day(instant)
            return
        day = cal.close_delimited_day(instant)
        # brute-force interval oracle
        claims = []
        prev = date(2015, 5, 31)
        for d in cal.dates:
            if close_instant(prev) < instant <= close_instant(d):
                claims.append(d)
            prev = d
        assert claims == [day]

    def test_preimages_contiguous(self, week_calendar):
        # walking one second across a close boundary changes the day by one step
        boundary = close_instant(date(2015, 6, 2))
        before = week_calendar.close_delimited_day(boundary)
        after = week_calendar.close_delimited_day(boundary + timedelta(seconds=1))
        i, j = week_calendar.index_of(before), week_calendar.index_of(after)
        assert j == i + 1


class TestAnchorEvent:
    def test_afterclose_thursday_evening(self, week_calendar):
        ev = make_event("AAA", eastern(2015, 6, 4, 17, 30), Timing.AFTER_CLOSE)
        anchor = anchor_event(ev, week_calendar)
        assert anchor.day0 == date(2015, 6, 5)
        assert anchor.day(-1) == date(2015, 6, 4)

    def test_beforeopen_monday_morning(self, week_calendar):
        ev = make_event("AAA", eastern(2015, 6, 8, 8, 0), Timing.BEFORE_OPEN)
        anchor = anchor_event(ev, week_calendar)
        assert anchor.day0 == date(2015, 6, 8)
        assert anchor.day(-1) == date(2015, 6, 5)

    def test_afterclose_friday_rolls_over_weekend(self, week_calendar):
        ev = make_event("AAA", eastern(2015, 6, 5, 18, 0), Timing.AFTER_CLOSE)
        assert anchor_event(ev, week_calendar).day0 == date(2015, 6, 8)

    def test_afterclose_at_exactly_close(self, week_calendar):
        ev = make_event("AAA", eastern(2015, 6, 4, 16, 0, 0), Timing.AFTER_CLOSE)
        assert anchor_event(ev, week_calendar).day0 == date(2015, 6, 5)

    def test_afterclose_before_close_rejected(self, week_calendar):
        ev = make_event("AAA", eastern(2015, 6, 4, 15, 59), Timing.AFTER_CLOSE)
        with pytest.raises(NonTradingAnnouncement):
            anchor_event(ev, week_calendar)

    def test_beforeopen_after_open_rejected(self, week_calendar):
        ev = make_event("AAA", eastern(2015, 6, 4, 9, 30), Timing.BEFORE_OPEN)
        with pytest.raises(NonTradingAnnouncement):
            anchor_event(ev, week_calendar)

    def test_beforeopen_on_non_trading_day_rejected(self, week_calendar):
        ev = make_event("AAA", eastern(2015, 6, 6, 8, 0), Timing.BEFORE_OPEN)
        with pytest.raises(NonTradingAnnouncement):
            anchor_event(ev, week_calendar)

    def test_afterclose_day0_strictly_after_announcement_date(self, week_calendar):
        for day, hour in [(1, 16), (2, 17), (3, 20), (4, 23), (5, 18)]:
            ev = make_event("AAA", eastern(2015, 6, day, hour), Timing.AFTER_CLOSE)
            anchor = anchor_event(ev, week_calendar)
            assert anchor.day0 > date(2015, 6, day)

    def test_afterclose_beyond_calendar(self, week_calendar):
        ev = make_event("AAA", eastern(2015, 6, 12, 17, 0), Timing.AFTER_CLOSE)
        with pytest.raises(OutOfCalendarRange):
            anchor_event(ev, week_calendar)

    def test_event_on_first_trading_day_has_no_day_minus_one(self, week_calendar):
        ev = make_event("AAA", eastern(2015, 6, 1, 8, 0), Timing.BEFORE_OPEN)
        with pytest.raises(OutOfCalendarRange):
            anchor_event(ev, week_calendar)


class TestRelativeDay:
    def test_walk(self, week_calendar):
        ev = make_event("AAA", eastern(2015, 6, 4, 17, 0), Timing.AFTER_CLOSE)
        anchor = anchor_event(ev, week_calendar)  # day0 = Friday 6/5
        assert anchor.day(0) == date(2015, 6, 5)
        assert anchor.day(-1) == date(2015, 6, 4)
        assert anchor.day(1) == date(2015, 6, 8)  # following Monday

    def test_monotone_in_k(self, week_calendar):
        ev = make_event("AAA", eastern(2015, 6, 4, 17, 0), Timing.AFTER_CLOSE)
        anchor = anchor_event(ev, week_calendar)
        days = [anchor.day(k) for k in range(-1, 6)]
        assert days == sorted(days) and len(set(days)) == len(days)

    def test_out_of_range(self, week_calendar):
        ev = make_event("AAA", eastern(2015, 6, 4, 17, 0), Timing.AFTER_CLOSE)
        anchor = anchor_event(ev, week_calendar)
        with pytest.raises(OutOfCalendarRange):
            anchor.day(10)


class TestCalendarConstruction:
    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            TradingCalendar((date(2015, 6, 2), date(2015, 6, 1)))
        with pytest.raises(ValueError):
            TradingCalendar(())

    def test_index_of_unknown_date(self, week_calendar):
        with pytest.raises(OutOfCalendarRange):
            week_calendar.index_of(date(2015, 6, 6))

from bisect import bisect_right
from datetime import date, datetime, time, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eastudy.alignment import (
    EASTERN,
    TradingCalendar,
    anchor_event,
    close_instant,
    eastern_hours,
    eastern_instants,
    eastern_offsets,
)
from eastudy.errors import NonTradingAnnouncement, OutOfCalendarRange, reason
from eastudy.model import Timing
from eastudy.reports import build_universe

from conftest import eastern, index_from_closes, make_calendar, make_dataset, make_event, records


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


# trading days across both 2015 DST changes, and the UTC epoch seconds of
# the virtual previous close and of every close
DST_CALENDAR = make_calendar(date(2015, 3, 2), 185)
DST_CLOSES = [int(close_instant(d).timestamp())
              for d in (DST_CALENDAR.dates[0] - timedelta(days=1), *DST_CALENDAR.dates)]
around_closes = st.one_of(
    st.sampled_from(DST_CLOSES).flatmap(lambda c: st.sampled_from([c - 1, c, c + 1])),
    st.integers(DST_CLOSES[0] - 5 * 86400, DST_CLOSES[-1] + 5 * 86400),
)


class TestPartitionProperty:
    @given(st.lists(around_closes, max_size=20))
    def test_day_indices_equal_the_reference_and_mark_outside(self, instants):
        """Inside the coverage ``day_indices`` is the reference's index; it is
        -1 at or before the virtual previous close and ``len(cal)`` after the
        last close, where the reference raises."""
        cal = DST_CALENDAR
        days = cal.day_indices(np.array(instants, dtype=np.int64))
        assert days.shape == (len(instants),)
        for ts, day in zip(instants, days.tolist()):
            instant = datetime.fromtimestamp(ts, timezone.utc)
            if DST_CLOSES[0] < ts <= DST_CLOSES[-1]:
                assert day == cal.index_of(cal.close_delimited_day(instant))
                continue
            assert day == (-1 if ts <= DST_CLOSES[0] else len(cal))
            with pytest.raises(OutOfCalendarRange):
                cal.close_delimited_day(instant)

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


def utc_offset(ts: int) -> int:
    """The US/Eastern offset in seconds at one epoch second, read from ZoneInfo."""
    return int(datetime.fromtimestamp(ts, EASTERN).utcoffset().total_seconds())


def switch_instants(first_year: int, last_year: int) -> list[int]:
    """Every instant from ``first_year`` to ``last_year`` at which the
    US/Eastern offset changes, found hour by hour within each day whose
    midnights differ: no use of the kernel's table."""
    start = int(datetime(first_year, 1, 1, tzinfo=timezone.utc).timestamp())
    stop = int(datetime(last_year + 1, 1, 1, tzinfo=timezone.utc).timestamp())
    found, before = [], utc_offset(start)
    for day in range(start, stop, 86400):
        after = utc_offset(day + 86400)
        if after != before:
            hour = next(h for h in range(day, day + 86401, 3600) if utc_offset(h) == after)
            found.append(hour)
        before = after
    return found


SWITCHES = switch_instants(1900, 2100)
MIN_TS = int(datetime(1900, 1, 1, tzinfo=timezone.utc).timestamp())
MAX_TS = int(datetime(2101, 1, 1, tzinfo=timezone.utc).timestamp()) - 1


class TestEasternOffsets:
    """``eastern_offsets`` gives ZoneInfo's US/Eastern offset at every stamp."""

    def test_every_switch_and_the_seconds_around_it(self):
        assert 300 < len(SWITCHES) < 500  # about two a year, with gaps
        ts = np.array([t + d for t in SWITCHES for d in (-3601, -1, 0, 1, 3599)])
        assert eastern_offsets(ts).tolist() == [utc_offset(t) for t in ts.tolist()]

    @given(st.lists(st.integers(MIN_TS, MAX_TS), min_size=1, max_size=50))
    def test_random_stamps_1900_to_2100(self, stamps):
        assert eastern_offsets(np.array(stamps)).tolist() == [utc_offset(t) for t in stamps]

    def test_far_apart_years_build_only_their_own_tables(self):
        # a year-1 stamp next to a 2015 one: two years of table, not 2,000
        ts = np.array([-62135553600, 1433188800])
        assert eastern_offsets(ts).tolist() == [-17762, -14400]  # LMT, then EDT

    def test_hours_are_wall_clock_hours(self):
        ts = np.array([t + d for t in SWITCHES[-40:] for d in range(-7200, 7201, 1800)])
        want = [datetime.fromtimestamp(t, EASTERN).hour for t in ts.tolist()]
        assert eastern_hours(ts).tolist() == want

    @given(st.lists(st.dates(date(1900, 1, 1), date(2100, 12, 31)), min_size=1, max_size=30,
                    unique=True))
    def test_calendar_closes_are_close_instants(self, days):
        cal = TradingCalendar(tuple(sorted(days)))
        want = [int(close_instant(d).timestamp()) for d in cal.dates]
        assert cal._closes_ts.tolist() == want
        assert cal._lower_ts == int(close_instant(cal.dates[0] - timedelta(days=1)).timestamp())

    @given(st.lists(st.dates(date(1884, 1, 1), date(9999, 12, 30)), min_size=1, max_size=30),
           st.integers(4 * 60, 24 * 60 - 1))
    def test_wall_clock_times_are_zoneinfo_instants(self, days, minute):
        """A US/Eastern time after 04:00, where no clock change falls (as the
        generator's slots and announcements do), is ``ZoneInfo``'s instant."""
        local = np.array([(d - date(1970, 1, 1)).days * 86400 + minute * 60 for d in days])
        want = [int(datetime.combine(d, time(minute // 60, minute % 60), tzinfo=EASTERN).timestamp())
                for d in days]
        assert eastern_instants(local).tolist() == want


def reference_day0(ev, cal) -> int:
    """Day 0's calendar index by the per-event rule, one date at a time."""
    local = ev.announce_at.astimezone(EASTERN)
    if ev.timing is Timing.BEFORE_OPEN:
        if local.time() >= time(9, 30):
            raise NonTradingAnnouncement(
                f"{ev.ticker} {ev.announce_at.isoformat()}: BeforeOpen but at/after 09:30")
        day0 = local.date()
        if day0 not in cal.dates:
            raise NonTradingAnnouncement(
                f"{ev.ticker} {ev.announce_at.isoformat()}: {day0} is not a trading date")
    else:
        if local.time() < time(16, 0):
            raise NonTradingAnnouncement(
                f"{ev.ticker} {ev.announce_at.isoformat()}: AfterClose but before 16:00")
        i = bisect_right(cal.dates, local.date())
        if i == len(cal.dates):
            raise OutOfCalendarRange(f"no trading date after {local.date()}")
        day0 = cal.dates[i]
    if (i0 := cal.dates.index(day0)) == 0:
        raise OutOfCalendarRange(f"day 0 of {ev.ticker} event has no prior trading date")
    return i0


def outcome(anchor, ev, cal):
    """(day 0, "") or (-1, the error as ``type: message``)."""
    try:
        return anchor(ev, cal), ""
    except (NonTradingAnnouncement, OutOfCalendarRange) as exc:
        return -1, f"{type(exc).__name__}: {exc}"


BELLS = [time(9, 29, 59), time(9, 30), time(15, 59, 59), time(16, 0)]
# a week around each 2015 switch (Sun 2015-03-08 and Sun 2015-11-01)
SWITCH_WEEKS = [date(2015, 3, 5) + timedelta(days=k) for k in range(7)] + [
    date(2015, 10, 29) + timedelta(days=k) for k in range(7)]


@st.composite
def calendars_and_events(draw):
    start = draw(st.sampled_from([date(2015, 3, 2), date(2015, 10, 26), date(2015, 6, 1)]))
    days = [start + timedelta(days=k) for k in range(30)]
    dates = [d for d in days if d.weekday() < 5 and draw(st.integers(0, 9))]  # some holidays
    if not dates:
        dates = [days[0]]
    on = st.sampled_from([dates[0], dates[-1], dates[0] - timedelta(days=1),
                          dates[-1] + timedelta(days=1), *SWITCH_WEEKS, *days])
    at = st.one_of(st.sampled_from(BELLS), st.times(), st.sampled_from([time(1, 30), time(2, 30)]))
    events = []
    for i in range(draw(st.integers(1, 12))):
        local = datetime.combine(draw(on), draw(at), tzinfo=EASTERN)
        timing = draw(st.sampled_from(list(Timing)))
        events.append(make_event(f"T{'ABCDEFGHIJKL'[i]}", local.astimezone(timezone.utc), timing))
    return tuple(dates), events


class TestVectorizedAnchoring:
    """The event table's one-pass anchoring equals ``anchor_event`` and the
    per-event rule, event by event, the error text included."""

    @settings(max_examples=300)
    @given(calendars_and_events())
    def test_table_equals_anchor_event(self, drawn):
        dates, events = drawn
        ds = make_dataset(index=index_from_closes(dates, [100.0] * len(dates)), events=events)
        cal = TradingCalendar(dates)
        universe = build_universe(ds)
        got = [(int(d), reason(universe.anchor_error(i)) if d < 0 else "")
               for i, d in enumerate(universe.day0.tolist())]
        events = records(universe.events)
        assert got == [outcome(lambda e, c: anchor_event(e, c).day0_index, ev, cal)
                       for ev in events]
        assert got == [outcome(reference_day0, ev, cal) for ev in events]
        local = [ev.announce_at.astimezone(EASTERN).date() for ev in events]
        assert universe.announced.tolist() == local

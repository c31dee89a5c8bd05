from datetime import date

import numpy as np
import pytest

from eastudy.alignment import anchor_event
from eastudy.errors import InvariantViolation, MissingFile, SchemaMismatch
from eastudy.event_study import StudyConfig, fit_events
from eastudy.ingest import (
    load_dataset,
    parse_events_csv,
    parse_index_csv,
    parse_prices_csv,
    parse_tweets_csv,
    write_dataset,
)
from eastudy.reports import build_universe
from eastudy.synth import SynthSpec, generate

from conftest import business_days


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def fixture_files(tmp_path, *, prices=None, index=None, tweets=None, events=None):
    """Two tickers, ten trading days (2015-06-01..12), one event each."""
    days = business_days(date(2015, 6, 1), 10)
    if prices is None:
        lines = ["date,ticker,close,volume"]
        for t, base in (("AAA", 100.0), ("BBB", 50.0)):
            lines += [f"{d.isoformat()},{t},{base + i},{1000 + i}" for i, d in enumerate(days)]
        prices = "\n".join(lines) + "\n"
    if index is None:
        index = "date,close\n" + "".join(
            f"{d.isoformat()},{1000 + i}\n" for i, d in enumerate(days)
        )
    if tweets is None:
        tweets = (
            "hour_start_utc,ticker,n_neg,n_neut,n_pos\n"
            "2015-06-03T14:00:00Z,AAA,1,2,3\n"
            "2015-06-02T21:00:00Z,AAA,4,0,1\n"  # after close: counts to 6/3
            "2015-06-08T13:00:00Z,BBB,0,5,0\n"
        )
    if events is None:
        events = (
            "ticker,announce_at_utc,timing,eps_reported,eps_estimated\n"
            "AAA,2015-06-02T20:30:00Z,AfterClose,1.05,1.0\n"  # 16:30 Eastern
            "BBB,2015-06-08T12:00:00Z,BeforeOpen,0.95,1.0\n"  # 08:00 Eastern
        )
    return (
        write(tmp_path / "prices.csv", prices),
        write(tmp_path / "index.csv", index),
        write(tmp_path / "tweets.csv", tweets),
        write(tmp_path / "events.csv", events),
    )


class TestLoadDataset:
    def test_well_formed_round_trip(self, tmp_path):
        ds = load_dataset(*fixture_files(tmp_path))
        assert len(ds.bars) == 20
        assert len(ds.index) == 10
        assert len(ds.tweets) == 3
        assert len(ds.events) == 2
        assert ds.tickers == ("AAA", "BBB")

    def test_negative_close_rejected(self, tmp_path):
        prices = (
            "date,ticker,close,volume\n"
            "2015-06-01,AAA,100.0,1000\n"
            "2015-06-02,AAA,-1.0,1000\n"
        )
        paths = fixture_files(tmp_path, prices=prices)
        with pytest.raises(InvariantViolation) as exc_info:
            load_dataset(*paths)
        diags = exc_info.value.diagnostics
        assert any(d.line == 3 and "close" in d.message for d in diags)

    def test_zero_estimate_loads_as_excluded(self, tmp_path):
        events = (
            "ticker,announce_at_utc,timing,eps_reported,eps_estimated\n"
            "AAA,2015-06-02T20:30:00Z,AfterClose,1.05,0.0\n"
        )
        ds = load_dataset(*fixture_files(tmp_path, events=events))
        [ev] = ds.events
        assert ev.excluded
        assert ev.exclusion_reason == "zero estimate"

    def test_missing_file(self, tmp_path):
        paths = fixture_files(tmp_path)
        with pytest.raises(MissingFile):
            load_dataset(tmp_path / "nope.csv", *paths[1:])

    def test_bad_header(self, tmp_path):
        prices = "day,ticker,close,volume\n2015-06-01,AAA,100.0,1\n"
        with pytest.raises(SchemaMismatch):
            load_dataset(*fixture_files(tmp_path, prices=prices))

    def test_duplicate_bar_is_hard_error(self, tmp_path):
        prices = (
            "date,ticker,close,volume\n"
            "2015-06-01,AAA,100.0,1000\n"
            "2015-06-01,AAA,101.0,1000\n"
        )
        with pytest.raises(InvariantViolation) as exc_info:
            load_dataset(*fixture_files(tmp_path, prices=prices))
        assert any("duplicate" in d.message for d in exc_info.value.diagnostics)

    def test_out_of_order_bar_rejected(self, tmp_path):
        prices = (
            "date,ticker,close,volume\n"
            "2015-06-02,AAA,100.0,1000\n"
            "2015-06-01,AAA,101.0,1000\n"
        )
        with pytest.raises(InvariantViolation) as exc_info:
            load_dataset(*fixture_files(tmp_path, prices=prices))
        assert any("out-of-order" in d.message for d in exc_info.value.diagnostics)

    def test_inside_hours_announcement_rejected(self, tmp_path):
        events = (
            "ticker,announce_at_utc,timing,eps_reported,eps_estimated\n"
            "AAA,2015-06-02T16:00:00Z,AfterClose,1.05,1.0\n"  # 12:00 Eastern
        )
        with pytest.raises(InvariantViolation):
            load_dataset(*fixture_files(tmp_path, events=events))

    def test_event_ticker_must_have_bars(self, tmp_path):
        events = (
            "ticker,announce_at_utc,timing,eps_reported,eps_estimated\n"
            "ZZZ,2015-06-02T20:30:00Z,AfterClose,1.05,1.0\n"
        )
        with pytest.raises(InvariantViolation) as exc_info:
            load_dataset(*fixture_files(tmp_path, events=events))
        assert any("ZZZ" in d.message for d in exc_info.value.diagnostics)

    def test_bar_on_non_trading_date_rejected(self, tmp_path):
        index = "date,close\n" + "".join(
            f"{d.isoformat()},{1000 + i}\n"
            for i, d in enumerate(business_days(date(2015, 6, 2), 9))
        )
        with pytest.raises(InvariantViolation) as exc_info:
            load_dataset(*fixture_files(tmp_path, index=index))
        assert any("non-trading date" in d.message for d in exc_info.value.diagnostics)


class TestParsers:
    def test_totality_accounting(self, tmp_path):
        prices = (
            "date,ticker,close,volume\n"
            "2015-06-01,AAA,100.0,1000\n"
            "bogus,AAA,100.0,1000\n"
            "2015-06-02,AAA,abc,1000\n"
            "2015-06-03,AAA,101.0,1000\n"
            "2015-06-03,AAA,101.0,1000\n"
            "2015-06-04,aaa,101.0,1000\n"
            "2015-06-05,AAA,0.0,1000\n"
            "2015-06-08,AAA,101.0,-4\n"
            "2015-06-09,AAA,102.0,900\n"
        )
        path = write(tmp_path / "p.csv", prices)
        accepted, diags = parse_prices_csv(path)
        assert len(accepted) + len(diags) == 9
        assert len(accepted) == 3
        assert sorted({d.line for d in diags}) == [3, 4, 6, 7, 8, 9]

    def test_tweet_bucket_validation(self, tmp_path):
        tweets = (
            "hour_start_utc,ticker,n_neg,n_neut,n_pos\n"
            "2015-06-02T14:00:00Z,AAA,1,2,3\n"
            "2015-06-02T14:30:00Z,AAA,1,2,3\n"  # not a whole hour
            "2015-06-02T15:00:00,AAA,1,2,3\n"  # naive timestamp
            "2015-06-02T14:00:00Z,AAA,1,2,3\n"  # duplicate
            "2015-06-02T16:00:00Z,AAA,-1,2,3\n"  # negative count
            "2015-06-02T12:00:00+01:00,AAA,2,0,0\n"  # offset form, whole hour in UTC
            # stamps are parsed once per distinct text: repeats still get their own diagnostics
            "2015-06-02T14:30:00Z,BBB,1,2,3\n"  # not a whole hour, again
            "2015-06-02T15:00:00,BBB,1,2,3\n"  # naive timestamp, again
            "2015-06-02T15:00:00Z,AAA,1,1,1\n"
            "2015-06-02T11:00:00-04:00,AAA,1,1,1\n"  # the same instant: duplicate
            "2015-06-02T17:00:00Z,AAA,1,2147483648,0\n"  # count too large for the columns
        )
        accepted, diags = parse_tweets_csv(write(tmp_path / "t.csv", tweets))
        assert len(accepted) == 3
        assert len(diags) == 8
        assert accepted[1][1].hour_start.hour == 11  # normalized to UTC
        by_line = {d.line: d for d in diags}
        assert sorted(by_line) == [3, 4, 5, 6, 8, 9, 11, 12]
        assert "at most 2147483647" in by_line[12].message
        for line in (3, 8):
            assert by_line[line].kind == "invariant" and "whole hour" in by_line[line].message
        for line in (4, 9):
            assert by_line[line].kind == "schema" and "bad timestamp" in by_line[line].message
        for line in (5, 11):
            assert "duplicate bucket for AAA" in by_line[line].message

    def test_event_timing_value_checked(self, tmp_path):
        events = (
            "ticker,announce_at_utc,timing,eps_reported,eps_estimated\n"
            "AAA,2015-06-02T20:30:00Z,Midday,1.0,1.0\n"
        )
        accepted, diags = parse_events_csv(write(tmp_path / "e.csv", events))
        assert not accepted
        assert diags[0].kind == "schema"

    def test_index_strictly_increasing(self, tmp_path):
        index = "date,close\n2015-06-01,10\n2015-06-01,11\n2015-06-02,0\n"
        accepted, diags = parse_index_csv(write(tmp_path / "i.csv", index))
        assert len(accepted) == 1
        assert len(diags) == 2


class TestWriteReadFixpoint:
    def test_canonical_round_trip_is_byte_identical(self, tmp_path):
        ds = generate(SynthSpec(seed=3, n_tickers=2, n_days=40, events_per_ticker=1,
                                first_event_day=20))
        first = tmp_path / "first"
        second = tmp_path / "second"
        paths1 = write_dataset(ds, first)
        ds2 = load_dataset(*paths1)
        paths2 = write_dataset(ds2, second)
        for p1, p2 in zip(paths1, paths2):
            assert p1.read_bytes() == p2.read_bytes()


def coverage(ds, cfg=StudyConfig()):
    """The study's own exclusions: the universe's (no anchor, no day-0 tweets),
    then the market-model fit loop's. Returns (universe, fits, reasons by event)."""
    universe = build_universe(ds)
    fits = fit_events(universe.table.anchors_of(universe.used), ds, cfg)
    reasons: dict = {}
    skipped = [(ev, why) for ev, why in zip(universe.table.events, fits.skips) if why]
    for ev, why in universe.dropped + skipped:
        reasons.setdefault(ev, []).append(why)
    return universe, fits, reasons


class TestCoverage:
    def test_event_without_day0_tweets_excluded(self, tmp_path):
        tweets = (
            "hour_start_utc,ticker,n_neg,n_neut,n_pos\n"
            "2015-06-08T13:00:00Z,BBB,0,5,0\n"
        )
        ds = load_dataset(*fixture_files(tmp_path, tweets=tweets))
        universe, _, reasons = coverage(ds)
        aaa = next(ev for ev in ds.events if ev.ticker == "AAA")
        assert aaa in reasons
        assert "no day-0 tweets" in reasons[aaa]
        day0 = anchor_event(aaa, universe.cal).day0_index
        assert universe.counts.labels[:, universe.counts.row("AAA"), day0].sum() == 0
        assert universe.table.day_labels[universe.table.events.index(aaa), 0].sum() == 0

    def test_short_history_flags_estimation_window(self, tmp_path):
        ds = load_dataset(*fixture_files(tmp_path))
        _, _, reasons = coverage(ds)
        aaa = next(ev for ev in ds.events if ev.ticker == "AAA")
        assert aaa in reasons
        assert any(why.startswith("InsufficientHistory") for why in reasons[aaa])

    def test_fully_covered_event_not_excluded(self):
        ds = generate(SynthSpec(seed=9, n_tickers=2, n_days=160, events_per_ticker=1,
                                first_event_day=135))
        universe, fits, reasons = coverage(ds)
        fitted = [why == "" for why in fits.skips]
        assert any(fitted)
        assert not reasons, reasons
        assert {ev for ev, ok in zip(universe.table.events, fitted) if ok} == set(ds.events)
        assert (universe.table.day_labels[universe.used, 0].sum(axis=1) > 0).all()
        assert fits.ars.shape[1] == len(StudyConfig().taus)  # the event window is served
        assert not np.isnan(fits.ars[fitted]).any()

    def test_shorter_requirement_accepts_shorter_history(self):
        ds = generate(SynthSpec(seed=9, n_tickers=1, n_days=90, events_per_ticker=1,
                                first_event_day=60))
        _, _, strict = coverage(ds)
        assert set(strict) == set(ds.events)
        _, _, relaxed = coverage(ds, StudyConfig(estimation_window_length=50))
        assert not relaxed

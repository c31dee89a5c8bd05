import ast
import csv
import io
import json
import os
import re
from collections import Counter
from contextlib import contextmanager, nullcontext
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eastudy import ingest
from eastudy.alignment import anchor_event
from eastudy.cli import main
from eastudy.errors import InvariantViolation, MissingFile, SchemaMismatch
from eastudy.event_study import StudyConfig, fit_events
from eastudy.ingest import (
    EVENTS_HEADER,
    INDEX_HEADER,
    PRICES_HEADER,
    TWEETS_HEADER,
    format_rfc3339,
    load_dataset,
    parse_rfc3339,
    parse_events_csv,
    parse_index_csv,
    parse_prices_csv,
    parse_tweets_csv,
    write_dataset,
)
from eastudy.model import TICKER_RE, DailyBars, Dataset, EarningsEvent, Events, Timing, distinct
from eastudy.reports import build_universe
from eastudy.returns import earnings_surprise
from eastudy.synth import SynthSpec, generate

from conftest import (
    bar_columns,
    business_days,
    index_from_closes,
    records,
    row_loop_only,
    tweet_columns,
)


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
        [ev] = records(ds.events)
        assert ev.excluded
        assert ev.exclusion_reason == "zero estimate"

    @pytest.mark.parametrize("estimate, excluded", [(0.0, True), (-0.0, True), (0.8, False)])
    def test_an_event_round_trips_through_the_columns(self, estimate, excluded):
        """A record's exclusion follows its estimate, built or read back alike."""
        ev = EarningsEvent("AAA", datetime(2015, 6, 2, 20, 30, tzinfo=timezone.utc),
                           Timing.AFTER_CLOSE, 1.05, estimate)
        assert (ev.excluded, ev.exclusion_reason) == (excluded, "zero estimate" * excluded)
        assert Events.of([ev]).record(0) == ev

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
        assert records(accepted)[1][1].hour_start.hour == 11  # normalized to UTC
        by_line = {d.line: d for d in diags}
        assert sorted(by_line) == [3, 4, 5, 6, 8, 9, 11, 12]
        assert "at most 2147483647" in by_line[12].message
        for line in (3, 8):
            assert by_line[line].kind == "invariant" and "whole hour" in by_line[line].message
        for line in (4, 9):
            assert by_line[line].kind == "schema" and "bad timestamp" in by_line[line].message
        for line in (5, 11):
            assert "duplicate bucket for AAA" in by_line[line].message

    def test_duplicate_bucket_named_by_its_utc_stamp(self, tmp_path):
        # the repeat is written with an offset, so the row loop reads it
        tweets = (
            "hour_start_utc,ticker,n_neg,n_neut,n_pos\n"
            "2015-06-01T14:00:00Z,AAA,1,1,1\n"
            "2015-06-01T10:00:00-04:00,AAA,2,2,2\n"
        )
        accepted, diags = parse_tweets_csv(write(tmp_path / "t.csv", tweets))
        assert len(accepted) == 1
        assert [(d.line, d.message) for d in diags] == [
            (3, "duplicate bucket for AAA at 2015-06-01T14:00:00Z")]

    def test_event_timing_value_checked(self, tmp_path):
        events = (
            "ticker,announce_at_utc,timing,eps_reported,eps_estimated\n"
            "AAA,2015-06-02T20:30:00Z,Midday,1.0,1.0\n"
        )
        accepted, diags = parse_events_csv(write(tmp_path / "e.csv", events))
        assert not accepted
        assert diags[0].kind == "schema"

    def test_repeated_event_rejected_and_first_kept(self, tmp_path):
        events = (
            "ticker,announce_at_utc,timing,eps_reported,eps_estimated\n"
            "AAA,2015-06-02T20:30:00Z,AfterClose,1.05,1.0\n"
            "AAA,2015-06-02T20:30:00Z,AfterClose,1.05,1.0\n"  # an exact repeat
            "AAA,2015-06-03T20:30:00Z,AfterClose,1.2,1.0\n"  # the next day: another event
            "AAA,2015-06-02T16:30:00-04:00,AfterClose,9.0,1.0\n"  # the first instant again
        )
        path = write(tmp_path / "e.csv", events)
        accepted, diags = parse_events_csv(path)
        assert [(line, ev.eps_reported) for line, ev in records(accepted)] == [(2, 1.05), (4, 1.2)]
        assert [(d.line, d.kind, d.message) for d in diags] == [
            (line, "invariant", "duplicate event for AAA at 2015-06-02T20:30:00Z")
            for line in (3, 5)
        ]
        paths = fixture_files(tmp_path, events=events)
        with pytest.raises(InvariantViolation):
            load_dataset(*paths)
        flags = [f for name, path in zip(("prices", "index", "tweets", "events"), paths)
                 for f in (f"--{name}", str(path))]
        assert main(["--out", str(tmp_path / "out"), "ingest", *flags]) == 4

    def test_event_ticker_and_eps_refusals_name_their_column(self, tmp_path):
        events = (
            "ticker,announce_at_utc,timing,eps_reported,eps_estimated\n"
            "sya,2015-06-02T20:30:00Z,AfterClose,1.05,1.0\n"
            "SYA,2015-06-03T20:30:00Z,AfterClose,abc,1.0\n"
        )
        accepted, diags = parse_events_csv(write(tmp_path / "e.csv", events))
        assert not accepted
        assert [(d.line, d.kind, d.message) for d in diags] == [
            (2, "schema", "column ticker: bad ticker 'sya'"),
            (3, "schema", "column eps_reported/eps_estimated: not a number"),
        ]

    def test_events_of_one_ticker_at_different_instants_load(self, tmp_path):
        events = (
            "ticker,announce_at_utc,timing,eps_reported,eps_estimated\n"
            "AAA,2015-06-02T20:30:00Z,AfterClose,1.05,1.0\n"
            "AAA,2015-06-02T20:30:01Z,AfterClose,1.05,1.0\n"
        )
        ds = load_dataset(*fixture_files(tmp_path, events=events))
        assert [format_rfc3339(ev.announce_at) for ev in records(ds.events)] == [
            "2015-06-02T20:30:00Z", "2015-06-02T20:30:01Z"]

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
    fits = fit_events(ds.prices, universe.day0, universe.events.code, universe.used, cfg)
    reasons: dict = {}
    events = records(universe.events)
    by_key = {(ev.ticker, format_rfc3339(ev.announce_at)): ev for ev in events}
    dropped = [(by_key[ticker, at], why) for ticker, at, why in universe.dropped]
    skipped = [(ev, why) for ev, why in zip(events, fits.skips) if why]
    for ev, why in dropped + skipped:
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
        aaa = next(ev for ev in records(ds.events) if ev.ticker == "AAA")
        assert aaa in reasons
        assert "no day-0 tweets" in reasons[aaa]
        day0 = anchor_event(aaa, universe.cal).day0_index
        assert universe.counts.labels[:, ds.tickers.index("AAA"), day0].sum() == 0
        assert universe.day_labels[records(universe.events).index(aaa), 0].sum() == 0

    def test_short_history_flags_estimation_window(self, tmp_path):
        ds = load_dataset(*fixture_files(tmp_path))
        _, _, reasons = coverage(ds)
        aaa = next(ev for ev in records(ds.events) if ev.ticker == "AAA")
        assert aaa in reasons
        assert any(why.startswith("InsufficientHistory") for why in reasons[aaa])

    def test_fully_covered_event_not_excluded(self):
        ds = generate(SynthSpec(seed=9, n_tickers=2, n_days=160, events_per_ticker=1,
                                first_event_day=135))
        universe, fits, reasons = coverage(ds)
        fitted = [why == "" for why in fits.skips]
        assert any(fitted)
        assert not reasons, reasons
        assert {ev for ev, ok in zip(records(universe.events), fitted) if ok} == set(
            records(ds.events))
        assert (universe.day_labels[universe.used, 0].sum(axis=1) > 0).all()
        assert fits.ars.shape[1] == len(StudyConfig().taus)  # the event window is served
        assert not np.isnan(fits.ars[fitted]).any()

    def test_shorter_requirement_accepts_shorter_history(self):
        ds = generate(SynthSpec(seed=9, n_tickers=1, n_days=90, events_per_ticker=1,
                                first_event_day=60))
        _, _, strict = coverage(ds)
        assert set(strict) == set(records(ds.events))
        _, _, relaxed = coverage(ds, StudyConfig(estimation_window_length=50))
        assert not relaxed


class TestNonFiniteValues:
    @pytest.mark.parametrize("close", ["inf", "1e999", "-inf", "nan"])
    def test_close_gets_a_row_numbered_diagnostic(self, tmp_path, close):
        prices = (
            "date,ticker,close,volume\n"
            "2015-06-01,AAA,100.0,1000\n"
            f"2015-06-02,AAA,{close},1000\n"
        )
        accepted, diags = parse_prices_csv(write(tmp_path / "p.csv", prices))
        assert len(accepted) == 1
        assert [(d.line, d.kind) for d in diags] == [(3, "invariant")]
        assert "close must be a positive finite number" in diags[0].message
        with pytest.raises(InvariantViolation) as exc_info:
            load_dataset(*fixture_files(tmp_path, prices=prices))
        assert "prices.csv:3: close must be a positive finite number" in str(exc_info.value)

    @pytest.mark.parametrize("close", ["inf", "1e999"])
    def test_index_level_gets_a_row_numbered_diagnostic(self, tmp_path, close):
        index = f"date,close\n2015-06-01,10\n2015-06-02,{close}\n"
        accepted, diags = parse_index_csv(write(tmp_path / "i.csv", index))
        assert len(accepted) == 1
        assert [(d.line, d.kind) for d in diags] == [(3, "invariant")]
        assert "index level must be a positive finite number" in diags[0].message

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_eps_gets_a_row_numbered_diagnostic(self, tmp_path, eps, column):
        figures = [eps, "1.0"] if column == 0 else ["1.05", eps]
        events = (
            "ticker,announce_at_utc,timing,eps_reported,eps_estimated\n"
            "BBB,2015-06-08T12:00:00Z,BeforeOpen,0.95,1.0\n"
            f"AAA,2015-06-02T20:30:00Z,AfterClose,{','.join(figures)}\n"
        )
        accepted, diags = parse_events_csv(write(tmp_path / "e.csv", events))
        assert len(accepted) == 1
        assert [(d.line, d.kind) for d in diags] == [(3, "schema")]
        assert diags[0].message == "column eps_reported/eps_estimated: not a finite number"
        with pytest.raises(SchemaMismatch):
            load_dataset(*fixture_files(tmp_path, events=events))


def test_tweet_stamp_past_a_datetimes_range_gets_a_diagnostic(tmp_path, capsys):
    """Its UTC instant is in year 10000: a schema diagnostic, and exit 3."""
    tweets = "hour_start_utc,ticker,n_neg,n_neut,n_pos\n9999-12-31T23:00:00-05:00,AAA,1,1,1\n"
    paths = fixture_files(tmp_path, tweets=tweets)
    accepted, diags = parse_tweets_csv(paths[2])
    assert not accepted
    assert [(d.line, d.kind, d.message) for d in diags] == [
        (2, "schema", "column hour_start_utc: bad timestamp '9999-12-31T23:00:00-05:00'")]
    flags = [f"--{name}={path}" for name, path in zip(("prices", "index", "tweets", "events"),
                                                       paths)]
    assert main(["--out", str(tmp_path / "out"), "ingest", *flags]) == 3
    assert "bad timestamp" in capsys.readouterr().err


def test_volume_beyond_the_int64_column_gets_a_diagnostic(tmp_path):
    prices = f"date,ticker,close,volume\n2015-06-01,AAA,100.0,{2**63}\n"
    accepted, diags = parse_prices_csv(write(tmp_path / "p.csv", prices))
    assert not accepted
    assert [(d.line, d.kind, d.message) for d in diags] == [
        (2, "invariant", f"volume must be at most {2**63 - 1}")]


class TestOneDiagnosticsPath:
    """``load_dataset`` and ``calendar`` turn diagnostics into the same
    exception: a schema problem anywhere makes it SchemaMismatch (exit 3),
    else InvariantViolation (exit 4)."""

    @pytest.mark.parametrize("index, code", [
        ("date,close\n2015-06-01,10\n2015-06-01,11\nbogus,12\n", 3),
        ("date,close\n2015-06-01,10\n2015-06-01,11\n", 4),
    ])
    def test_calendar_and_load_dataset_agree(self, tmp_path, capsys, index, code):
        paths = fixture_files(tmp_path, index=index)
        rc = main(["--out", str(tmp_path / "out"), "calendar", "--index", str(paths[1])])
        assert rc == code
        assert "bad index rows, first:" in capsys.readouterr().err
        with pytest.raises(SchemaMismatch if code == 3 else InvariantViolation):
            load_dataset(*paths)


# --- the fast path and the row loop ------------------------------------------

PARSERS = {"prices": parse_prices_csv, "index": parse_index_csv, "tweets": parse_tweets_csv,
           "events": parse_events_csv}


@contextmanager
def counting_row_loop():
    """Record, by file name, the line numbers of the rows the row loop sees."""
    seen: dict[str, list[int]] = {}
    real = ingest._row_loop

    def counted(path, header, numbered, check):
        lines = seen.setdefault(Path(path).name, [])

        def each():
            for lineno, cells in numbered:
                lines.append(lineno)
                yield lineno, cells

        return real(path, header, each(), check)

    with mock.patch.object(ingest, "_row_loop", counted):
        yield seen


def outcome(name, path):
    """Accepted (line, record) items and (line, kind, message) diagnostics,
    or the error raised."""
    try:
        accepted, diags = PARSERS[name](path)
    except (SchemaMismatch, InvariantViolation) as exc:
        return type(exc).__name__, str(exc)
    return records(accepted), [(d.line, d.kind, d.message) for d in diags]


def _cell(column, edit):
    """Rewrite one cell of data row i (physical line i + 1)."""
    def mutate(text, i):
        lines = text.split("\n")
        cells = lines[i].split(",")
        if column < len(cells):
            cells[column] = edit(cells[column])
        lines[i] = ",".join(cells)
        return "\n".join(lines), {i + 1}
    return mutate


def _dropped_comma(text, i):
    lines = text.split("\n")
    lines[i] = lines[i].replace(",", "", 1)
    return "\n".join(lines), {i + 1}


def _to_offset_form(stamp):
    """The instant in a -04:00 offset form; a stamp that an earlier edit of
    the row made unreadable is left as it is."""
    try:
        return parse_rfc3339(stamp).astimezone(timezone(timedelta(hours=-4))).isoformat()
    except ValueError:
        return stamp


def _offset_duplicate(column):
    """Repeat row i after it, the stamp in ``column`` in the offset form of
    the same instant."""
    def mutate(text, i):
        lines = text.split("\n")
        cells = lines[i].split(",")
        cells[column] = _to_offset_form(cells[column])
        lines.insert(i + 1, ",".join(cells))
        return "\n".join(lines), {i + 2}
    return mutate


def _other_timing(word):
    """The other timing word: the announcement is then on the wrong side of its bell."""
    return "AfterClose" if word == "BeforeOpen" else "BeforeOpen"


def _blank_line(text, i):
    lines = text.split("\n")
    lines.insert(i, "")
    return "\n".join(lines), {i + 1}


def _ends(*ends):
    """End the text's lines with each of ``ends`` in turn: no line changes."""
    def mutate(text, i):
        *lines, tail = text.split("\n")
        return "".join(line + ends[k % len(ends)] for k, line in enumerate(lines)) + tail, set()
    return mutate


# edits any file takes that send just the line they touch to the row loop
EVERY_FILE = {
    "quote": _cell(1, lambda c: f'"{c}"'),
    "blank line": _blank_line,
}
# edits of the whole text that touch no line: the other line ends, a
# missing final line end, and a BOM (a header the parsers refuse)
LINE_ENDS = {
    "CRLF": _ends("\r\n"),
    "CR": _ends("\r"),
    "mixed LF, CRLF and CR": _ends("\n", "\r\n", "\r"),
    "no final newline": lambda text, i: (text[:-1], set()),
    "CR, no final line end": lambda text, i: (_ends("\r")(text, i)[0][:-1], set()),
    "BOM": lambda text, i: ("\ufeff" + text, set()),
}
# mutations that send just the rows they touch to the row loop
ROW_MUTATIONS = {
    "tweets": {
        "dropped comma": _dropped_comma,
        "part-hour": _cell(0, lambda c: c[:14] + "30:00Z"),
        "2016-02-30": _cell(0, lambda c: "2016-02-30" + c[10:]),
        "offset-form duplicate": _offset_duplicate(0),
        "+3": _cell(2, lambda c: "+3"),
        " 3": _cell(3, lambda c: " 3"),
        "arabic-indic 3": _cell(4, lambda c: "٣"),
        "1_000": _cell(2, lambda c: "1_000"),
        "2**31": _cell(3, lambda c: str(2**31)),
        "lower-case ticker": _cell(1, str.lower),
        "lower-case z": _cell(0, lambda c: c[:-1] + "z"),
        "past a datetime's range": _cell(0, lambda c: "9999-12-31T23:00:00-05:00"),
    },
    "prices": {
        "dropped comma": _dropped_comma,
        "inf close": _cell(2, lambda c: "inf"),
        "1e999 close": _cell(2, lambda c: "1e999"),
        "zero close": _cell(2, lambda c: "0.0"),
        "exponent close": _cell(2, lambda c: "1.5e2"),
        "2016-02-30": _cell(0, lambda c: "2016-02-30"),
        "+3 volume": _cell(3, lambda c: "+3"),
        "1_000 volume": _cell(3, lambda c: "1_000"),
        "2**63 volume": _cell(3, lambda c: str(2**63)),
        "spaced ticker": _cell(1, lambda c: f" {c}"),
    },
    "index": {
        "dropped comma": _dropped_comma,
        "inf close": _cell(1, lambda c: "inf"),
        "2016-02-30": _cell(0, lambda c: "2016-02-30"),
        "trailing dot": _cell(1, lambda c: c.split(".")[0] + "."),
    },
    "events": {
        "dropped comma": _dropped_comma,
        "offset stamp": _cell(1, _to_offset_form),
        "offset-form duplicate": _offset_duplicate(1),
        "fractional second": _cell(1, lambda c: c[:-1] + ".25Z"),
        "lower-case z": _cell(1, lambda c: c[:-1] + "z"),
        "year 1, local year 0": _cell(1, lambda c: "0001-01-01T03:00:00Z"),
        "2016-02-30": _cell(1, lambda c: "2016-02-30" + c[10:]),
        "lower-case timing": _cell(2, str.lower),
        "wrong side of the bell": _cell(2, _other_timing),
        "+1.5": _cell(3, lambda c: "+1.5"),
        "nan": _cell(3, lambda c: "nan"),
        "-.5": _cell(3, lambda c: "-.5"),
        "1e3": _cell(4, lambda c: "1e3"),
        "spaced ticker": _cell(0, lambda c: f" {c}"),
        "lower-case ticker": _cell(0, str.lower),
        "EPS not a number": _cell(3, lambda c: "abc"),
    },
}
# mutations whose rows the fast path still reads
FAST_ROWS = {
    "events": {
        "-0.25": _cell(3, lambda c: "-0.25"),
        "-0.0 estimate": _cell(4, lambda c: "-0.0"),
        "zero estimate": _cell(4, lambda c: "0"),
        "leading zeros": _cell(4, lambda c: "007.50"),
    },
}


def _repeat_row(text, i):
    lines = text.split("\n")
    lines.insert(i + 1, lines[i])
    return "\n".join(lines), {i + 2}


def _swap_rows(text, i):
    lines = text.split("\n")
    j = i + 1 if i + 1 < len(lines) - 1 else i - 1
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines), {i + 1, j + 1}


# rows the fast path reads, whose order the checks across rows decide
ACROSS_ROWS = {name: {"repeated row": _repeat_row, "swapped rows": _swap_rows}
               for name in PARSERS}


@pytest.fixture(scope="module")
def base_files(tmp_path_factory):
    """The texts of a small synthetic dataset, by file name."""
    root = tmp_path_factory.mktemp("base")
    write_dataset(generate(SynthSpec(seed=5, n_tickers=2, n_days=30, events_per_ticker=1,
                                     first_event_day=20)), root)
    return {name: (root / f"{name}.csv").read_text(encoding="utf-8") for name in PARSERS}


def data_rows(text):
    return text.count("\n") - 1


mutations = st.sampled_from(sorted(PARSERS)).flatmap(lambda name: st.tuples(
    st.just(name),
    st.lists(st.tuples(st.sampled_from(sorted({**EVERY_FILE, **LINE_ENDS, **ROW_MUTATIONS[name],
                                               **ACROSS_ROWS[name],
                                               **FAST_ROWS.get(name, {})}.items())),
                       st.floats(0, 1, exclude_max=True)),
             min_size=1, max_size=3),
))


def mutate(text, edits):
    """Apply (mutation, row fraction) edits: row edits from the last row up,
    so that an inserted line does not move the rows still to be edited, then
    the edits any file takes in the same way, then the line ends."""
    rows = data_rows(text)
    targets = sorted((((name in LINE_ENDS, name in EVERY_FILE), -int(where * rows), fn)
                      for (name, fn), where in edits), key=lambda t: t[:2])
    for _, i, fn in targets:
        text = fn(text, 1 - i)[0]
    return text


class TestFastPathMatchesRowLoop:
    @settings(max_examples=120)
    @given(mutations)
    def test_same_rows_values_and_diagnostics(self, base_files, tmp_path_factory, drawn):
        name, edits = drawn
        path = tmp_path_factory.mktemp("m") / f"{name}.csv"
        path.write_bytes(mutate(base_files[name], edits).encode("utf-8"))
        fast = outcome(name, path)
        with row_loop_only():
            assert outcome(name, path) == fast

    @settings(max_examples=60)
    @given(mutations)
    def test_every_row_accepted_or_diagnosed_once(self, base_files, tmp_path_factory, drawn):
        name, edits = drawn
        text = mutate(base_files[name], edits)
        path = tmp_path_factory.mktemp("m") / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        n_rows = len(list(csv.reader(io.StringIO(text, newline="")))) - 1
        for context in (nullcontext(), row_loop_only()):
            with context:
                got = outcome(name, path)
            if isinstance(got[0], str):  # a header the parsers refuse
                assert got[0] == "SchemaMismatch" and text.startswith("\ufeff")
                continue
            accepted, diags = got
            lines = [n for n, _ in accepted] + [n for n, _, _ in diags]
            assert sorted(lines) == list(range(2, 2 + n_rows))

    @settings(max_examples=60)
    @given(st.data())
    def test_row_loop_sees_exactly_the_mutated_rows(self, base_files, tmp_path_factory, data):
        name = data.draw(st.sampled_from(sorted(PARSERS)))
        kind, fn = data.draw(st.sampled_from(sorted({**EVERY_FILE, **LINE_ENDS,
                                                     **ROW_MUTATIONS[name]}.items())))
        text = base_files[name]
        text, touched = fn(text, data.draw(st.integers(1, data_rows(text))))
        path = tmp_path_factory.mktemp("m") / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        with counting_row_loop() as seen:
            got = outcome(name, path)
        assert seen.get(path.name, []) == sorted(touched), (kind, got)

    def test_row_loop_sees_no_row_of_synth_output(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 11, "n_tickers": 6, "n_days": 300,
                                    "events_per_ticker": 4, "first_event_day": 135,
                                    "event_spacing": 35}))
        assert main(["--out", str(tmp_path / "d"), "synth", "--spec", str(spec)]) == 0
        paths = [tmp_path / "d" / f"{n}.csv" for n in ("prices", "index", "tweets", "events")]
        with counting_row_loop() as seen:
            ds = load_dataset(*paths)
        assert len(ds.tweets) > 10_000 and len(ds.bars) == 1800
        assert len(ds.events) == 24
        assert {name: len(lines) for name, lines in seen.items()} == {
            "prices.csv": 0, "index.csv": 0, "tweets.csv": 0, "events.csv": 0}

    @settings(max_examples=40)
    @given(st.lists(st.one_of(
        st.from_regex(r"[1-9][0-9]{0,15}\.[0-9]{1,15}", fullmatch=True),
        st.from_regex(r"0\.[0-9]{1,30}", fullmatch=True),
        st.from_regex(r"[1-9][0-9]{0,31}", fullmatch=True),
        st.floats(min_value=1e-4, max_value=1e15).map(repr).filter(lambda r: "e" not in r),
    ), min_size=1, max_size=40))
    def test_closes_read_as_float_reads_them(self, tmp_path_factory, closes):
        days = business_days(date(2015, 6, 1), len(closes))
        path = tmp_path_factory.mktemp("c") / "prices.csv"
        path.write_text("date,ticker,close,volume\n" + "".join(
            f"{d.isoformat()},AAA,{c},1\n" for d, c in zip(days, closes)))
        with counting_row_loop() as seen:
            accepted, diags = parse_prices_csv(path)
        assert seen.get("prices.csv", []) == [n for n, c in enumerate(closes, 2)
                                               if float(c) == 0]
        got = {n: bar.close for n, bar in records(accepted)}
        for n, c in enumerate(closes, 2):
            if float(c) > 0:
                assert np.float64(got[n]).tobytes() == np.float64(float(c)).tobytes()


EVENT_EDITS = {**ROW_MUTATIONS["events"], **FAST_ROWS["events"], **ACROSS_ROWS["events"]}


@pytest.mark.parametrize("kind", sorted(EVENT_EDITS))
@pytest.mark.parametrize("block", [ingest.BLOCK_BYTES, 60])
def test_each_event_edit_gives_the_row_loops_outcome(base_files, tmp_path, kind, block):
    """Every events mutation, on a row of a file read a whole file or 60
    bytes at a time: the fast path's outcome is the row loop's, and the row
    loop sees just the rows the fast path refuses."""
    text, touched = EVENT_EDITS[kind](base_files["events"], 1)
    path = write(tmp_path / "events.csv", text)
    with mock.patch.object(ingest, "BLOCK_BYTES", block), counting_row_loop() as seen:
        fast = outcome("events", path)
    with row_loop_only():
        assert outcome("events", path) == fast
    expected = [] if kind in FAST_ROWS["events"] or kind in ACROSS_ROWS["events"] else touched
    assert seen.get("events.csv", []) == sorted(expected)
    assert isinstance(fast[0], list) and len(fast[0]) + len(fast[1]) == data_rows(text)


signed_decimals = st.one_of(
    st.from_regex(r"-?[0-9]{1,16}\.[0-9]{1,15}", fullmatch=True),
    st.from_regex(r"-?0\.[0-9]{1,29}", fullmatch=True),
    st.from_regex(r"-?[0-9]{1,31}", fullmatch=True),
    st.floats(min_value=-1e15, max_value=1e15).map(repr).filter(lambda r: "e" not in r),
)


class TestEventFigures:
    @settings(max_examples=60)
    @given(st.lists(st.tuples(signed_decimals, signed_decimals), min_size=1, max_size=30))
    def test_eps_and_surprise_bits(self, tmp_path_factory, figures):
        """The fast path reads EPS as ``float()`` reads it, and the table's
        surprise has the bits of ``earnings_surprise``."""
        days = business_days(date(2015, 6, 1), len(figures) + 1)
        path = tmp_path_factory.mktemp("e") / "events.csv"
        path.write_text("ticker,announce_at_utc,timing,eps_reported,eps_estimated\n" + "".join(
            f"AAA,{d.isoformat()}T22:00:00Z,AfterClose,{r},{e}\n"
            for d, (r, e) in zip(days, figures)))
        with counting_row_loop() as seen:
            accepted, diags = parse_events_csv(path)
        assert seen["events.csv"] == [] and diags == []
        bits = lambda x: np.float64(x).tobytes()
        events = [ev for _, ev in records(accepted)]
        assert [(bits(ev.eps_reported), bits(ev.eps_estimated)) for ev in events] == [
            (bits(float(r)), bits(float(e))) for r, e in figures]
        assert [ev.excluded for ev in events] == [float(e) == 0 for _, e in figures]
        ds = Dataset(DailyBars((), *(np.zeros(0, t) for t in (np.int64, "datetime64[D]",
                                                                np.float64, np.int64))),
                     index_from_closes(days, [1.0] * len(days)),
                     tweet_columns([]), accepted.rows)
        universe = build_universe(ds)
        assert [bits(x) for x in universe.surprise.tolist()] == [
            bits(np.nan) if ev.excluded else bits(earnings_surprise(ev).es) for ev in events]


def _last_line_start(data: bytes) -> int:
    return data.rfind(b"\n", 0, len(data) - 1) + 1


# edits of a file's bytes near the end or at a read's cut: (data, block size) -> data
BYTE_EDITS = {
    "none": lambda data, block: data,
    "CR in the last line": lambda data, block: data[:-1] + b"\r\n",
    "quote in the last line": lambda data, block: (
        data[:(i := _last_line_start(data))] + b'"' + data[i:].replace(b",", b'",', 1)
    ),
    "blank line before the last": lambda data, block: (
        data[:(i := _last_line_start(data))] + b"\n" + data[i:]
    ),
    "bad UTF-8 in the last line": lambda data, block: (
        data[:(i := _last_line_start(data) + 1)] + b"\xff" + data[i:]
    ),
    "two-byte character across a cut": lambda data, block: (
        data[:(i := min(block, len(data)) - 1)] + "é".encode() + data[i:]
    ),
    "no final newline": lambda data, block: data[:-1],
    "empty file": lambda data, block: b"",
    "CR line ends": lambda data, block: data.replace(b"\n", b"\r"),
    "mixed LF, CRLF and CR": lambda data, block: b"".join(
        line + (b"\n", b"\r\n", b"\r")[k % 3]
        for k, line in enumerate(data.split(b"\n")[:-1])),
    "CR, no final line end": lambda data, block: data.replace(b"\n", b"\r")[:-1],
    "CRLF split by a read": lambda data, block: (  # the first read ends at a CR
        (crlf := data.replace(b"\n", b"\r\n"))[:block - 1] + b"\r\n" + crlf[block - 1:]
    ),
}


def refused_alone(name: str, data: bytes, tmp: Path) -> list[int]:
    """The line numbers of the data lines, split at each LF, CRLF or CR as
    universal newlines split them, that the fast path refuses when each is
    the only line of an LF-ended file."""
    header, *rows = io.StringIO(data.decode("utf-8", "surrogateescape"), newline="").readlines()
    refused = []
    for n, row in enumerate(rows, 2):
        path = tmp / f"alone_{name}.csv"
        path.write_bytes((header.rstrip("\r\n") + "\n" + row.rstrip("\r\n") + "\n").encode(
            "utf-8", "surrogateescape"))
        with counting_row_loop() as seen:
            PARSERS[name](path)
        if seen[path.name]:
            refused.append(n)
    return refused


def _shortest_lines(name: str, n: int) -> str:
    """A file of ``n`` distinct data lines, each as short as the fast path
    accepts in that file: a date or a stamp, a timing, and one byte for every
    other cell."""
    hours = np.datetime64("2015-01-05T00", "h") + np.arange(n)
    days = np.datetime_as_string(np.datetime64("2015-01-05") + np.arange(n)).tolist()
    rows = {
        "prices": [f"{d},A,1,0\n" for d in days],
        "index": [f"{d},1\n" for d in days],
        "tweets": [f"{h}:00:00Z,A,0,0,0\n" for h in np.datetime_as_string(hours).tolist()],
        "events": [f"A,{d}T21:00:00Z,AfterClose,1,1\n" for d in days],
    }[name]
    header = {"prices": PRICES_HEADER, "index": INDEX_HEADER, "tweets": TWEETS_HEADER,
              "events": EVENTS_HEADER}[name]
    return ",".join(header) + "\n" + "".join(rows)


SHORTEST_LINE = {"prices": 17, "index": 13, "tweets": 29, "events": 38}


class TestStreamedBlocks:
    """The fast path reads a file in blocks of whole lines, ``BLOCK_BYTES``
    a read. With reads of a few dozen bytes, lines and their CRLF ends
    straddle reads and outgrow them, and every outcome is still the row
    loop's, which reads each line alone."""

    @settings(max_examples=150)
    @given(st.data())
    def test_small_blocks_give_the_row_loops_outcome(self, base_files, tmp_path_factory, data):
        name = data.draw(st.sampled_from(sorted(PARSERS)))
        block = data.draw(st.integers(40, 200))
        lines = base_files[name].encode().split(b"\n")[:1 + data.draw(st.integers(0, 12))]
        if len(lines) > 1 and data.draw(st.booleans()):
            # zero-pad a row's last cell, up to a line longer than a block
            i = data.draw(st.integers(1, len(lines) - 1))
            head, _, last = lines[i].rpartition(b",")
            lines[i] = head + b"," + last.rjust(data.draw(st.integers(1, 2 * block)), b"0")
        edit = data.draw(st.sampled_from(sorted(BYTE_EDITS)))
        text = BYTE_EDITS[edit](b"\n".join(lines) + b"\n", block)
        path = tmp_path_factory.mktemp("b") / f"{name}.csv"
        path.write_bytes(text)
        with mock.patch.object(ingest, "BLOCK_BYTES", block), counting_row_loop() as seen:
            fast = outcome(name, path)
        with row_loop_only():
            assert outcome(name, path) == fast
        if isinstance(fast[0], list):  # the header was read
            # the row loop gets the lines the edit touches and each padded
            # line too long for the fast path: for other line ends and a
            # missing final one, no line at all
            assert seen.get(path.name, []) == refused_alone(name, text, path.parent), edit

    @pytest.mark.parametrize("block", [ingest.BLOCK_BYTES, 64])
    @pytest.mark.parametrize("name", sorted(PARSERS))
    def test_a_file_of_shortest_lines_fits_its_columns(self, tmp_path, name, block):
        """The columns have the file's size over its shortest fast-path line
        rows: a file made only of such lines fills them, one more byte in the
        bound and its rows would not fit."""
        text = _shortest_lines(name, 600)
        assert {len(line) + 1 for line in text.splitlines()[1:]} == {SHORTEST_LINE[name]}
        path = write(tmp_path / f"{name}.csv", text)
        with mock.patch.object(ingest, "BLOCK_BYTES", block), counting_row_loop() as seen:
            accepted, diags = PARSERS[name](path)
            fast = outcome(name, path)
        assert seen.get(path.name, []) == [] and diags == [] and len(accepted) == 600
        if name != "index":  # index rows are records with their line numbers
            assert accepted.lines is None
        with row_loop_only():
            assert outcome(name, path) == fast

    def test_blank_line_starting_a_block_goes_alone_to_the_row_loop(self, base_files,
                                                                     tmp_path):
        data = base_files["prices"].encode()
        cut = data.index(b"\n", 100) + 1
        path = tmp_path / "prices.csv"
        path.write_bytes(data[:cut] + b"\n" + data[cut:])
        with mock.patch.object(ingest, "BLOCK_BYTES", cut), counting_row_loop() as seen:
            got = outcome("prices", path)
        assert seen["prices.csv"] == [data[:cut].count(b"\n") + 1]
        with row_loop_only():
            assert outcome("prices", path) == got

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"])
    def test_a_line_end_at_each_read_cut_stays_on_the_fast_path(self, base_files, tmp_path, end):
        """A CR that ends a read waits for the next, which may start with
        the LF of a CRLF: with the first read ending at each CR in turn, no
        line goes to the row loop and the outcome is the LF file's."""
        data = base_files["prices"].encode()
        path = write(tmp_path / "prices.csv", data.decode())
        want = outcome("prices", path)
        path.write_bytes(data.replace(b"\n", end))
        for cr in [i for i, byte in enumerate(path.read_bytes()) if byte == 13]:
            with mock.patch.object(ingest, "BLOCK_BYTES", cr + 1), counting_row_loop() as seen:
                assert outcome("prices", path) == want
            assert seen["prices.csv"] == []

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    def test_a_pipe_is_read_once(self, base_files, tmp_path):
        """A pipe has no size to bound its rows before it is read, so it is
        read whole, once, and the fast path parses it from memory."""
        text = base_files["tweets"][:4000].rpartition("\n")[0] + "\n"
        r, w = os.pipe()
        try:
            os.write(w, text.encode())
            os.close(w)
            with counting_row_loop() as seen:
                got = outcome("tweets", Path(f"/dev/fd/{r}"))
        finally:
            os.close(r)
        assert got == outcome("tweets", write(tmp_path / "tweets.csv", text))
        assert seen[str(r)] == []

    def test_parse_tweets_reads_at_most_a_block_at_a_time(self, base_files, tmp_path):
        path = write(tmp_path / "tweets.csv", base_files["tweets"])
        sizes = []

        class Recorded:
            def __init__(self, fh):
                self.fh = fh

            def read(self, size=-1):
                sizes.append(size)
                return self.fh.read(size)

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        with mock.patch.object(ingest, "BLOCK_BYTES", 4096), mock.patch.object(
            ingest, "open", lambda *args, **kwargs: Recorded(open(*args, **kwargs)), create=True
        ):
            got = outcome("tweets", path)
        assert got == outcome("tweets", path)
        assert len(sizes) > path.stat().st_size // 4096
        assert all(0 < size <= 4096 for size in sizes)


class TestEachLineIsOneRow:
    """A line break always ends a row, even inside quotes, and a line the
    csv module cannot read gets one diagnostic: the row loop reads each
    line alone, and every diagnostic names its physical line."""

    @staticmethod
    def ingest(tmp_path, prices):
        paths = fixture_files(tmp_path, prices=prices)
        flags = [f"--{name}={path}" for name, path in zip(("prices", "index", "tweets", "events"),
                                                           paths)]
        return paths[0], main(["--out", str(tmp_path / "out"), "ingest", *flags])

    def test_a_line_break_inside_quotes_ends_the_row(self, tmp_path, capsys):
        lines = fixture_files(tmp_path)[0].read_text().split("\n")
        day, ticker, rest = lines[5].split(",", 2)
        lines[5:6] = [f'{day},"{ticker}', f'",{rest}']
        path, code = self.ingest(tmp_path, "\n".join(lines))
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("error:") == 1
        for context in (nullcontext(), row_loop_only()):
            with context:
                accepted, diags = parse_prices_csv(path)
            assert [(d.line, d.message) for d in diags] == [
                (6, "expected 4 cells, got 2"), (7, "expected 4 cells, got 1")]
            assert [n for n, _ in records(accepted)] == [
                n for n in range(2, len(lines)) if n not in (6, 7)]

    def test_a_cell_past_the_csv_field_limit_gets_one_diagnostic(self, tmp_path, capsys):
        lines = fixture_files(tmp_path)[0].read_text().split("\n")
        lines[3] = lines[3].rpartition(",")[0] + "," + "9" * 140_000
        path, code = self.ingest(tmp_path, "\n".join(lines))
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "prices.csv:4: not a CSV row" in err
        for context in (nullcontext(), row_loop_only()):
            with context:
                accepted, diags = parse_prices_csv(path)
            assert [(d.line, d.kind, d.message) for d in diags] == [
                (4, "schema", f"not a CSV row: field larger than field limit "
                              f"({csv.field_size_limit()})")]
            assert len(accepted) == len(lines) - 3

    def test_a_directory_is_a_missing_file(self, tmp_path):
        paths = fixture_files(tmp_path)
        with pytest.raises(MissingFile, match="Is a directory"):
            load_dataset(tmp_path, *paths[1:])


class TestWriteThenLoad:
    @settings(max_examples=10)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(30, 80))
    def test_is_the_identity(self, tmp_path_factory, seed, n_tickers, n_days):
        ds = generate(SynthSpec(seed=seed, n_tickers=n_tickers, n_days=n_days,
                                events_per_ticker=1, first_event_day=20))
        paths = write_dataset(ds, tmp_path_factory.mktemp("w"))
        assert load_dataset(*paths) == ds


# names that sort apart from their packed bytes' lengths and take every byte class
TICKER_NAMES = ["A", "AA", "AAA", "AB", "B", "BRK.B", "M", "MSFT", "X.Y", "Z", "ZZZZZZ"]


def arranged_rows(data) -> list[tuple[str, int]]:
    """(ticker, hour) rows in a drawn order: canonical, shuffled, interleaved
    (every hour's tickers in turn) or of a single ticker."""
    kind = data.draw(st.sampled_from(["canonical", "shuffled", "interleaved", "single"]))
    names = data.draw(st.lists(st.sampled_from(TICKER_NAMES), min_size=1, max_size=6,
                               unique=True))
    names = names[:1] if kind == "single" else names
    rows = [(t, h) for t in names for h in range(data.draw(st.integers(1, 8)))]
    if kind == "shuffled":
        return data.draw(st.permutations(rows))
    return sorted(rows, key=lambda row: row[::-1] if kind == "interleaved" else row)


def reference_codes(tickers: list[str]) -> tuple[tuple[str, ...], list[int]]:
    """The sorted distinct tickers and each row's code into them, from a full
    sort of the packed column (``distinct``, then ``searchsorted``)."""
    packed = np.array([ingest._pack(t) for t in tickers], dtype=np.int64)
    table = distinct(packed)
    return tuple(ingest._unpack(int(v)) for v in table), np.searchsorted(table, packed).tolist()


class TestTickerCodes:
    """Ticker codes come out of the parse as int32 ids, block by block, and
    become codes into the sorted names in place: the same codes as a full
    sort of the packed names gives, in any row order, for the rows of both
    paths."""

    @settings(max_examples=100)
    @given(st.data())
    def test_block_ids_made_codes_equal_the_full_sort(self, data):
        rows = arranged_rows(data)
        packed = np.array([ingest._pack(t) for t, _ in rows], dtype=np.int64)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=4)))
        names = ingest._Names()
        column = np.concatenate([names.ids(block) for block in np.split(packed, cuts)])
        with mock.patch.object(ingest, "SLICE_ROWS", data.draw(st.integers(1, 5))):
            tickers = names.codes(column)
        assert column.dtype == np.int32
        assert (tickers, column.tolist()) == reference_codes([t for t, _ in rows])

    @settings(max_examples=60)
    @given(st.data())
    def test_parsed_codes_equal_the_full_sort(self, tmp_path_factory, data):
        """Some lines are refused by the fast path: a quoted ticker, which
        the row loop accepts, or a count that is no number, which it refuses."""
        rows = arranged_rows(data)
        kept, lines = [], []
        for t, h in rows:
            edit = data.draw(st.sampled_from(["", "", "", "quoted", "bad count"]))
            stamp = format_rfc3339(datetime(2015, 6, 1, tzinfo=timezone.utc) + timedelta(hours=h))
            ticker = f'"{t}"' if edit == "quoted" else t
            lines.append(f"{stamp},{ticker},{'x' if edit == 'bad count' else 1},2,3\n")
            kept += [] if edit == "bad count" else [t]
        path = tmp_path_factory.mktemp("t") / "tweets.csv"
        path.write_text(",".join(TWEETS_HEADER) + "\n" + "".join(lines))
        block = data.draw(st.sampled_from([64, 256, ingest.BLOCK_BYTES]))
        with mock.patch.object(ingest, "BLOCK_BYTES", block), \
                mock.patch.object(ingest, "SLICE_ROWS", data.draw(st.integers(1, 5))):
            accepted, diags = parse_tweets_csv(path)
        tw = accepted.rows
        assert len(diags) == len(rows) - len(kept)
        assert tw.code.dtype == np.int32
        assert (tw.tickers, tw.code.tolist()) == reference_codes(kept)


def test_day_kernel_reads_dates_as_date_does():
    """The fast path counts the days as ``date.toordinal`` does, and refuses
    exactly the dates ``date.fromisoformat`` refuses: every month 0..13 and
    day 0..32 of years about each leap rule and at both ends of time."""
    texts = [f"{y:04d}-{m:02d}-{d:02d}" for y in (0, 1, 4, 1600, 1700, 1900, 1970, 2000, 2015,
                                                   2016, 2100, 2400, 9999)
             for m in range(14) for d in range(33)]
    days, ok = ingest._days(np.frombuffer("".join(texts).encode(), np.uint8).reshape(-1, 10).T)
    epoch = date(1970, 1, 1).toordinal()
    for text, day, good in zip(texts, days.tolist(), ok.tolist()):
        try:
            want = date.fromisoformat(text).toordinal() - epoch
        except ValueError:
            want = None
        assert (day if good else None) == want, text


class TestInt32Columns:
    """Every ticker code is int32 and so is every tweet hour, however a table
    is made: loaded, generated, recoded, indexed or sorted."""

    def test_codes_and_hours_are_int32(self, tmp_path):
        ds = generate(SynthSpec(seed=8, n_tickers=3, n_days=60, events_per_ticker=2,
                                first_event_day=20, event_spacing=15))
        loaded = load_dataset(*write_dataset(ds, tmp_path))
        tables = [t for d in (ds, loaded) for t in (d.bars, d.tweets, d.events)]
        tables += [t.on(("A", *t.tickers)) for t in tables]  # every code moves up one
        tables += [t[np.arange(len(t))[::-1]] for t in tables]
        tables += [t.canonical() for t in tables] + [t[t.code == 1] for t in tables]
        tables += [tweet_columns(records(ds.tweets)), bar_columns(records(ds.bars)),
                   Events.of(records(ds.events))]
        assert loaded == ds and len({type(t) for t in tables}) == 3
        assert {t.code.dtype for t in tables} == {np.dtype(np.int32)}
        assert {t.hour.dtype for t in tables if hasattr(t, "hour")} == {np.dtype(np.int32)}
        assert loaded.tweets.seconds().tolist() == [3600 * h for h in ds.tweets.hour.tolist()]

    def test_parsed_columns_hold_just_their_rows(self, tmp_path):
        """The column buffers, sized for the shortest tweets line, are
        trimmed in place to the rows they hold: no view keeps the rest."""
        write_dataset(generate(SynthSpec(seed=3, n_tickers=2, n_days=60, events_per_ticker=0)),
                      tmp_path)
        tw = parse_tweets_csv(tmp_path / "tweets.csv")[0].rows
        assert len(tw) > 100
        for column in (tw.code, tw.hour, tw.n_neg, tw.n_neut, tw.n_pos):
            assert column.base is None and column.nbytes == 4 * len(tw)


class TestTweetStampsParsedOncePerParse:
    """The row loop parses each distinct stamp text once per parse, and the
    memo is gone when the parse returns."""

    @pytest.fixture
    def offset_form(self, base_files, tmp_path):
        lines = base_files["tweets"].split("\n")
        rows = [line.split(",", 1) for line in lines[1:] if line]
        path = write(tmp_path / "tweets.csv", "\n".join(
            [lines[0], *(f"{_to_offset_form(stamp)},{rest}" for stamp, rest in rows)]) + "\n")
        return path, len(rows), len({stamp for stamp, _ in rows})

    def test_the_stamp_memo_does_not_outlive_the_parse(self, offset_form):
        path, n_rows, _ = offset_form
        with counting_row_loop() as seen:
            accepted, diags = parse_tweets_csv(path)
        assert len(seen["tweets.csv"]) == n_rows and len(accepted) == n_rows and not diags
        assert ingest._hour_start.cache_info().currsize == 0

    def test_each_distinct_stamp_parsed_once_per_parse(self, offset_form, monkeypatch):
        path, n_rows, n_stamps = offset_form
        assert n_stamps < n_rows  # stamps repeat across tickers
        parsed = Counter()

        def counting(text):
            parsed[text] += 1
            return parse_rfc3339(text)

        monkeypatch.setattr(ingest, "parse_rfc3339", counting)
        for run in (1, 2):
            parse_tweets_csv(path)
            assert len(parsed) == n_stamps and set(parsed.values()) == {run}


def csv_module_writer(header, rows) -> bytes:
    """The report bytes as ``csv.writer`` writes the ``_fmt`` of each value."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([ingest._fmt(v) for v in row] for row in rows)
    return buf.getvalue().encode("utf-8")


class TestReportWriter:
    """``OutputDir.write_csv`` writes what ``csv.writer`` writes, for every
    kind of value a report holds: no report field needs quoting."""

    @settings(max_examples=40)
    @given(st.lists(st.tuples(
        st.from_regex(TICKER_RE, fullmatch=True), st.dates().map(date.isoformat),
        st.sampled_from(["AfterClose", "BeforeOpen", "negative", "all", "strategy"]),
        st.integers(-2**63, 2**63), st.booleans(),
        st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"),
                                                -0.0, 0.0, 1e-300, 5e-324, 1e22])),
    ), max_size=20))
    def test_same_bytes_as_the_csv_module(self, tmp_path_factory, rows):
        header = ["ticker", "date", "name", "n", "significant", "value"]
        root = tmp_path_factory.mktemp("w") / "out"
        out = ingest.OutputDir(root)
        out.write_csv("report.csv", header, iter(rows))
        out.commit()
        assert (root / "report.csv").read_bytes() == csv_module_writer(header, rows)


# ISO 8601 forms that ``fromisoformat`` takes on some Python but the input
# schemas' grammar does not: (file, column, text)
OFF_GRAMMAR = [
    ("tweets", 0, "2015-W23-1T15:00:00Z"),
    ("tweets", 0, "20150601T160000Z"),
    ("tweets", 0, "2015-06-01T17Z"),
    ("tweets", 0, "2015-06-01T21:00Z"),
    ("tweets", 0, "2015-06-01X20:00:00Z"),
    ("tweets", 0, "2015-06-01T19:00:00+0000"),
    ("events", 1, "2015-W23-1T21:00:00Z"),
    ("events", 1, "20150602T210000Z"),
    ("prices", 0, "2015-W23-2"),
    ("prices", 0, "20150603"),
]
HEADERS = {"prices": PRICES_HEADER, "index": INDEX_HEADER, "tweets": TWEETS_HEADER,
           "events": EVENTS_HEADER}


class TestStampAndDateGrammar:
    """A stamp is read as ``YYYY-MM-DD``, ``T``, ``HH:MM:SS``, an optional
    fraction and ``Z`` or ``+HH:MM``/``-HH:MM`` (``t``, ``z`` and a space
    for the ``T`` allowed), a date as ``YYYY-MM-DD``: the same on every Python."""

    @pytest.mark.parametrize("name, column, text", OFF_GRAMMAR)
    def test_refused_alike_on_both_paths(self, base_files, tmp_path, name, column, text):
        lines = base_files[name].split("\n")
        cells = lines[1].split(",")
        cells[column] = text
        if name == "events":
            cells[2] = "AfterClose"  # 17:00 US/Eastern: only the stamp's form is wrong
        lines[1] = ",".join(cells)
        path = write(tmp_path / f"{name}.csv", "\n".join(lines))
        what = "date" if name == "prices" else "timestamp"
        fast = outcome(name, path)
        assert fast[1] == [(2, "schema", f"column {HEADERS[name][column]}: bad {what} {text!r}")]
        with row_loop_only():
            assert outcome(name, path) == fast

    @pytest.mark.parametrize("text, want", [
        ("2015-06-01T16:00:00Z", datetime(2015, 6, 1, 16)),
        ("2015-06-01t16:00:00z", datetime(2015, 6, 1, 16)),
        ("2015-06-01 16:00:00Z", datetime(2015, 6, 1, 16)),
        (" 2015-06-01T12:00:00-04:00 ", datetime(2015, 6, 1, 16)),
        ("2015-06-01T16:00:00.25Z", datetime(2015, 6, 1, 16, 0, 0, 250000)),
        ("2015-06-01T16:00:00.1234567+00:00", datetime(2015, 6, 1, 16, 0, 0, 123456)),
    ])
    def test_stamps_of_the_grammar(self, text, want):
        assert parse_rfc3339(text) == want.replace(tzinfo=timezone.utc)

    @pytest.mark.parametrize("text", [t for name, _, t in OFF_GRAMMAR if name != "prices"] + [
        "2015-06-01T16:00:00", "2015-06-01T16:00:00.Z", "2015-06-01T16:00:00+04",
        "2015-6-01T16:00:00Z", "2015-06-01T16:00:00ZZ", "2015-06-01T16:00:00.٢Z",
    ])
    def test_other_stamps_are_refused(self, text):
        with pytest.raises(ValueError):
            parse_rfc3339(text)

    @settings(max_examples=200)
    @given(st.datetimes(datetime(1, 1, 2), datetime(9999, 12, 30)),
           st.integers(-(24 * 60 - 1), 24 * 60 - 1), st.text("0123456789", max_size=9),
           st.sampled_from("Tt "))
    def test_every_stamp_of_the_grammar_is_read(self, wall, minutes, fraction, sep):
        offset = f"{'-' if minutes < 0 else '+'}{abs(minutes) // 60:02}:{abs(minutes) % 60:02}"
        text = wall.replace(microsecond=0).isoformat(sep) + (f".{fraction}" if fraction else "")
        want = wall.replace(microsecond=int(fraction[:6].ljust(6, "0") or 0),
                            tzinfo=timezone(timedelta(minutes=minutes)))
        assert parse_rfc3339(text + offset) == want

    def test_dates_of_the_grammar(self):
        assert ingest.parse_date("2015-06-01") == date(2015, 6, 1)
        for text in ("2015-W23-2", "20150603", " 2015-06-01", "2015-06-01\n", "2015-06-1",
                     "2015-٠6-01", "2016-02-30", "0000-01-01"):
            with pytest.raises(ValueError):
                ingest.parse_date(text)
        with pytest.raises(TypeError):
            ingest.parse_date([1, 2])


def one_reader_breaches(tree: ast.Module, module: str) -> list[str]:
    """Each ``fromisoformat`` outside ``parse_date`` and ``parse_rfc3339``,
    each ``ZoneInfo`` or ``EASTERN`` outside ``alignment``, and each
    ``ingest._*_row`` that takes more than ``cells``, in one module."""
    readers = {id(node) for top in tree.body if module == "ingest" and
               isinstance(top, ast.FunctionDef) and top.name in ("parse_date", "parse_rfc3339")
               for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
        if name == "fromisoformat" and id(node) not in readers:
            found.append(f"{module}:{node.lineno}: fromisoformat")
        if name in ("ZoneInfo", "EASTERN") and module != "alignment":
            found.append(f"{module}:{getattr(node, 'lineno', '')}: {name}")
    found += [f"{module}:{top.lineno}: {top.name}({ast.unparse(top.args)})" for top in tree.body
              if module == "ingest" and isinstance(top, ast.FunctionDef)
              and re.fullmatch(r"_\w+_row", top.name) and ast.unparse(top.args) != "cells"]
    return found


def test_stamps_dates_and_eastern_times_each_have_one_reader():
    """Every date and stamp is read by the schemas' grammar, every US/Eastern
    wall-clock time by ``alignment``'s offset kernel, and every row check
    reads the row's cells alone."""
    probe = ("from zoneinfo import ZoneInfo\nfrom .alignment import EASTERN\n"
             "def parse_date(t): return date.fromisoformat(t)\n"
             "def _day(t): return date.fromisoformat(t)\n"
             "def _x_row(path, cells): pass\ndef _y_row(cells): pass\n")
    assert len(one_reader_breaches(ast.parse(probe), "ingest")) == 4
    found = []
    for path in sorted(Path(ingest.__file__).parent.glob("*.py")):
        found += one_reader_breaches(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == []

import csv
import hashlib
import json
import sys
import tempfile
from unittest import mock
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eastudy.alignment import EASTERN, TradingCalendar
from eastudy.errors import InvalidSpec
from eastudy.event_study import fit_market_model
from eastudy.alignment import anchor_event
from eastudy.ingest import (
    EVENTS_HEADER, INDEX_HEADER, PRICES_HEADER, TWEETS_HEADER, format_rfc3339, load_dataset,
    write_dataset,
)
from eastudy.model import DailyBars, Dataset, EarningsEvent, Timing, TweetBuckets
from eastudy.returns import daily_returns
from eastudy.sentiment import EventPolarity
from eastudy.synth import (
    UTC, PlantedEvent, SynthSpec, _CLASS_CYCLE, _CLASS_ES, _eastern_epoch, _ticker_name,
    generate, generate_with_truth,
)

from conftest import IndexBar, as_dict, bars_of, index_columns, records

VECTOR_SPEC = SynthSpec(seed=42, n_tickers=2, n_days=40, events_per_ticker=1,
                        first_event_day=20)

# Frozen outputs of the documented generator (NumPy PCG64, fixed draw order).
# A change here means the generated fixtures are no longer reproducible.
VECTOR_SHA256 = {
    "prices.csv": "7f5ae0aed3223ff37eb1ef2c60d4ddb3a54f1c9984bbca4fbb86c94cd097bd6c",
    "index.csv": "d907b00ba907f4a3b9698b8b68cd3762895db0ca72cfc4bcb84a4acef87560db",
    "tweets.csv": "6965955ef4a86372babbb666e255bd75dc381576948ab28dd4bc52499a7a34c9",
    "events.csv": "8f4a45872c2527ddbd4091c3c5a3fa7dc2fd67e93470161729e94ff558aaaa8e",
}


class TestDeterminism:
    def test_same_spec_same_dataset(self):
        a = generate(VECTOR_SPEC)
        b = generate(VECTOR_SPEC)
        assert a.bars == b.bars
        assert a.index == b.index
        assert a.tweets == b.tweets
        assert a.events == b.events

    def test_frozen_vector(self, tmp_path):
        paths = write_dataset(generate(VECTOR_SPEC), tmp_path)
        for path in paths:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == VECTOR_SHA256[path.name], path.name

    def test_frozen_first_values(self):
        ds = generate(VECTOR_SPEC)
        assert records(ds.index)[0].close == 1000.0
        assert records(ds.index)[1].close == pytest.approx(1002.4377366380355, abs=0)
        assert records(ds.bars)[0].ticker == "SYA"
        assert records(ds.bars)[0].close == 50.0
        assert records(ds.tweets)[0].hour_start == datetime(2015, 1, 4, 22, 0, tzinfo=timezone.utc)

    def test_different_seed_differs(self):
        a = generate(VECTOR_SPEC)
        b = generate(SynthSpec(seed=43, n_tickers=2, n_days=40, events_per_ticker=1,
                               first_event_day=20))
        assert a.index != b.index


class TestGeneratedDatasetValidity:
    def test_passes_ingest_invariants(self, tmp_path):
        ds = generate(SynthSpec(seed=8, n_tickers=3, n_days=60, events_per_ticker=2,
                                first_event_day=20, event_spacing=15))
        reloaded = load_dataset(*write_dataset(ds, tmp_path))
        assert reloaded.bars == ds.bars
        assert reloaded.events == ds.events

    def test_tweets_inside_calendar_coverage(self):
        ds = generate(VECTOR_SPEC)
        cal = TradingCalendar.from_dataset(ds)
        days = cal.day_indices(ds.tweets.ts)
        assert ((0 <= days) & (days < len(cal))).all()

    def test_event_timing_layout(self):
        ds, truth = generate_with_truth(
            SynthSpec(seed=12, n_tickers=4, n_days=60, events_per_ticker=2,
                      first_event_day=20, event_spacing=15, afterclose_fraction=0.5)
        )
        cal = TradingCalendar.from_dataset(ds)
        truth_by_key = {(t.ticker, t.announce_at): t for t in truth}
        for ev in records(ds.events):
            planted = truth_by_key[(ev.ticker, ev.announce_at)]
            anchor = anchor_event(ev, cal)
            assert anchor.day0 == planted.day0
            local = ev.announce_at.astimezone(cal_tz())
            if ev.timing is Timing.AFTER_CLOSE:
                assert (local.hour, local.minute) == (16, 30)
            else:
                assert (local.hour, local.minute) == (8, 0)

    def test_zero_volatility_zero_jumps_constant_prices(self):
        spec = SynthSpec(seed=1, n_tickers=2, n_days=30, events_per_ticker=1,
                         first_event_day=15, index_vol=0.0, idio_vol=0.0,
                         alpha=0.0, beta=1.0, jump_negative=0.0, jump_neutral=0.0,
                         jump_positive=0.0)
        ds = generate(spec)
        assert all(b.close == 1000.0 for b in records(ds.index))
        for ticker in ds.tickers:
            series = daily_returns(bars_of(ds, ticker))
            assert all(v == 0.0 for v in series.values)

    def test_beta_recovery_within_three_standard_errors(self):
        spec = SynthSpec(seed=21, n_tickers=1, n_days=200, events_per_ticker=1,
                         first_event_day=180, beta=1.3, alpha=0.0002,
                         afterclose_fraction=1.0)
        ds, truth = generate_with_truth(spec)
        cal = TradingCalendar.from_dataset(ds)
        anchor = anchor_event(records(ds.events)[0], cal)
        stock = as_dict(daily_returns(bars_of(ds, truth[0].ticker)))
        index = as_dict(daily_returns(records(ds.index)))
        fit = fit_market_model(stock, index, anchor)
        window = sorted(d for d in index if d <= anchor.day(-2))[-120:]
        xs = [index[d] for d in window]
        x_mean = sum(xs) / len(xs)
        sxx = sum((x - x_mean) ** 2 for x in xs)
        se_beta = (fit.sigma2_eps / sxx) ** 0.5
        assert abs(fit.beta - 1.3) <= 3 * se_beta

    def test_planted_classes_cycle_uniformly(self):
        _, truth = generate_with_truth(
            SynthSpec(seed=2, n_tickers=3, n_days=120, events_per_ticker=4,
                      first_event_day=20, event_spacing=25)
        )
        counts = {pol: 0 for pol in EventPolarity}
        for t in truth:
            counts[t.polarity] += 1
        assert all(c == 4 for c in counts.values())


class TestSpecValidation:
    def test_events_must_fit(self):
        with pytest.raises(InvalidSpec):
            generate(SynthSpec(n_days=50, events_per_ticker=3, first_event_day=40,
                               event_spacing=30))

    def test_negative_volatility_rejected(self):
        with pytest.raises(InvalidSpec):
            generate(SynthSpec(index_vol=-0.1))

    def test_bad_fraction_rejected(self):
        with pytest.raises(InvalidSpec):
            generate(SynthSpec(afterclose_fraction=1.5))


def cal_tz():
    from eastudy.alignment import EASTERN

    return EASTERN


class TestSpecRules:
    """A spec the generator cannot turn into a dataset that ingest accepts is
    refused up front, or as soon as its prices leave the positive finite range."""

    @pytest.mark.parametrize("fields, message", [
        ({"tweet_rate": float("inf")}, "tweet_rate must be finite"),
        ({"index_vol": float("nan")}, "index_vol must be finite"),
        ({"alpha": float("inf")}, "alpha must be finite"),
        ({"es_noise": float("nan")}, "es_noise must be finite"),
        ({"event_tweet_multiplier": float("nan")}, "event_tweet_multiplier must be finite"),
        ({"beta": 10**400}, "beta must be finite"),
        ({"tweet_rate": 1e30}, "must be at most 1e9"),
        ({"tweet_rate": 1e9 / 2.4 * 1.01}, "must be at most 1e9"),
        ({"jump_negative": -1.5}, "close on"),
        ({"idio_vol": 5.0}, "close on"),
        ({"es_noise": 1e308}, "reported EPS"),
        ({"seed": -1}, "need a non-negative seed"),
        ({"n_tickers": 475_255}, "1 to 475254 tickers"),
        ({"start": date(9999, 11, 1)}, "calendar must lie between 1883-11-19 and 9999-12-31"),
        ({"start": date(1883, 11, 18)}, "calendar must lie between"),
        ({"start": date.min}, "calendar must lie between"),
    ])
    def test_rejected(self, fields, message):
        with pytest.raises(InvalidSpec, match=message):
            generate(SynthSpec(**fields))

    def test_the_rate_bound_is_inclusive(self):
        spec = SynthSpec(n_tickers=1, n_days=3, events_per_ticker=0, tweet_rate=1e9,
                         event_tweet_multiplier=0.5)
        assert generate(spec).tweets.total.max() < 2**31 - 1

    @pytest.mark.parametrize("start", [date(1883, 11, 19), date(9999, 9, 1)])
    def test_the_calendar_bounds_are_loadable(self, start, tmp_path):
        spec = SynthSpec(start=start, n_tickers=2, n_days=40, events_per_ticker=1,
                         first_event_day=20)
        ds = generate(spec)
        assert load_dataset(*write_dataset(ds, tmp_path)).tweets == ds.tweets

    def test_names_are_distinct_up_to_the_bound(self):
        names = {_ticker_name(i) for i in range(475_254)}
        assert len(names) == 475_254 and _ticker_name(475_254) in names

    def test_names_the_first_close_out_of_range(self):
        # flat prices until the first event, a NEGATIVE one of SYA on calendar index 130
        spec = SynthSpec(index_vol=0.0, idio_vol=0.0, jump_negative=-1.5)
        day0 = ref_trading_dates(spec.start, spec.n_days)[130]
        with pytest.raises(InvalidSpec, match=f"SYA close on {day0} to -25.0;"):
            generate(spec)

    def test_names_the_index_before_a_ticker(self):
        with pytest.raises(InvalidSpec, match="the index level on"):
            generate(SynthSpec(index_vol=5.0))


# --- the per-day generator the columnar one replaced, kept as its reference ---

REF_SLOT_WEIGHTS = (0.15, 0.10, 0.10, 0.20, 0.15, 0.15, 0.15)
REF_BASE_MIX = (0.15, 0.70, 0.15)
REF_DAY0_MIX = {
    EventPolarity.NEGATIVE: (0.60, 0.30, 0.10),
    EventPolarity.NEUTRAL: REF_BASE_MIX,
    EventPolarity.POSITIVE: (0.10, 0.30, 0.60),
}


def ref_trading_dates(start: date, n: int) -> list[date]:
    dates = []
    d = start
    while len(dates) < n:
        if d.weekday() < 5:
            dates.append(d)
        d += timedelta(days=1)
    return dates


def ref_generate_with_truth(spec: SynthSpec):
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    dates = ref_trading_dates(spec.start, spec.n_days)

    index_returns = rng.normal(0.0, spec.index_vol, size=spec.n_days - 1)
    index_levels = [1000.0]
    for r in index_returns:
        index_levels.append(index_levels[-1] * (1.0 + float(r)))
    index_bars = index_columns(IndexBar(date=d, close=lv) for d, lv in zip(dates, index_levels))

    slot_ts = [
        [_eastern_epoch(d - timedelta(days=1), h) for h in (17, 20)]
        + [_eastern_epoch(d, h) for h in (7, 9, 11, 13, 15)]
        for d in dates
    ]

    bar_columns: tuple[list, ...] = ([], [], [], [])  # code, calendar index, close, volume
    columns: tuple[list[int], ...] = ([], [], [], [], [])  # code, ts, neg, neut, pos
    events: list[EarningsEvent] = []
    truth: list[PlantedEvent] = []
    event_counter = 0

    tickers = tuple(sorted(_ticker_name(ti) for ti in range(spec.n_tickers)))
    for ti in range(spec.n_tickers):
        ticker = _ticker_name(ti)
        code = tickers.index(ticker)
        noise = rng.normal(0.0, spec.idio_vol, size=spec.n_days - 1)

        day0_by_idx: dict[int, EventPolarity] = {}
        elevated: set[int] = set()
        for j in range(spec.events_per_ticker):
            day0_idx = spec.first_event_day + j * spec.event_spacing + min(ti, 6)
            polarity = _CLASS_CYCLE[event_counter % 3]
            event_counter += 1
            after_close = rng.random() < spec.afterclose_fraction
            es = _CLASS_ES[polarity] + float(rng.normal(0.0, spec.es_noise))
            if after_close:
                announce_local = datetime.combine(
                    dates[day0_idx - 1], time(16, 30), tzinfo=EASTERN
                )
                timing = Timing.AFTER_CLOSE
            else:
                announce_local = datetime.combine(
                    dates[day0_idx], time(8, 0), tzinfo=EASTERN
                )
                timing = Timing.BEFORE_OPEN
            announce_at = announce_local.astimezone(UTC)
            events.append(
                EarningsEvent(
                    ticker=ticker,
                    announce_at=announce_at,
                    timing=timing,
                    eps_reported=spec.eps_estimated * (1.0 + es),
                    eps_estimated=spec.eps_estimated,
                )
            )
            truth.append(
                PlantedEvent(
                    ticker=ticker,
                    day0=dates[day0_idx],
                    polarity=polarity,
                    timing=timing,
                    announce_at=announce_at,
                    jump=spec.jump_for(polarity),
                )
            )
            day0_by_idx[day0_idx] = polarity
            elevated.update(
                k for k in (day0_idx - 1, day0_idx, day0_idx + 1) if 0 <= k < spec.n_days
            )

        level = 50.0 + 10.0 * ti
        levels = [level]
        for k in range(1, spec.n_days):
            r = spec.alpha + spec.beta * float(index_returns[k - 1]) + float(noise[k - 1])
            if k in day0_by_idx:
                r += spec.jump_for(day0_by_idx[k])
            level *= 1.0 + r
            levels.append(level)

        for k in range(spec.n_days):
            base_volume = 1_000_000.0 * (2.0 if k in elevated else 1.0)
            volume = int(rng.integers(int(0.8 * base_volume), int(1.2 * base_volume) + 1))
            for column, value in zip(bar_columns, (code, k, levels[k], volume)):
                column.append(value)

            rate = spec.tweet_rate * (
                spec.event_tweet_multiplier if k in elevated else 1.0
            )
            total = int(rng.poisson(rate)) if rate > 0 else 0
            if total == 0:
                continue
            mix = REF_DAY0_MIX[day0_by_idx[k]] if k in day0_by_idx else REF_BASE_MIX
            n_neg, n_neut, n_pos = (int(c) for c in rng.multinomial(total, mix))
            # drawn in label order: neg, neut, pos
            slot_counts = [rng.multinomial(n, REF_SLOT_WEIGHTS) for n in (n_neg, n_neut, n_pos)]
            for s, ts in enumerate(slot_ts[k]):
                c_neg, c_neut, c_pos = (int(counts[s]) for counts in slot_counts)
                if c_neg + c_neut + c_pos == 0:
                    continue
                for column, value in zip(columns, (code, ts, c_neg, c_neut, c_pos)):
                    column.append(value)

    bar_code, bar_day, bar_close, bar_volume = (
        np.array(c, dtype=t) for c, t in zip(bar_columns, (np.int64, np.int64, np.float64, np.int64))
    )
    ds = Dataset(
        bars=DailyBars(tickers, bar_code, np.array(dates, dtype="datetime64[D]")[bar_day],
                       bar_close, bar_volume).canonical(),
        index=index_bars,
        tweets=TweetBuckets(tickers, *(np.array(c, dtype=np.int64) for c in columns)).canonical(),
        events=tuple(sorted(events, key=lambda e: e.key())),
    )
    return ds, tuple(truth)


def ref_write_dataset(ds: Dataset, out: Path) -> list[Path]:
    """The csv.writer emitter the string writer replaced."""
    def write(path, header, rows):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    paths = [out / "prices.csv", out / "index.csv", out / "tweets.csv", out / "events.csv"]
    bars, tw = ds.bars, ds.tweets
    write(paths[0], PRICES_HEADER,
          zip([d.isoformat() for d in bars.day.tolist()],
              [bars.tickers[c] for c in bars.code.tolist()],
              map(repr, bars.close.tolist()), bars.volume.tolist()))
    write(paths[1], INDEX_HEADER, ((b.date.isoformat(), repr(b.close)) for b in records(ds.index)))
    write(paths[2], TWEETS_HEADER, (
        (format_rfc3339(datetime.fromtimestamp(t, timezone.utc)), tw.tickers[c], neg, neut, pos)
        for c, t, neg, neut, pos in zip(tw.code.tolist(), tw.ts.tolist(), tw.n_neg.tolist(),
                                        tw.n_neut.tolist(), tw.n_pos.tolist())
    ))
    write(paths[3], EVENTS_HEADER, (
        (e.ticker, format_rfc3339(e.announce_at), e.timing.value, repr(e.eps_reported),
         repr(e.eps_estimated))
        for e in records(ds.events)
    ))
    return paths


def with_calls(generate_with_truth, spec: SynthSpec):
    """``generate_with_truth(spec)`` and the generator calls it made, in order,
    with their arguments as plain values."""
    calls, base = [], np.random.Generator

    class Recording(base):
        pass

    for name in ("normal", "random", "integers", "poisson", "multinomial"):
        def method(self, *args, _name=name, **kwargs):
            calls.append((_name, [np.asarray(a).tolist() for a in args], kwargs))
            return getattr(base, _name)(self, *args, **kwargs)
        setattr(Recording, name, method)
    with mock.patch.object(np.random, "Generator", Recording):
        return generate_with_truth(spec), calls


def written(write, ds: Dataset) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        return {p.name: p.read_bytes() for p in write(ds, Path(tmp))}


@st.composite
def small_specs(draw):
    n_tickers = draw(st.integers(1, 4))
    n_days = draw(st.integers(2, 40))
    events = draw(st.integers(0, 3))
    spacing = draw(st.integers(1, 8))
    last_first = n_days - 1 - (events - 1) * spacing - min(n_tickers - 1, 6)
    if events and last_first < 1:
        events = 0
    first = draw(st.integers(1, last_first)) if events else 130
    small = st.floats(-0.01, 0.01, allow_subnormal=False)
    return SynthSpec(
        seed=draw(st.integers(0, 2**32)), n_tickers=n_tickers, n_days=n_days,
        start=draw(st.dates(date(2000, 1, 1), date(2030, 12, 31))),
        index_vol=draw(st.sampled_from([0.0, 0.008, 0.03])),
        idio_vol=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.03))),
        alpha=draw(st.one_of(st.sampled_from([0, 1]), small)),
        beta=draw(st.one_of(st.integers(-1, 2), st.floats(-2.0, 2.0))),
        jump_negative=draw(st.floats(-0.2, 0.0)), jump_neutral=draw(small),
        jump_positive=draw(st.floats(0.0, 0.2)),
        events_per_ticker=events, first_event_day=first, event_spacing=spacing,
        tweet_rate=draw(st.one_of(st.sampled_from([0.0, 0.3, 2.0, 200]), st.floats(0.0, 50.0))),
        event_tweet_multiplier=draw(st.sampled_from([0.0, 0.5, 1, 2.4, 30.0])),
        afterclose_fraction=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        eps_estimated=draw(st.floats(0.1, 5.0)), es_noise=draw(st.sampled_from([0.0, 0.01, 0.5])),
    )


class TestColumnarGeneratorEqualsPerDayLoop:
    """The columnar generator makes the same draws in the same order as the
    per-day loop, so datasets, truth and written bytes are identical."""

    @settings(max_examples=80)
    @given(small_specs())
    @example(VECTOR_SPEC)
    @example(SynthSpec(seed=3, n_tickers=3, n_days=40, first_event_day=5, events_per_ticker=2,
                       event_spacing=10, tweet_rate=0.0))
    @example(SynthSpec(seed=4, n_tickers=2, n_days=30, first_event_day=5, events_per_ticker=3,
                       event_spacing=6, event_tweet_multiplier=0.0, tweet_rate=3.0))
    @example(SynthSpec(seed=5, n_tickers=2, n_days=25, first_event_day=3, events_per_ticker=3,
                       event_spacing=1, afterclose_fraction=0.0, idio_vol=0.0, alpha=0, beta=2))
    @example(SynthSpec(seed=6, n_tickers=8, n_days=20, first_event_day=1, events_per_ticker=2,
                       event_spacing=5, afterclose_fraction=1.0, alpha=1, beta=-1))
    @example(SynthSpec(seed=7, n_tickers=2, n_days=2, events_per_ticker=0, tweet_rate=5.0))
    @example(SynthSpec(seed=8, n_tickers=1, n_days=2, first_event_day=1, events_per_ticker=1))
    def test_same_calls_dataset_truth_and_bytes(self, spec):
        (got, got_truth), got_calls = with_calls(generate_with_truth, spec)
        (want, want_truth), want_calls = with_calls(ref_generate_with_truth, spec)
        assert got_calls == want_calls
        assert got_truth == want_truth
        assert (got.bars, got.index, got.tweets, got.events) == (
            want.bars, want.index, want.tweets, want.events)
        for columns in ((got.bars, want.bars), (got.tweets, want.tweets)):
            assert [c.dtype for c in columns[0]._columns()] == [c.dtype for c in columns[1]._columns()]
        assert got.bars.close.tobytes() == want.bars.close.tobytes()
        assert written(write_dataset, got) == written(ref_write_dataset, want)


class TestWriterEqualsCsvWriter:
    def test_loaded_quickstart_rows_shuffled(self, tmp_path):
        src = tmp_path / "src"
        write_dataset(generate(SynthSpec(seed=11, n_tickers=6, n_days=300, events_per_ticker=4,
                                         first_event_day=135, event_spacing=35)), src)
        rng = np.random.default_rng(0)
        for name in ("prices.csv", "tweets.csv", "events.csv"):
            header, *rows = (src / name).read_text().splitlines(keepends=True)
            if name == "prices.csv":  # a ticker's bars must stay in date order
                rows.sort(key=lambda row: row.split(",")[0])
            else:
                rows = [rows[i] for i in rng.permutation(len(rows))]
            (src / name).write_text(header + "".join(rows))
        ds = load_dataset(*(src / f"{n}.csv" for n in ("prices", "index", "tweets", "events")))
        assert written(write_dataset, ds) == written(ref_write_dataset, ds)

    def test_empty_columns(self):
        ds = generate(SynthSpec(n_tickers=1, n_days=3, events_per_ticker=0, tweet_rate=0.0))
        ds = Dataset(bars=ds.bars[:0], index=index_columns(()), tweets=ds.tweets, events=())
        assert written(write_dataset, ds) == written(ref_write_dataset, ds)

    def test_tweet_stamps_at_the_ends_of_time_and_the_dst_changes(self, tmp_path):
        """The tweet stamps are those ``format_rfc3339`` gives, in year 1, on
        9999-12-31 and at the hours the US/Eastern clocks change."""
        hours = [datetime(1, 1, 1, tzinfo=timezone.utc),
                 datetime(2015, 3, 8, 7, tzinfo=timezone.utc),
                 datetime(2015, 11, 1, 6, tzinfo=timezone.utc),
                 datetime(9999, 12, 31, 23, tzinfo=timezone.utc)]
        ds = generate(SynthSpec(n_tickers=1, n_days=3, events_per_ticker=0, tweet_rate=0.0))
        tweets = TweetBuckets(("AAA",), *(np.array(c, dtype=np.int64) for c in (
            [0] * 4, [int(h.timestamp()) for h in hours], [1] * 4, [0] * 4, [2] * 4)))
        ds = Dataset(bars=ds.bars, index=ds.index, tweets=tweets, events=())
        lines = write_dataset(ds, tmp_path)[2].read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == [format_rfc3339(h) for h in hours]
        assert format_rfc3339(hours[0]) == "0001-01-01T00:00:00Z"


class TestBenchInputsPinned:
    """Each bench workload's synth inputs at its default seed match the
    digests the benchmark pins, so a drift in the stream fails here first."""

    def test_synth_digests(self, tmp_path):
        bench_dir = Path(__file__).resolve().parent.parent / "bench"
        sys.path.insert(0, str(bench_dir))
        try:
            from run import WORKLOADS
        finally:
            sys.path.remove(str(bench_dir))
        digests = json.loads((bench_dir / "digests.json").read_text())
        assert WORKLOADS
        for name, w in WORKLOADS.items():
            paths = write_dataset(generate(SynthSpec(**dict(w.spec, seed=w.seed))), tmp_path / name)
            got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
            assert got == digests[name]["synth"], name

import hashlib
from datetime import datetime, timezone

import pytest

from eastudy.alignment import TradingCalendar
from eastudy.errors import InvalidSpec
from eastudy.event_study import fit_market_model
from eastudy.alignment import anchor_event
from eastudy.ingest import load_dataset, write_dataset
from eastudy.model import Timing
from eastudy.returns import daily_returns
from eastudy.sentiment import EventPolarity
from eastudy.synth import SynthSpec, generate, generate_with_truth

from conftest import as_dict, bars_of

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
        assert ds.index[0].close == 1000.0
        assert ds.index[1].close == pytest.approx(1002.4377366380355, abs=0)
        assert ds.bars[0].ticker == "SYA"
        assert ds.bars[0].close == 50.0
        assert ds.tweets[0].hour_start == datetime(2015, 1, 4, 22, 0, tzinfo=timezone.utc)

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
        assert cal.covers_ts(ds.tweets.ts).all()

    def test_event_timing_layout(self):
        ds, truth = generate_with_truth(
            SynthSpec(seed=12, n_tickers=4, n_days=60, events_per_ticker=2,
                      first_event_day=20, event_spacing=15, afterclose_fraction=0.5)
        )
        cal = TradingCalendar.from_dataset(ds)
        truth_by_key = {(t.ticker, t.announce_at): t for t in truth}
        for ev in ds.events:
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
        assert all(b.close == 1000.0 for b in ds.index)
        for ticker in ds.tickers:
            series = daily_returns(bars_of(ds, ticker))
            assert all(v == 0.0 for v in series.values)

    def test_beta_recovery_within_three_standard_errors(self):
        spec = SynthSpec(seed=21, n_tickers=1, n_days=200, events_per_ticker=1,
                         first_event_day=180, beta=1.3, alpha=0.0002,
                         afterclose_fraction=1.0)
        ds, truth = generate_with_truth(spec)
        cal = TradingCalendar.from_dataset(ds)
        anchor = anchor_event(ds.events[0], cal)
        stock = as_dict(daily_returns(bars_of(ds, truth[0].ticker)))
        index = as_dict(daily_returns(ds.index))
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

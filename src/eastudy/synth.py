"""Deterministic synthetic datasets with planted, recoverable structure.

The generator drives a NumPy ``Generator`` seeded with ``PCG64(seed)`` in a
fixed draw order (index returns, then per ticker: idiosyncratic noise,
event draws, tweet draws), so the same spec always produces a bit-identical
dataset. Stock returns follow a market model with configurable alpha/beta,
plus a class-dependent jump on each event's day 0. Tweet volume is elevated
on days -1..+1 around events and the day-0 label mix is tilted toward the
planted jump sign, so the full pipeline can recover the planted classes.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields
from datetime import date, datetime, timedelta

import numpy as np

from .alignment import eastern_instants
from .errors import InvalidSpec
from .model import (
    DailyBars,
    Dataset,
    EarningsEvent,
    EPOCH,
    IndexLevels,
    Timing,
    TweetBuckets,
)
from .sentiment import EventPolarity

# US/Eastern hours from the midnight that starts trading date d: seven tweet slots
# (two evening hours of day d-1, five of d's run-up: all in d's close-delimited
# day), then an AfterClose announcement's 16:30 and a BeforeOpen one's 08:00
_CLOCK_HOURS = np.array((17 - 24, 20 - 24, 7, 9, 11, 13, 15, 16.5, 8))
# Probabilities are float64 arrays: ``multinomial`` takes them without a per-call conversion.
_SLOT_WEIGHTS = np.array((0.15, 0.10, 0.10, 0.20, 0.15, 0.15, 0.15))

_BASE_MIX = np.array((0.15, 0.70, 0.15))  # (neg, neut, pos) on ordinary days
_DAY0_MIX = {
    EventPolarity.NEGATIVE: np.array((0.60, 0.30, 0.10)),
    EventPolarity.NEUTRAL: _BASE_MIX,
    EventPolarity.POSITIVE: np.array((0.10, 0.30, 0.60)),
}
_CLASS_ES = {
    EventPolarity.NEGATIVE: -0.05,
    EventPolarity.NEUTRAL: 0.0,
    EventPolarity.POSITIVE: 0.05,
}
_CLASS_CYCLE = (EventPolarity.NEGATIVE, EventPolarity.NEUTRAL, EventPolarity.POSITIVE)


@dataclass(frozen=True)
class SynthSpec:
    seed: int = 0
    n_tickers: int = 4
    n_days: int = 300
    start: date = date(2015, 1, 5)  # a Monday
    index_vol: float = 0.008
    idio_vol: float = 0.008
    alpha: float = 0.0
    beta: float = 1.0
    jump_negative: float = -0.02
    jump_neutral: float = 0.0
    jump_positive: float = 0.02
    events_per_ticker: int = 4
    first_event_day: int = 130  # trading-date index of the first day 0
    event_spacing: int = 30
    tweet_rate: float = 200.0
    event_tweet_multiplier: float = 2.4
    afterclose_fraction: float = 0.5
    eps_estimated: float = 1.0
    es_noise: float = 0.01

    def jump_for(self, polarity: EventPolarity) -> float:
        return {
            EventPolarity.NEGATIVE: self.jump_negative,
            EventPolarity.NEUTRAL: self.jump_neutral,
            EventPolarity.POSITIVE: self.jump_positive,
        }[polarity]


@dataclass(frozen=True)
class PlantedEvent:
    """Ground truth for one generated announcement."""

    ticker: str
    day0: date
    polarity: EventPolarity
    timing: Timing
    announce_at: datetime
    jump: float


# US/Eastern has kept whole-hour UTC offsets since noon on 1883-11-18
_FIRST_START = date(1883, 11, 19)
_MAX_TICKERS = 26 + 26**2 + 26**3 + 26**4  # the distinct names _ticker_name gives

# the value types a spec field of each default type accepts
_FIELD_TYPES = {int: numbers.Integral, float: numbers.Real, date: date}


def _validate(spec: SynthSpec) -> None:
    for f in fields(spec):
        value, kind = getattr(spec, f.name), type(f.default)
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
            raise InvalidSpec(f"{f.name} must be {kind.__name__}, not {value!r}")
        if kind is float and not abs(value) <= sys.float_info.max:
            raise InvalidSpec(f"{f.name} must be finite, not {value!r}")
    if not 1 <= spec.n_tickers <= _MAX_TICKERS or spec.n_days < 2 or spec.seed < 0:
        raise InvalidSpec(f"need a non-negative seed, 1 to {_MAX_TICKERS} tickers and two trading days")
    # n weekdays span fewer than 2n + 9 days
    if spec.start < _FIRST_START or (date.max - spec.start).days < 2 * spec.n_days + 9:
        raise InvalidSpec(f"the generated calendar must lie between {_FIRST_START} and {date.max}")
    if min(spec.index_vol, spec.idio_vol, spec.tweet_rate, spec.es_noise) < 0:
        raise InvalidSpec("volatilities and rates must be non-negative")
    if not 0 <= spec.afterclose_fraction <= 1:
        raise InvalidSpec("afterclose_fraction must be in [0, 1]")
    if spec.event_tweet_multiplier < 0:
        raise InvalidSpec("event_tweet_multiplier must be non-negative")
    # a day's Poisson total then stays far below ingest's MAX_COUNT
    if spec.tweet_rate * max(spec.event_tweet_multiplier, 1.0) > 1e9:
        raise InvalidSpec("tweet_rate * max(event_tweet_multiplier, 1) must be at most 1e9")
    if spec.events_per_ticker < 0 or spec.event_spacing < 1:
        raise InvalidSpec("invalid event layout")
    if spec.events_per_ticker:
        last = (
            spec.first_event_day
            + (spec.events_per_ticker - 1) * spec.event_spacing
            + min(spec.n_tickers - 1, 6)
        )
        if spec.first_event_day < 1 or last >= spec.n_days:
            raise InvalidSpec("events do not fit inside the generated calendar")


def _trading_dates(start: date, n: int) -> np.ndarray:
    """n consecutive weekdays starting at the first weekday >= start, as datetime64[D]."""
    return np.busday_offset(np.busday_offset(start, 0, roll="forward"), np.arange(n))


def _ticker_name(i: int) -> str:
    # SYA, ..., SYZ, SYAA, ..., SYZZZZ; from _MAX_TICKERS on, the names repeat
    letters = []
    j = i
    while True:
        letters.append(chr(ord("A") + j % 26))
        j //= 26
        if j == 0:
            break
        j -= 1
    return "SY" + "".join(reversed(letters))[-4:]


def generate_with_truth(spec: SynthSpec) -> tuple[Dataset, tuple[PlantedEvent, ...]]:
    """Generate a dataset plus the planted per-event ground truth.

    The only per-ticker-day Python is the generator calls, in the documented
    order; prices, volumes and tweet rows are assembled from arrays. A
    sequential ``cumprod`` of ``1 + r`` multiplies in the order a running
    product would, so the closes are bit-identical to it.
    """
    _validate(spec)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n_days = spec.n_days
    days = _trading_dates(spec.start, n_days)
    dates = days.tolist()

    index_returns = rng.normal(0.0, spec.index_vol, size=n_days - 1)
    index_levels = np.cumprod(np.concatenate(([1000.0], 1.0 + index_returns)))

    # UTC epoch seconds of each date's wall-clock times, shared by every ticker
    local = days.astype(np.int64)[:, None] * 86400 + (_CLOCK_HOURS * 3600).astype(np.int64)
    instants = eastern_instants(local.ravel()).reshape(local.shape)
    slot_hours = (instants[:, :len(_SLOT_WEIGHTS)] // 3600).astype(np.int32)
    after_close, before_open = instants[:, -2].tolist(), instants[:, -1].tolist()

    tickers = tuple(sorted(_ticker_name(ti) for ti in range(spec.n_tickers)))
    closes = np.empty((len(tickers), n_days))  # rows by ticker code
    volumes = np.empty(closes.shape, dtype=np.int64)
    tweets: list = [None] * len(tickers)  # per code: (code, hour, neg, neut, pos) columns
    events: list[EarningsEvent] = []
    truth: list[PlantedEvent] = []

    for ti in range(spec.n_tickers):
        ticker = _ticker_name(ti)
        code = tickers.index(ticker)
        noise = rng.normal(0.0, spec.idio_vol, size=n_days - 1)

        day0s = [spec.first_event_day + j * spec.event_spacing + min(ti, 6)
                 for j in range(spec.events_per_ticker)]
        mixes = [_BASE_MIX] * n_days
        for day0_idx in day0s:
            polarity = _CLASS_CYCLE[len(truth) % 3]
            is_after_close = rng.random() < spec.afterclose_fraction
            es = _CLASS_ES[polarity] + float(rng.normal(0.0, spec.es_noise))
            # AfterClose: 16:30 on the trading date before day 0; BeforeOpen: 08:00 on day 0
            timing, at = ((Timing.AFTER_CLOSE, after_close[day0_idx - 1]) if is_after_close
                          else (Timing.BEFORE_OPEN, before_open[day0_idx]))
            announce_at = EPOCH + timedelta(seconds=at)
            events.append(EarningsEvent(ticker, announce_at, timing,
                                        spec.eps_estimated * (1.0 + es), spec.eps_estimated))
            truth.append(PlantedEvent(ticker, dates[day0_idx], polarity, timing, announce_at,
                                      spec.jump_for(polarity)))
            mixes[day0_idx] = _DAY0_MIX[polarity]
        day0 = np.array(day0s, dtype=np.int64)

        # r[k - 1] is day k's return; the jump lands on day 0
        r = spec.alpha + spec.beta * index_returns + noise
        r[day0 - 1] += [float(t.jump) for t in truth[len(truth) - len(day0s):]]
        closes[code] = np.cumprod(np.concatenate(([50.0 + 10.0 * ti], 1.0 + r)))

        elevated = np.isin(np.arange(n_days), day0[:, None] + np.arange(-1, 2))  # days -1..+1
        base_volume = 1_000_000.0 * np.where(elevated, 2.0, 1.0)
        lows = (0.8 * base_volume).astype(np.int64).tolist()
        highs = ((1.2 * base_volume).astype(np.int64) + 1).tolist()
        rates = (spec.tweet_rate * np.where(elevated, spec.event_tweet_multiplier, 1.0)).tolist()

        volume, drawn, draws = [], [], []
        for k, low, high, rate, mix in zip(range(n_days), lows, highs, rates, mixes):
            volume.append(rng.integers(low, high))
            if rate > 0 and (total := rng.poisson(rate)):
                drawn.append(k)
                # drawn in label order: neg, neut, pos
                draws += [rng.multinomial(n, _SLOT_WEIGHTS) for n in rng.multinomial(total, mix)]
        volumes[code] = volume

        # (day, slot) rows of (neg, neut, pos) counts; rows without a tweet are left
        # out, and the counts (a draw is at most about 1e9) go int32, as TweetBuckets holds them
        block = np.array(draws, dtype=np.int64).reshape(len(drawn), 3, len(_SLOT_WEIGHTS))
        rows = block.transpose(0, 2, 1).reshape(-1, 3)
        keep = rows.any(axis=1)
        tweets[code] = (np.full(np.count_nonzero(keep), code, dtype=np.int32),
                        slot_hours[drawn].ravel()[keep],
                        *rows[keep].T.astype(np.int32))

    levels = np.vstack((index_levels, closes))
    bad = ~(np.isfinite(levels) & (levels > 0))
    if bad.any():
        row, k = divmod(int(np.argmax(bad)), n_days)
        what = f"{tickers[row - 1]} close" if row else "index level"
        raise InvalidSpec(f"the spec drives the {what} on {dates[k]} to {float(levels[row, k])!r}; "
                          "every close and index level must be a positive finite number")
    for e in events:
        if not math.isfinite(e.eps_reported):
            raise InvalidSpec(f"the spec drives {e.ticker}'s reported EPS on "
                              f"{e.announce_at:%Y-%m-%d} to {e.eps_reported!r}; it must be finite")

    ds = Dataset(
        bars=DailyBars(tickers, np.repeat(np.arange(len(tickers), dtype=np.int32), n_days),
                       np.tile(days, len(tickers)),
                       closes.ravel(), volumes.ravel()),
        index=IndexLevels(days, index_levels),
        tweets=TweetBuckets(tickers, *map(np.concatenate, zip(*tweets))),
        events=tuple(sorted(events, key=lambda e: e.key())),
    )
    return ds, tuple(truth)


def generate(spec: SynthSpec) -> Dataset:
    """Generate a dataset; same spec (including seed) gives identical output."""
    return generate_with_truth(spec)[0]

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

import numbers
from dataclasses import dataclass, fields
from datetime import date, datetime, time, timedelta
from zoneinfo import ZoneInfo

import numpy as np

from .alignment import EASTERN
from .errors import InvalidSpec
from .model import (
    DailyBars,
    Dataset,
    EarningsEvent,
    IndexBar,
    Timing,
    TweetBuckets,
    validate_ticker,
)
from .sentiment import EventPolarity

UTC = ZoneInfo("UTC")

# Wall-clock tweet slots for the close-delimited day of trading date d:
# two evening hours on calendar day d-1 plus five hours inside d's session
# run-up. All of them map to d under close-delimited aggregation.
_EVENING_HOURS = (17, 20)
_DAYTIME_HOURS = (7, 9, 11, 13, 15)
_SLOT_WEIGHTS = (0.15, 0.10, 0.10, 0.20, 0.15, 0.15, 0.15)

_BASE_MIX = (0.15, 0.70, 0.15)  # (neg, neut, pos) on ordinary days
_DAY0_MIX = {
    EventPolarity.NEGATIVE: (0.60, 0.30, 0.10),
    EventPolarity.NEUTRAL: _BASE_MIX,
    EventPolarity.POSITIVE: (0.10, 0.30, 0.60),
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


# the value types a spec field of each default type accepts
_FIELD_TYPES = {int: numbers.Integral, float: numbers.Real, date: date}


def _validate(spec: SynthSpec) -> None:
    for f in fields(spec):
        value, kind = getattr(spec, f.name), type(f.default)
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
            raise InvalidSpec(f"{f.name} must be {kind.__name__}, not {value!r}")
    if spec.n_tickers < 1 or spec.n_days < 2:
        raise InvalidSpec("need at least one ticker and two trading days")
    if min(spec.index_vol, spec.idio_vol, spec.tweet_rate, spec.es_noise) < 0:
        raise InvalidSpec("volatilities and rates must be non-negative")
    if not 0 <= spec.afterclose_fraction <= 1:
        raise InvalidSpec("afterclose_fraction must be in [0, 1]")
    if spec.event_tweet_multiplier < 0:
        raise InvalidSpec("event_tweet_multiplier must be non-negative")
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


def _trading_dates(start: date, n: int) -> list[date]:
    """n consecutive weekdays starting at the first weekday >= start."""
    dates = []
    d = start
    while len(dates) < n:
        if d.weekday() < 5:
            dates.append(d)
        d += timedelta(days=1)
    return dates


def _ticker_name(i: int) -> str:
    # SYNA, SYNB, ... SYNZ, SZAA, ...
    letters = []
    j = i
    while True:
        letters.append(chr(ord("A") + j % 26))
        j //= 26
        if j == 0:
            break
        j -= 1
    return validate_ticker("SY" + "".join(reversed(letters))[-4:])


def _eastern_epoch(day: date, hour: int) -> int:
    return int(datetime.combine(day, time(hour, 0), tzinfo=EASTERN).timestamp())


def generate_with_truth(spec: SynthSpec) -> tuple[Dataset, tuple[PlantedEvent, ...]]:
    """Generate a dataset plus the planted per-event ground truth."""
    _validate(spec)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    dates = _trading_dates(spec.start, spec.n_days)

    index_returns = rng.normal(0.0, spec.index_vol, size=spec.n_days - 1)
    index_levels = [1000.0]
    for r in index_returns:
        index_levels.append(index_levels[-1] * (1.0 + float(r)))
    index_bars = tuple(IndexBar(date=d, close=lv) for d, lv in zip(dates, index_levels))

    # UTC epoch seconds of each date's tweet slots, shared by every ticker
    slot_ts = [
        [_eastern_epoch(d - timedelta(days=1), h) for h in _EVENING_HOURS]
        + [_eastern_epoch(d, h) for h in _DAYTIME_HOURS]
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
            mix = _DAY0_MIX[day0_by_idx[k]] if k in day0_by_idx else _BASE_MIX
            n_neg, n_neut, n_pos = (int(c) for c in rng.multinomial(total, mix))
            # drawn in label order: neg, neut, pos
            slot_counts = [rng.multinomial(n, _SLOT_WEIGHTS) for n in (n_neg, n_neut, n_pos)]
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


def generate(spec: SynthSpec) -> Dataset:
    """Generate a dataset; same spec (including seed) gives identical output."""
    return generate_with_truth(spec)[0]

"""CSV ingestion, validation, canonical emission, and staged run output.

Four inputs: daily bars, benchmark index levels, hourly tweet buckets, and
announcement events. Parsing is total: every data row is either accepted
or produces exactly one row-numbered diagnostic; nothing is dropped
silently. ``load_dataset`` raises on the first problem (carrying all
diagnostics), while the ``parse_*`` functions expose the collect-all
behavior directly.

Tweet buckets are parsed straight into columns (``AcceptedTweets``). The
file repeats each hour stamp once per ticker, so the timestamp parse and
whole-hour check run once per distinct stamp text and are reused; every
row still gets every check and its own row-numbered diagnostic.

The trading calendar is implied by the index file: a date is a trading
day iff the index has a bar for it.

Every file a command writes goes through ``OutputDir``: it is staged beside
the output directory and moved in only when the run succeeds.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .alignment import MARKET_CLOSE, MARKET_OPEN, to_eastern
from .errors import InvariantViolation, MissingFile, SchemaMismatch
from .model import (
    DailyBar,
    Dataset,
    EarningsEvent,
    IndexBar,
    TICKER_RE,
    Timing,
    TweetBucket,
    TweetBuckets,
)

PRICES_HEADER = ["date", "ticker", "close", "volume"]
INDEX_HEADER = ["date", "close"]
TWEETS_HEADER = ["hour_start_utc", "ticker", "n_neg", "n_neut", "n_pos"]
EVENTS_HEADER = ["ticker", "announce_at_utc", "timing", "eps_reported", "eps_estimated"]
# largest count per label in one bucket: int64 sums over any file that fits
# in memory stay exact
MAX_COUNT = 2**31 - 1


@dataclass(frozen=True)
class Diagnostic:
    """One rejected row (or header), with its file line number."""

    path: str
    line: int  # physical line number; the header is line 1
    kind: str  # "schema" or "invariant"
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


def parse_rfc3339(text: str) -> datetime:
    """Parse an RFC 3339 timestamp (offset or Z) and normalize to UTC."""
    t = text.strip()
    if t.endswith(("Z", "z")):
        t = t[:-1] + "+00:00"
    parsed = datetime.fromisoformat(t)
    if parsed.tzinfo is None:
        raise ValueError(f"timestamp without UTC offset: {text!r}")
    return parsed.astimezone(timezone.utc)


def format_rfc3339(instant: datetime) -> str:
    return instant.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _read_rows(path: Path, header: list[str]):
    """Yield (lineno, cells) for data rows; raise on a bad header."""
    if not path.exists():
        raise MissingFile(str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise SchemaMismatch(
                f"{path}: empty file, expected header {','.join(header)}"
            ) from None
        if first != header:
            raise SchemaMismatch(
                f"{path}:1: header {','.join(first)!r} does not match "
                f"expected {','.join(header)!r}"
            )
        for lineno, cells in enumerate(reader, start=2):
            yield lineno, cells


def _cell_error(path, lineno, column, message) -> Diagnostic:
    return Diagnostic(str(path), lineno, "schema", f"column {column}: {message}")


def _invariant(path, lineno, message) -> Diagnostic:
    return Diagnostic(str(path), lineno, "invariant", message)


def _parse_date(text: str) -> date:
    return date.fromisoformat(text.strip())


def parse_prices_csv(path: str | Path):
    """Parse prices.csv -> (list[(lineno, DailyBar)], list[Diagnostic])."""
    path = Path(path)
    accepted: list[tuple[int, DailyBar]] = []
    diags: list[Diagnostic] = []
    last_date: dict[str, date] = {}
    for lineno, cells in _read_rows(path, PRICES_HEADER):
        if len(cells) != len(PRICES_HEADER):
            diags.append(
                Diagnostic(str(path), lineno, "schema", f"expected 4 cells, got {len(cells)}")
            )
            continue
        raw_date, raw_ticker, raw_close, raw_volume = cells
        try:
            day = _parse_date(raw_date)
        except ValueError:
            diags.append(_cell_error(path, lineno, "date", f"bad date {raw_date!r}"))
            continue
        ticker = raw_ticker.strip()
        if not TICKER_RE.match(ticker):
            diags.append(_cell_error(path, lineno, "ticker", f"bad ticker {raw_ticker!r}"))
            continue
        try:
            close = float(raw_close)
        except ValueError:
            diags.append(_cell_error(path, lineno, "close", f"not a number: {raw_close!r}"))
            continue
        try:
            volume = int(raw_volume)
        except ValueError:
            diags.append(_cell_error(path, lineno, "volume", f"not an integer: {raw_volume!r}"))
            continue
        if not close > 0:
            diags.append(_invariant(path, lineno, f"close must be positive, got {close}"))
            continue
        if volume < 0:
            diags.append(_invariant(path, lineno, f"volume must be non-negative, got {volume}"))
            continue
        prev = last_date.get(ticker)
        if prev is not None and day <= prev:
            what = "duplicate" if day == prev else "out-of-order"
            diags.append(_invariant(path, lineno, f"{what} bar for {ticker} on {day}"))
            continue
        last_date[ticker] = day
        accepted.append((lineno, DailyBar(ticker=ticker, date=day, close=close, volume=volume)))
    return accepted, diags


def parse_index_csv(path: str | Path):
    path = Path(path)
    accepted: list[tuple[int, IndexBar]] = []
    diags: list[Diagnostic] = []
    prev: date | None = None
    for lineno, cells in _read_rows(path, INDEX_HEADER):
        if len(cells) != len(INDEX_HEADER):
            diags.append(
                Diagnostic(str(path), lineno, "schema", f"expected 2 cells, got {len(cells)}")
            )
            continue
        raw_date, raw_close = cells
        try:
            day = _parse_date(raw_date)
        except ValueError:
            diags.append(_cell_error(path, lineno, "date", f"bad date {raw_date!r}"))
            continue
        try:
            close = float(raw_close)
        except ValueError:
            diags.append(_cell_error(path, lineno, "close", f"not a number: {raw_close!r}"))
            continue
        if not close > 0:
            diags.append(_invariant(path, lineno, f"index level must be positive, got {close}"))
            continue
        if prev is not None and day <= prev:
            what = "duplicate" if day == prev else "out-of-order"
            diags.append(_invariant(path, lineno, f"{what} index bar on {day}"))
            continue
        prev = day
        accepted.append((lineno, IndexBar(date=day, close=close)))
    return accepted, diags


@dataclass(frozen=True)
class AcceptedTweets:
    """The accepted rows of a tweets file, in file order.

    ``lines`` holds each row's physical line number and ``buckets`` its
    columns. Item ``i`` is ``(line, TweetBucket)``, as for the other parsers.
    """

    lines: np.ndarray
    buckets: TweetBuckets

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, i: int) -> tuple[int, TweetBucket]:
        return int(self.lines[i]), self.buckets[i]


def _hour_start(text: str) -> tuple[int, str]:
    """(UTC epoch seconds, "") of a whole-hour stamp, else (0, the problem)."""
    try:
        instant = parse_rfc3339(text)
    except ValueError:
        return 0, "bad"
    if instant.minute or instant.second or instant.microsecond:
        return 0, "part-hour"
    return int(instant.timestamp()), ""


def parse_tweets_csv(path: str | Path):
    """Parse tweets.csv -> (AcceptedTweets, list[Diagnostic])."""
    path = Path(path)
    diags: list[Diagnostic] = []
    n_cells = len(TWEETS_HEADER)
    stamps: dict[str, tuple[int, str]] = {}  # stamp text -> _hour_start(text)
    ints: dict[str, int] = {}  # count cell text -> int(text)
    codes: dict[str, int] = {}  # ticker cell text -> code, in order of first use
    names: dict[str, int] = {}  # ticker name -> code
    seen: set[tuple[int, int]] = set()
    rows: list[int] = []  # line, code, ts, n_neg, n_neut, n_pos of each accepted row
    add_row = rows.extend
    for lineno, cells in _read_rows(path, TWEETS_HEADER):
        if len(cells) != n_cells:
            diags.append(
                Diagnostic(str(path), lineno, "schema", f"expected 5 cells, got {len(cells)}")
            )
            continue
        raw_hour, raw_ticker, raw_neg, raw_neut, raw_pos = cells
        stamp = stamps.get(raw_hour)
        if stamp is None:
            stamp = stamps[raw_hour] = _hour_start(raw_hour)
        ts, problem = stamp
        if problem == "bad":
            diags.append(
                _cell_error(path, lineno, "hour_start_utc", f"bad timestamp {raw_hour!r}")
            )
            continue
        if problem:
            diags.append(
                _invariant(path, lineno, f"hour_start not on a whole hour: {raw_hour!r}")
            )
            continue
        code = codes.get(raw_ticker)
        if code is None:
            ticker = raw_ticker.strip()
            if not TICKER_RE.match(ticker):
                diags.append(_cell_error(path, lineno, "ticker", f"bad ticker {raw_ticker!r}"))
                continue
            code = codes[raw_ticker] = names.setdefault(ticker, len(names))
        try:
            n_neg, n_neut, n_pos = ints[raw_neg], ints[raw_neut], ints[raw_pos]
        except KeyError:
            try:
                n_neg, n_neut, n_pos = int(raw_neg), int(raw_neut), int(raw_pos)
            except ValueError:
                diags.append(
                    _cell_error(path, lineno, "n_neg/n_neut/n_pos", "counts must be integers")
                )
                continue
            ints.update(((raw_neg, n_neg), (raw_neut, n_neut), (raw_pos, n_pos)))
        if not (0 <= n_neg <= MAX_COUNT and 0 <= n_neut <= MAX_COUNT and 0 <= n_pos <= MAX_COUNT):
            if min(n_neg, n_neut, n_pos) < 0:
                diags.append(_invariant(path, lineno, "tweet counts must be non-negative"))
            else:
                diags.append(_invariant(path, lineno, f"tweet counts must be at most {MAX_COUNT}"))
            continue
        key = (code, ts)
        if key in seen:
            diags.append(
                _invariant(path, lineno, f"duplicate bucket for {raw_ticker.strip()} at {raw_hour}")
            )
            continue
        seen.add(key)
        add_row((lineno, code, ts, n_neg, n_neut, n_pos))
    lines, code, ts, n_neg, n_neut, n_pos = np.array(rows, dtype=np.int64).reshape(-1, 6).T
    # renumber the codes so that they follow the sorted ticker names
    tickers = tuple(sorted(names))
    renumber = np.zeros(len(names), dtype=np.int64)
    for new, name in enumerate(tickers):
        renumber[names[name]] = new
    buckets = TweetBuckets(tickers, renumber[code], ts, n_neg, n_neut, n_pos)
    return AcceptedTweets(lines, buckets), diags


def parse_events_csv(path: str | Path):
    path = Path(path)
    accepted: list[tuple[int, EarningsEvent]] = []
    diags: list[Diagnostic] = []
    for lineno, cells in _read_rows(path, EVENTS_HEADER):
        if len(cells) != len(EVENTS_HEADER):
            diags.append(
                Diagnostic(str(path), lineno, "schema", f"expected 5 cells, got {len(cells)}")
            )
            continue
        raw_ticker, raw_at, raw_timing, raw_rep, raw_est = cells
        ticker = raw_ticker.strip()
        if not TICKER_RE.match(ticker):
            diags.append(_cell_error(path, lineno, "ticker", f"bad ticker {raw_ticker!r}"))
            continue
        try:
            announce_at = parse_rfc3339(raw_at)
        except ValueError:
            diags.append(
                _cell_error(path, lineno, "announce_at_utc", f"bad timestamp {raw_at!r}")
            )
            continue
        timing_text = raw_timing.strip()
        try:
            timing = Timing(timing_text)
        except ValueError:
            diags.append(
                _cell_error(
                    path, lineno, "timing",
                    f"{raw_timing!r} not in {{BeforeOpen, AfterClose}}",
                )
            )
            continue
        try:
            eps_reported = float(raw_rep)
            eps_estimated = float(raw_est)
        except ValueError:
            diags.append(
                _cell_error(path, lineno, "eps_reported/eps_estimated", "not a number")
            )
            continue
        local_time = to_eastern(announce_at).time()
        if timing is Timing.BEFORE_OPEN and local_time >= MARKET_OPEN:
            diags.append(
                _invariant(
                    path, lineno,
                    f"{ticker}: BeforeOpen announcement at {local_time} US/Eastern "
                    "(not before 09:30)",
                )
            )
            continue
        if timing is Timing.AFTER_CLOSE and local_time < MARKET_CLOSE:
            diags.append(
                _invariant(
                    path, lineno,
                    f"{ticker}: AfterClose announcement at {local_time} US/Eastern "
                    "(not at/after 16:00)",
                )
            )
            continue
        excluded = eps_estimated == 0.0
        accepted.append(
            (
                lineno,
                EarningsEvent(
                    ticker=ticker,
                    announce_at=announce_at,
                    timing=timing,
                    eps_reported=eps_reported,
                    eps_estimated=eps_estimated,
                    excluded=excluded,
                    exclusion_reason="zero estimate" if excluded else "",
                ),
            )
        )
    return accepted, diags


def load_dataset(
    prices_path: str | Path,
    index_path: str | Path,
    tweets_path: str | Path,
    events_path: str | Path,
) -> Dataset:
    """Load and cross-validate the four inputs into one Dataset.

    Raises MissingFile / SchemaMismatch / InvariantViolation; row-level
    problems are attached to the exception as ``.diagnostics``.
    """
    bars, d1 = parse_prices_csv(prices_path)
    index, d2 = parse_index_csv(index_path)
    tweets, d3 = parse_tweets_csv(tweets_path)
    events, d4 = parse_events_csv(events_path)
    diags = d1 + d2 + d3 + d4

    if not index:
        diags.append(_invariant(Path(index_path), 1, "index file has no usable rows"))
    else:
        index_dates = {b.date for _, b in index}
        bar_tickers = {b.ticker for _, b in bars}
        for lineno, bar in bars:
            if bar.date not in index_dates:
                diags.append(
                    _invariant(
                        Path(prices_path), lineno,
                        f"{bar.ticker} bar on {bar.date} has no index bar (non-trading date)",
                    )
                )
        for lineno, ev in events:
            if ev.ticker not in bar_tickers:
                diags.append(
                    _invariant(
                        Path(events_path), lineno,
                        f"event ticker {ev.ticker} has no price bars",
                    )
                )

    if diags:
        kinds = {d.kind for d in diags}
        summary = f"{len(diags)} problem(s), first: {diags[0]}"
        if "schema" in kinds:
            raise SchemaMismatch(summary, diagnostics=diags)
        raise InvariantViolation(summary, diagnostics=diags)

    return Dataset(
        bars=tuple(sorted((b for _, b in bars), key=lambda b: (b.ticker, b.date))),
        index=tuple(b for _, b in index),
        tweets=tweets.buckets.canonical(),
        events=tuple(sorted((e for _, e in events), key=lambda e: e.key())),
    )


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_dataset(ds: Dataset, out_dir: str | Path) -> list[Path]:
    """Emit the canonical four-file form; re-loading reproduces it exactly."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "prices.csv", out / "index.csv", out / "tweets.csv", out / "events.csv"]
    _write_csv(
        paths[0], PRICES_HEADER,
        ((b.date.isoformat(), b.ticker, repr(b.close), b.volume) for b in ds.bars),
    )
    _write_csv(
        paths[1], INDEX_HEADER,
        ((b.date.isoformat(), repr(b.close)) for b in ds.index),
    )
    tw = ds.tweets
    stamps = {
        t: format_rfc3339(datetime.fromtimestamp(t, timezone.utc))
        for t in np.unique(tw.ts).tolist()
    }
    _write_csv(
        paths[2], TWEETS_HEADER,
        (
            (stamps[t], tw.tickers[c], neg, neut, pos)
            for c, t, neg, neut, pos in zip(
                tw.code.tolist(), tw.ts.tolist(),
                tw.n_neg.tolist(), tw.n_neut.tolist(), tw.n_pos.tolist(),
            )
        ),
    )
    _write_csv(
        paths[3], EVENTS_HEADER,
        (
            (
                e.ticker,
                format_rfc3339(e.announce_at),
                e.timing.value,
                repr(e.eps_reported),
                repr(e.eps_estimated),
            )
            for e in ds.events
        ),
    )
    return paths


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class OutputDir:
    """One run's files, written into a temporary sibling of ``root``:
    ``commit`` moves them into ``root``, ``discard`` deletes them."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.created: list[Path] = []  # staged files, in the order written
        self._stage: Path | None = None

    def stage(self) -> Path:
        """The staging directory, made beside ``root`` on first use."""
        if self._stage is None:
            self.root.parent.mkdir(parents=True, exist_ok=True)
            stage = tempfile.mkdtemp(prefix=f".{self.root.name}.", dir=self.root.parent)
            self._stage = Path(stage)
        return self._stage

    def _add(self, name: str) -> Path:
        path = self.stage() / name
        self.created.append(path)
        return path

    def write_csv(self, name: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
        _write_csv(self._add(name), header, ([_fmt(v) for v in row] for row in rows))

    def write_json(self, name: str, payload: dict) -> None:
        with open(self._add(name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def commit(self) -> None:
        if self._stage is None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        for path in self.created:
            os.replace(path, self.root / path.name)
        self.discard()

    def discard(self) -> None:
        if self._stage is not None:
            shutil.rmtree(self._stage, ignore_errors=True)
            self._stage = None

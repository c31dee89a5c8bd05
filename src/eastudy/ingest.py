"""CSV ingestion, validation, canonical emission, and staged run output.

Four inputs: daily bars, benchmark index levels, hourly tweet buckets, and
announcement events. Parsing is total: every data row is either accepted
or produces exactly one row-numbered diagnostic; nothing is dropped
silently. ``load_dataset`` raises on the first problem (carrying all
diagnostics), while the ``parse_*`` functions expose the collect-all
behavior directly.

Every file is opened and hashed once, and read ``BLOCK_BYTES`` at a time
into blocks of whole lines, each ending at an LF, a CRLF or a lone CR. The
fast path finds each block's cells from its line end and comma offsets and
checks them by byte class, and the accepted rows go into columns sized by
the file's length over the shortest line the fast path accepts
(``*_MIN_LINE``). A fast-path line has exactly the header's width, a
canonical ``YYYY-MM-DD`` date, ``YYYY-MM-DDTHH:00:00Z`` tweet hour or
``YYYY-MM-DDTHH:MM:SSZ`` announcement that exists on the calendar
(``2016-02-30`` does not), a ticker of 1 to 6 bytes of ``[A-Z.]``, counts
and volumes that are plain runs of ASCII digits in range, a close written
as digits with at most one inner ``.``, positive, an EPS figure written the
same way after an optional ``-``, and a timing of exactly ``BeforeOpen`` or
``AfterClose`` whose local-time rule the announcement keeps (read from
``alignment.eastern_offsets``). Every other line goes alone through the row
loop, where the file's row check (such as ``_price_row``) makes every check
with its diagnostic text; a line break always ends a row, even inside
quotes, and a line of malformed UTF-8 or that the csv module cannot read
gets a schema diagnostic. The checks that compare rows (a bar out of date
order, ``_dated_rows``; a repeated bucket or event, ``_repeated``) then run
once over the accepted rows of both paths, in line order, keeping the first
occurrence, and ``_accepted`` ends every parse. So both paths accept the
same rows with the same values and give the same diagnostics in the same order.

A close or an index level must be a positive finite number, and an EPS
figure a finite one; a tweet count is at most ``MAX_COUNT`` and a share
volume at most ``MAX_VOLUME``, so that the columns hold them exactly.

The trading calendar is implied by the index file: a date is a trading
day iff the index has a bar for it.

Every file a command writes goes through ``OutputDir``: it is staged beside
the output directory and moved in only when the run succeeds.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os
import shutil
import stat
import tempfile
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .alignment import FIRST_DAY, MARKET_CLOSE, MARKET_OPEN, eastern_clock, keeps_bell, to_eastern
from .errors import InvalidSpec, InvariantViolation, MissingFile, SchemaMismatch
from .model import (
    EPOCH,
    MICROSECOND,
    DailyBars,
    Dataset,
    Events,
    Frozen,
    IndexLevels,
    TICKER_RE,
    Timing,
    TweetBuckets,
    distinct,
    in_order,
)

# Each header, then the bytes of the shortest line the fast path accepts in
# that file, its newline included: a date or a stamp is 10 or 20 bytes, a
# timing 10, and every other cell at least one.
PRICES_HEADER = ["date", "ticker", "close", "volume"]
PRICES_MIN_LINE = 17  # a date, three one-byte cells, four separators
INDEX_HEADER = ["date", "close"]
INDEX_MIN_LINE = 13  # a date, a one-byte close, two separators
TWEETS_HEADER = ["hour_start_utc", "ticker", "n_neg", "n_neut", "n_pos"]
TWEETS_MIN_LINE = 29  # a stamp, a one-byte ticker, three one-byte counts, five separators
EVENTS_HEADER = ["ticker", "announce_at_utc", "timing", "eps_reported", "eps_estimated"]
EVENTS_MIN_LINE = 38  # a one-byte ticker, a stamp, a timing, two one-byte EPS, five separators
# largest count per label in one bucket: the int32 count columns hold it, and
# int64 sums over any file that fits in memory stay exact
MAX_COUNT = 2**31 - 1
MAX_VOLUME = 2**63 - 1  # largest share volume: the int64 column holds it
BLOCK_BYTES = 1 << 18  # bytes per fast-path read: bounds a block's temporaries
_PAD = 32  # zero bytes around a block, so fixed-width gathers stay inside it
_EPOCH_DAY = EPOCH.date().toordinal()


class Diagnostic(NamedTuple):
    """One rejected row (or header), with its file line number."""

    path: str
    line: int  # physical line number; the header is line 1
    kind: str  # "schema" or "invariant"
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


def raise_for(diags: Sequence[Diagnostic], what: str) -> None:
    """Raise SchemaMismatch if any diagnostic is a schema one, else
    InvariantViolation, carrying them all; do nothing if there are none."""
    if diags:
        error = SchemaMismatch if any(d.kind == "schema" for d in diags) else InvariantViolation
        raise error(f"{len(diags)} {what}, first: {diags[0]}", diagnostics=diags)


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
    """``YYYY-MM-DDTHH:MM:SSZ`` in UTC, a fraction of a second dropped."""
    return instant.astimezone(timezone.utc).replace(tzinfo=None, microsecond=0).isoformat() + "Z"


def _cell_error(path, lineno, column, message) -> Diagnostic:
    return Diagnostic(str(path), lineno, "schema", f"column {column}: {message}")


def _invariant(path, lineno, message) -> Diagnostic:
    return Diagnostic(str(path), lineno, "invariant", message)


# --- the row loop ------------------------------------------------------------


def _header(path: Path, header: list[str], text: str) -> None:
    """Raise SchemaMismatch unless the csv cells of the first line are the header."""
    try:
        first = next(csv.reader([text]))
    except csv.Error:
        first = [text]
    if first != header:
        raise SchemaMismatch(
            f"{path}:1: header {','.join(first)!r} does not match expected {','.join(header)!r}"
        )


Check = Callable[[Path, int, list], "tuple | Diagnostic"]


def _row_loop(path: Path, header: list[str], numbered: Iterable, check: Check):
    """Check each (lineno, text) line alone: one with a byte that is not UTF-8
    (a lone surrogate), that the csv module cannot read or of the wrong width
    gets a diagnostic, any other ``check``, which returns its values or its
    diagnostic. Returns (lines, values, diagnostics)."""
    lines: list[int] = []
    values: list[tuple] = []
    diags: list[Diagnostic] = []
    for lineno, text in numbered:
        if not text.isascii() and any("\udc80" <= c <= "\udcff" for c in text):
            diags.append(Diagnostic(str(path), lineno, "schema", "bytes that are not UTF-8"))
            continue
        try:
            cells = next(csv.reader([text]))
        except csv.Error as exc:  # such as a cell past the csv module's field limit
            diags.append(Diagnostic(str(path), lineno, "schema", f"not a CSV row: {exc}"))
            continue
        if len(cells) != len(header):
            diags.append(Diagnostic(
                str(path), lineno, "schema", f"expected {len(header)} cells, got {len(cells)}"
            ))
            continue
        got = check(path, lineno, cells)
        if isinstance(got, Diagnostic):
            diags.append(got)
        else:
            lines.append(lineno)
            values.append(got)
    return lines, values, diags


def _parse_date(text: str) -> date:
    return date.fromisoformat(text.strip())


def _price_row(path, lineno, cells):
    raw_date, raw_ticker, raw_close, raw_volume = cells
    try:
        day = _parse_date(raw_date)
    except ValueError:
        return _cell_error(path, lineno, "date", f"bad date {raw_date!r}")
    ticker = raw_ticker.strip()
    if not TICKER_RE.match(ticker):
        return _cell_error(path, lineno, "ticker", f"bad ticker {raw_ticker!r}")
    try:
        close = float(raw_close)
    except ValueError:
        return _cell_error(path, lineno, "close", f"not a number: {raw_close!r}")
    try:
        volume = int(raw_volume)
    except ValueError:
        return _cell_error(path, lineno, "volume", f"not an integer: {raw_volume!r}")
    if not (close > 0 and math.isfinite(close)):
        return _invariant(path, lineno, f"close must be a positive finite number, got {close}")
    if volume < 0:
        return _invariant(path, lineno, f"volume must be non-negative, got {volume}")
    if volume > MAX_VOLUME:
        return _invariant(path, lineno, f"volume must be at most {MAX_VOLUME}")
    return _pack(ticker), day.toordinal() - _EPOCH_DAY, close, volume


def _index_row(path, lineno, cells):
    raw_date, raw_close = cells
    try:
        day = _parse_date(raw_date)
    except ValueError:
        return _cell_error(path, lineno, "date", f"bad date {raw_date!r}")
    try:
        close = float(raw_close)
    except ValueError:
        return _cell_error(path, lineno, "close", f"not a number: {raw_close!r}")
    if not (close > 0 and math.isfinite(close)):
        return _invariant(
            path, lineno, f"index level must be a positive finite number, got {close}"
        )
    return day.toordinal() - _EPOCH_DAY, close


@functools.lru_cache(maxsize=None)  # a file repeats each stamp once per ticker
def _hour_start(text: str) -> tuple[int, str]:
    """(UTC epoch seconds, "") of a whole-hour stamp, else (0, the problem)."""
    try:
        instant = parse_rfc3339(text)
    except (ValueError, OverflowError):  # also an instant past a datetime's range
        return 0, "bad"
    if instant.minute or instant.second or instant.microsecond:
        return 0, "part-hour"
    return int(instant.timestamp()), ""


def _tweet_row(path, lineno, cells):
    raw_hour, raw_ticker, raw_neg, raw_neut, raw_pos = cells
    ts, problem = _hour_start(raw_hour)
    if problem == "bad":
        return _cell_error(path, lineno, "hour_start_utc", f"bad timestamp {raw_hour!r}")
    if problem:
        return _invariant(path, lineno, f"hour_start not on a whole hour: {raw_hour!r}")
    ticker = raw_ticker.strip()
    if not TICKER_RE.match(ticker):
        return _cell_error(path, lineno, "ticker", f"bad ticker {raw_ticker!r}")
    try:
        counts = int(raw_neg), int(raw_neut), int(raw_pos)
    except ValueError:
        return _cell_error(path, lineno, "n_neg/n_neut/n_pos", "counts must be integers")
    if min(counts) < 0:
        return _invariant(path, lineno, "tweet counts must be non-negative")
    if max(counts) > MAX_COUNT:
        return _invariant(path, lineno, f"tweet counts must be at most {MAX_COUNT}")
    return _pack(ticker), ts, *counts


# --- the fast path -----------------------------------------------------------


def open_input(path: Path):
    """The file open for reading, and its size; a pipe has no size that could
    bound the columns, so it is read whole first. MissingFile if the path
    cannot be opened or is neither a regular file nor a pipe."""
    try:
        fh = open(path, "rb")
    except OSError as exc:  # also a directory
        raise MissingFile(f"{path}: {exc.strerror}") from None
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        return fh, st.st_size
    with fh:
        if not stat.S_ISFIFO(st.st_mode):
            raise MissingFile(f"{path}: not a regular file or a pipe")
        data = fh.read()
    return io.BytesIO(data), len(data)


def _line_blocks(fh, update) -> Iterator[bytes]:
    """The file's bytes in blocks of whole lines, read ``BLOCK_BYTES`` at a
    time and each passed to ``update``. A line ends at an LF, a CRLF or a
    lone CR, made an LF in its block. A block ends at the last line end read
    so far, so a line longer than a read lengthens its block, and a CR that
    ends a read waits for the next, which may start with the LF of a CRLF."""
    parts: list[bytes] = []
    while (chunk := fh.read(BLOCK_BYTES)) or any(parts):
        update(chunk)
        chunk = chunk or b"\n"  # the bytes after the last line end are one more line
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
        if cut:  # replace copies only a block that holds a CR
            block = b"".join((*parts, chunk[:cut])).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            parts = [chunk[cut:]]
            del chunk  # the read is not held while the block is out
            yield block
        else:
            parts.append(chunk)


def _gather(seg: np.ndarray, start: np.ndarray, width: int) -> np.ndarray:
    """(width, n) bytes of ``seg``: row ``p`` holds byte ``p`` from each start."""
    windows = np.lib.stride_tricks.as_strided(seg, (len(seg) - width + 1, width), (1, 1))
    return np.ascontiguousarray(windows[start].T)


def _tickers(seg, start, size):
    """Each cell of 1 to 6 bytes of ``[A-Z.]`` packed big-endian into an
    int64, so that the values sort as the names do; and a mask of those
    cells. The first byte is below 0x80, so every value is positive."""
    g = _gather(seg, start, 6)
    tail = np.arange(6)[:, None] >= size
    ok = (size >= 1) & (size <= 6) & ((g - 65 <= 25) | (g == 46) | tail).all(axis=0)
    g[tail] = 0
    packed = np.zeros(len(start), dtype=np.int64)
    for byte in g:
        packed = (packed << 8) | byte
    return packed << 16, ok


def _pack(ticker: str) -> int:
    return int.from_bytes(ticker.encode().ljust(8, b"\0"), "big")


def _unpack(packed: int) -> str:
    return packed.to_bytes(8, "big").rstrip(b"\0").decode()


def _digits(seg, start, size, width: int):
    """The value of each cell that is a run of 1 to ``width`` ASCII digits
    (``width`` <= 18), and a mask of those cells."""
    width = max(min(width, int(size.max(initial=1))), 1)  # no wider than the widest cell
    end = start + size
    g = _gather(seg, end - width, width) - 48  # right-aligned; a non-digit wraps above 9
    lead = np.arange(width)[:, None] < width - size  # bytes before the cell
    ok = (size >= 1) & (size <= width) & ((g <= 9) | lead).all(axis=0)
    g[lead] = 0
    value = np.zeros(len(start), dtype=np.int64)
    for digit in g:  # Horner, one digit position at a time
        value = value * 10 + digit
    return value, ok


def _days(g: np.ndarray):
    """Days since 1970-01-01 of each column of ``g`` that starts with a
    ``YYYY-MM-DD`` date that exists, and a mask of those columns."""
    d = g[[0, 1, 2, 3, 5, 6, 8, 9]] - 48
    ok = (d <= 9).all(axis=0) & (g[4] == 45) & (g[7] == 45)
    # int32 holds every value below and keeps a block's temporaries half as large
    century, yy, month, day = (d[i].astype(np.int32) * 10 + d[i + 1] for i in (0, 2, 4, 6))
    year = century * 100 + yy
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    months = np.where(ok, (year - 1970) * 12 + month - 1, 0)
    days = months.astype("datetime64[M]").astype("datetime64[D]") + (day - 1)
    ok &= days.astype("datetime64[M]").astype(np.int64) == months  # the day is in its month
    return days.view(np.int64), ok


_STAMP_FIXED = {10: ord("T"), 13: ord(":"), 16: ord(":"), 19: ord("Z")}


def _stamps(seg, start, size):
    """UTC epoch seconds of each ``YYYY-MM-DDTHH:MM:SSZ`` cell that names a
    real second, a mask of those cells, and the seconds past the hour."""
    g = _gather(seg, start, 20)
    days, ok = _days(g)
    fixed = g[list(_STAMP_FIXED)] == np.array(list(_STAMP_FIXED.values()))[:, None]
    d = g[[11, 12, 14, 15, 17, 18]] - 48
    ok &= (size == 20) & fixed.all(axis=0) & (d <= 9).all(axis=0)
    hour, minute, second = (d[i].astype(np.int32) * 10 + d[i + 1] for i in (0, 2, 4))
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59)
    past_hour = minute * 60 + second
    return days * 86400 + hour * 3600 + past_hour, ok, past_hour


def _decimals(seg, start, size):
    """The value of each cell of up to 32 bytes written as digits with at
    most one inner ``.``, read by NumPy's bytes-to-float conversion (which
    rounds as ``float()`` does); and a mask of those cells."""
    width = min(int(size.max(initial=1)), _PAD)
    g = _gather(seg, start, width)
    tail = np.arange(width)[:, None] >= size
    digit = (g - 48 <= 9) & ~tail
    dot = (g == 46) & ~tail
    last = np.clip(size - 1, 0, width - 1)
    ok = (
        (size >= 1) & (size <= width) & (digit | dot | tail).all(axis=0)
        & (dot.sum(axis=0) <= 1) & digit[0] & digit[last, np.arange(len(start))]
    )
    g[tail | ~ok] = 0
    g[0, ~ok] = 48  # "0": every cell NumPy reads is a number
    return np.ascontiguousarray(g.T).view(f"S{width}").ravel().astype(np.float64), ok


def _price_cells(seg, start, size):
    day, ok = _days(_gather(seg, start[:, 0], 10))
    packed, ok_ticker = _tickers(seg, start[:, 1], size[:, 1])
    close, ok_close = _decimals(seg, start[:, 2], size[:, 2])
    volume, ok_volume = _digits(seg, start[:, 3], size[:, 3], 18)
    ok &= (size[:, 0] == 10) & ok_ticker & ok_close & (close > 0) & ok_volume
    return ok, (packed, day, close, volume)


def _index_cells(seg, start, size):
    day, ok = _days(_gather(seg, start[:, 0], 10))
    close, ok_close = _decimals(seg, start[:, 1], size[:, 1])
    ok &= (size[:, 0] == 10) & ok_close & (close > 0)
    return ok, (day, close)


def _tweet_cells(seg, start, size):
    ts, ok, past_hour = _stamps(seg, start[:, 0], size[:, 0])
    ok &= past_hour == 0
    packed, ok_ticker = _tickers(seg, start[:, 1], size[:, 1])
    ok &= ok_ticker
    counts = []
    for j in (2, 3, 4):  # a column at a time, so each read's temporaries are a third
        count, ok_count = _digits(seg, start[:, j], size[:, j], 10)
        ok &= ok_count & (count <= MAX_COUNT)
        counts.append(count)
    return ok, (packed, ts, *counts)


_TIMINGS = np.frombuffer(b"".join(t.value.encode() for t in Timing), np.uint8).reshape(-1, 10)


def _event_cells(seg, start, size):
    packed, ok = _tickers(seg, start[:, 0], size[:, 0])
    ts, ok_at, _ = _stamps(seg, start[:, 1], size[:, 1])
    timing = (_gather(seg, start[:, 2], 10).T[:, None] == _TIMINGS).all(axis=2)  # row x code
    minus = seg[start[:, 3:]] == 45  # a leading "-": negate the decimal after it
    eps, ok_eps = _decimals(seg, (start[:, 3:] + minus).ravel(), (size[:, 3:] - minus).ravel())
    eps = np.where(minus, -eps.reshape(-1, 2), eps.reshape(-1, 2))
    ok &= ok_at & (size[:, 2] == 10) & timing.any(axis=1) & ok_eps.reshape(-1, 2).all(axis=1)
    code = np.argmax(timing, axis=1).astype(np.int8)
    # the local-time rule, on a local date that a datetime holds
    at, clock = ts * 10**6, np.zeros((2, len(ts)), dtype=np.int64)
    clock[:, ok] = eastern_clock(at[ok])
    ok &= (clock[0] >= FIRST_DAY) & keeps_bell(code, clock[1])
    return ok, (packed, at, code, *eps.T)


def _block_cells(seg, begin, stop, width: int):
    """The lines of a block that have ``width`` cells, and the offset in
    ``seg`` and the length of each of their cells, as (n, width) arrays."""
    commas = np.flatnonzero(seg == 44).astype(stop.dtype)
    upto = np.searchsorted(commas, stop)  # commas before each line's end
    rows = np.flatnonzero(np.diff(upto, prepend=0) == width - 1)
    cut = commas[upto[rows, None] - (width - 1) + np.arange(width - 1)]
    start = np.column_stack((begin[rows], cut + 1))
    return rows, start, np.column_stack((cut, stop[rows])) - start


def _fast_rows(block: bytes, skip: int, width: int, cells, columns: list[np.ndarray], n: int):
    """Read the lines of a block after its first ``skip`` bytes by the fast
    path: the values of the rows that ``cells`` accepts go into ``columns``
    from row ``n`` on. Returns the row after them, the number of lines, and
    (index, text) of each refused line. The block's temporaries end with the
    call."""
    seg = np.zeros(len(block) - skip + 2 * _PAD, dtype=np.uint8)
    seg[_PAD:-_PAD] = np.frombuffer(block, dtype=np.uint8)[skip:]
    offset = np.int32 if len(seg) < 2**31 else np.int64  # of a byte in seg
    stop = np.flatnonzero(seg == 10).astype(offset)  # each line's newline in seg
    begin = np.concatenate(([_PAD], stop[:-1] + 1)).astype(offset)
    rows, start, size = _block_cells(seg, begin, stop, width)
    ok, values = cells(seg, start, size)
    accepted = rows[ok]
    for column, v in zip(columns, values):
        column[n:n + len(accepted)] = v[ok]
    refused = np.ones(len(stop), dtype=bool)
    refused[accepted] = False
    texts = [(i, seg[begin[i]:stop[i]].tobytes().decode("utf-8", "surrogateescape"))
             for i in np.flatnonzero(refused).tolist()]
    return n + len(accepted), len(stop), texts


def _parse(path: Path, header: list[str], min_line: int, cells, check: Check, dtypes):
    """Parse a file by the fast path, with the row loop for each line it refuses.

    The file is opened once (``open_input``) and read in blocks of whole lines
    (``_line_blocks``), every byte fed to one SHA-256. ``cells(seg, start, size)``
    reads a block's rows of the header's width (``start`` and ``size`` give
    each cell's offset in ``seg`` and length) and returns a mask of the rows
    it accepts and their column values; each line it refuses goes alone to
    the row loop, whose ``check`` returns the same values for one row.
    Returns the line numbers (None when the fast path refused no row: then
    row i is line i + 2) and the columns (of ``dtypes``) of the accepted rows
    of both paths in line order, the row loop's diagnostics, and the hex
    SHA-256 of the file's bytes.

    No fast-path line is shorter than ``min_line`` bytes, so the file's size
    over ``min_line`` bounds the rows the fast path accepts: the column
    buffers have that many rows, and the accepted rows are views of them.
    """
    fh, size = open_input(path)
    sha = hashlib.sha256()
    columns = [np.empty(size // min_line, dtype=t) for t in dtypes]
    first, n, slow = 1, 0, []  # first: the line number of a block's first line
    with fh:
        for block in _line_blocks(fh, sha.update):
            skip = 0  # the header's bytes, at the start of the first block
            if first == 1:
                skip = block.index(b"\n") + 1
                _header(path, header, block[:skip - 1].decode("utf-8", "surrogateescape"))
                first = 2
            n, n_lines, refused = _fast_rows(block, skip, len(header), cells, columns, n)
            slow += [(first + i, text) for i, text in refused]
            first += n_lines
    if first == 1:
        raise SchemaMismatch(f"{path}: empty file, expected header {','.join(header)}")
    slow_lines, slow_values, diags = _row_loop(path, header, slow, check)
    lines, columns = None, [c[:n] for c in columns]
    if slow:
        # the fast path accepted each line it did not refuse
        lines = np.concatenate((
            np.setdiff1d(np.arange(2, first), [line for line, _ in slow], assume_unique=True),
            np.array(slow_lines, dtype=np.int64),
        ))
        order = np.argsort(lines, kind="stable")
        lines = lines[order]
        columns = [np.concatenate((c, np.array([v[j] for v in slow_values], dtype=t)))[order]
                   for j, (c, t) in enumerate(zip(columns, dtypes))]
    return lines, columns, diags, sha.hexdigest()


def _line_numbers(lines: np.ndarray | None, rows):
    """The line numbers of accepted rows (an index or an index array), where
    ``lines`` None numbers row i as line i + 2."""
    return rows + 2 if lines is None else lines[rows]


def _ticker_codes(packed: np.ndarray):
    """(sorted ticker names, each row's code into them) of packed tickers."""
    table = distinct(packed)
    return tuple(_unpack(int(v)) for v in table), np.searchsorted(table, packed)


def _repeated(path, lines, code, key, diags, message) -> np.ndarray:
    """A mask of the rows whose (code, key) no earlier row has. Each other
    row gets the diagnostic ``message(row)``."""
    if in_order(code, key):  # before the mask: the check's temporaries set the peak
        return np.ones(len(code), dtype=bool)
    order = np.lexsort((key, code))  # stable: among equal rows, the earliest first
    c, k = code[order], key[order]
    keep = np.ones(len(code), dtype=bool)
    keep[order[1:]] = (c[1:] != c[:-1]) | (k[1:] != k[:-1])
    for i in np.flatnonzero(~keep).tolist():
        diags.append(_invariant(path, int(_line_numbers(lines, i)), message(i)))
    return keep


def _dated_rows(path, lines, code, day, diags, message) -> np.ndarray:
    """A mask of the rows whose day (since 1970-01-01) is after every
    earlier day of their code. Each other row gets the diagnostic
    ``message(row, "duplicate" or "out-of-order", its date)``."""
    keep = np.ones(len(code), dtype=bool)
    if in_order(code, day):
        return keep
    order = np.argsort(code, kind="stable")
    run = code[order] * 2**32 + (day[order] + 2**31)  # each code's days above the last's
    latest = np.maximum.accumulate(run)[:-1]
    late = (code[order][1:] == code[order][:-1]) & (run[1:] <= latest)
    for j in np.flatnonzero(late).tolist():
        i = int(order[j + 1])
        what = "duplicate" if run[j + 1] == latest[j] else "out-of-order"
        on = date.fromordinal(int(day[i]) + _EPOCH_DAY)
        diags.append(_invariant(path, int(_line_numbers(lines, i)), message(i, what, on)))
    keep[order[1:]] = ~late
    return keep


class Accepted(Frozen):
    """The accepted rows of a file, in file order.

    ``lines`` holds each row's physical line number (None when row i is
    line i + 2), ``rows`` their columns (``DailyBars``, ``IndexLevels``,
    ``TweetBuckets`` or ``Events``) and ``digest`` the file's hex SHA-256.
    """

    lines: np.ndarray | None
    rows: DailyBars | IndexLevels | TweetBuckets | Events
    digest: str

    def __len__(self) -> int:
        return len(self.rows)


def _accepted(lines, rows, keep: np.ndarray, diags: list[Diagnostic], digest: str):
    """The end of every parse: the ``Accepted`` rows of ``rows`` in ``keep``,
    with their line numbers, and the diagnostics sorted by line."""
    diags.sort(key=lambda d: d.line)
    if not keep.all():
        lines, rows = _line_numbers(lines, np.flatnonzero(keep)), rows[keep]
    return Accepted(lines, rows, digest), diags


def parse_prices_csv(path: str | Path):
    """Parse prices.csv -> (Accepted bars, list[Diagnostic])."""
    path = Path(path)
    lines, (packed, day, close, volume), diags, digest = _parse(
        path, PRICES_HEADER, PRICES_MIN_LINE, _price_cells, _price_row,
        (np.int64, np.int64, np.float64, np.int64),
    )
    tickers, code = _ticker_codes(packed)
    keep = _dated_rows(path, lines, code, day, diags,
                       lambda i, what, on: f"{what} bar for {tickers[code[i]]} on {on}")
    bars = DailyBars(tickers, code, day.view("datetime64[D]"), close, volume)
    return _accepted(lines, bars, keep, diags, digest)


def parse_index_csv(path: str | Path):
    """Parse index.csv -> (Accepted index levels, list[Diagnostic]); a file
    without an accepted row gets one more diagnostic, on its header line."""
    path = Path(path)
    lines, (day, close), diags, digest = _parse(path, INDEX_HEADER, INDEX_MIN_LINE, _index_cells,
                                                _index_row, (np.int64, np.float64))
    keep = _dated_rows(path, lines, np.zeros(len(day), dtype=np.int64), day, diags,
                       lambda i, what, on: f"{what} index bar on {on}")
    index = IndexLevels(day.view("datetime64[D]"), close)
    accepted, diags = _accepted(lines, index, keep, diags, digest)
    if not len(accepted):
        diags.append(_invariant(path, 1, "index file has no usable rows"))
    return accepted, diags


def parse_tweets_csv(path: str | Path):
    """Parse tweets.csv -> (Accepted tweet buckets, list[Diagnostic])."""
    path = Path(path)
    lines, (packed, ts, *counts), diags, digest = _parse(
        path, TWEETS_HEADER, TWEETS_MIN_LINE, _tweet_cells, _tweet_row,
        (np.int64, np.int64, np.int32, np.int32, np.int32),
    )
    _hour_start.cache_clear()  # the row loop is done: no stamp of this file outlives it
    tickers, code = _ticker_codes(packed)
    # one bucket per (ticker, hour): the first in line order is kept
    keep = _repeated(path, lines, code, ts, diags, lambda i: (
        f"duplicate bucket for {tickers[code[i]]} at {np.datetime64(int(ts[i]), 's')}Z"))
    return _accepted(lines, TweetBuckets(tickers, code, ts, *counts), keep, diags, digest)


def _event_row(path, lineno, cells):
    raw_ticker, raw_at, raw_timing, raw_rep, raw_est = cells
    ticker = raw_ticker.strip()
    if not TICKER_RE.match(ticker):
        return _cell_error(path, lineno, "ticker", f"bad ticker {raw_ticker!r}")
    try:
        announce_at = parse_rfc3339(raw_at)
        local_time = to_eastern(announce_at).time()
    except (ValueError, OverflowError):  # also an instant or a local time past a datetime's range
        return _cell_error(path, lineno, "announce_at_utc", f"bad timestamp {raw_at!r}")
    timing_text = raw_timing.strip()
    try:
        timing = Timing(timing_text)
    except ValueError:
        return _cell_error(
            path, lineno, "timing", f"{raw_timing!r} not in {{BeforeOpen, AfterClose}}"
        )
    try:
        eps_reported = float(raw_rep)
        eps_estimated = float(raw_est)
    except ValueError:
        return _cell_error(path, lineno, "eps_reported/eps_estimated", "not a number")
    if not (math.isfinite(eps_reported) and math.isfinite(eps_estimated)):
        return _cell_error(path, lineno, "eps_reported/eps_estimated", "not a finite number")
    if timing is Timing.BEFORE_OPEN:
        wrong, rule = local_time >= MARKET_OPEN, "not before 09:30"
    else:
        wrong, rule = local_time < MARKET_CLOSE, "not at/after 16:00"
    if wrong:
        return _invariant(
            path, lineno,
            f"{ticker}: {timing.value} announcement at {local_time} US/Eastern ({rule})",
        )
    at = (announce_at - EPOCH) // MICROSECOND
    return _pack(ticker), at, timing.code, eps_reported, eps_estimated


def parse_events_csv(path: str | Path):
    """Parse events.csv -> (Accepted events, list[Diagnostic]).

    An event whose EPS estimate is zero is accepted; ``build_universe`` excludes it."""
    path = Path(path)
    lines, (packed, at, timing, reported, estimated), diags, digest = _parse(
        path, EVENTS_HEADER, EVENTS_MIN_LINE, _event_cells, _event_row,
        (np.int64, np.int64, np.int8, np.float64, np.float64),
    )
    tickers, code = _ticker_codes(packed)
    events = Events(tickers, code, at, timing, reported, estimated)
    # one event per (ticker, instant): the first in line order is kept
    keep = _repeated(path, lines, code, at, diags, lambda i: (
        f"duplicate event for {tickers[code[i]]} at {events.stamps([i])[0]}"))
    return _accepted(lines, events, keep, diags, digest)


def load_dataset(
    prices_path: str | Path,
    index_path: str | Path,
    tweets_path: str | Path,
    events_path: str | Path,
) -> Dataset:
    """Load and cross-validate the four inputs into one Dataset.

    Raises MissingFile / SchemaMismatch / InvariantViolation; row-level
    problems are attached to the exception as ``.diagnostics``. The
    dataset's ``digests`` are the SHA-256 of the bytes the parse read.
    """
    bars, d1 = parse_prices_csv(prices_path)
    index, d2 = parse_index_csv(index_path)
    tweets, d3 = parse_tweets_csv(tweets_path)
    events, d4 = parse_events_csv(events_path)
    diags = d1 + d2 + d3 + d4

    if len(index):
        # the accepted index dates are strictly increasing
        days, rows = index.rows.day, bars.rows
        at = np.minimum(np.searchsorted(days, rows.day), len(days) - 1)
        for i in np.flatnonzero(days[at] != rows.day).tolist():
            ticker = rows.tickers[rows.code[i]]
            diags.append(_invariant(
                Path(prices_path), int(_line_numbers(bars.lines, i)),
                f"{ticker} bar on {rows.day[i]} has no index bar (non-trading date)",
            ))
        ev, present = events.rows, set(bars.rows.tickers)  # each ticker of the table has a bar
        has_bars = np.array([t in present for t in ev.tickers], dtype=bool)
        for i in np.flatnonzero(~has_bars[ev.code]).tolist():
            diags.append(_invariant(Path(events_path), int(_line_numbers(events.lines, i)),
                                    f"event ticker {ev.tickers[ev.code[i]]} has no price bars"))

    raise_for(diags, "problem(s)")
    return Dataset(
        bars=bars.rows.canonical(),
        index=index.rows,
        tweets=tweets.rows.canonical(),
        events=events.rows.canonical(),
        digests=dict(zip(("prices", "index", "tweets", "events"),
                         (f.digest for f in (bars, index, tweets, events)))),
    )


def _write_text(path: Path, text: str) -> None:
    """Write one output file; its OSError names ``path`` for ``cli.main``."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        exc.filename = str(path)
        raise


def _write_lines(path: Path, header: Sequence[str], lines: Iterable[str]) -> None:
    """The header row, then the lines as given, as one string: a dataset
    file or a report. No field of either needs CSV quoting: tickers match
    ``TICKER_RE``, and the rest are dates, stamps, fixed names and numbers."""
    _write_text(path, ",".join(header) + "\n" + "".join(lines))


def _lookup(table: list[str], keys: np.ndarray) -> list[str]:
    """``table[k]`` for each ``k`` of ``keys``."""
    return np.array(table, dtype=object)[keys].tolist()


def write_dataset(ds: Dataset, out_dir: str | Path) -> list[Path]:
    """Emit the canonical four-file form; re-loading reproduces it exactly."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "prices.csv", out / "index.csv", out / "tweets.csv", out / "events.csv"]
    bars, tw = ds.bars, ds.tweets
    days, hours = distinct(bars.day), distinct(tw.ts)
    _write_lines(paths[0], PRICES_HEADER, map(
        "{},{},{!r},{}\n".format,
        _lookup([d.isoformat() for d in days.tolist()], np.searchsorted(days, bars.day)),
        _lookup(list(bars.tickers), bars.code), bars.close.tolist(), bars.volume.tolist(),
    ))
    _write_lines(paths[1], INDEX_HEADER, map("{},{!r}\n".format, ds.index.day.astype(str).tolist(),
                                             ds.index.close.tolist()))
    stamps = [s + "Z" for s in np.datetime_as_string(hours.astype("datetime64[s]")).tolist()]
    _write_lines(paths[2], TWEETS_HEADER, map(
        "{},{},{},{},{}\n".format,
        _lookup(stamps, np.searchsorted(hours, tw.ts)), _lookup(list(tw.tickers), tw.code),
        tw.n_neg.tolist(), tw.n_neut.tolist(), tw.n_pos.tolist(),
    ))
    ev = ds.events
    _write_lines(paths[3], EVENTS_HEADER, map(
        "{},{},{},{!r},{!r}\n".format,
        ev.names.tolist(), ev.stamps(), _lookup([t.value for t in Timing], ev.timing),
        ev.eps_reported.tolist(), ev.eps_estimated.tolist(),
    ))
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
        existing = next(p for p in (self.root, *self.root.parents) if p.exists())
        if not existing.is_dir():
            raise InvalidSpec(f"output directory {self.root}: {existing} is not a directory")
        self.created: list[Path] = []  # staged files, in the order written
        self._stage: Path | None = None
        self._made: list[Path] = []  # the parents of root that stage() made

    def stage(self) -> Path:
        """The staging directory, made beside ``root`` on first use, with the
        parents of ``root`` that are missing."""
        if self._stage is None:
            self._made = [p for p in self.root.parents if not p.exists()]  # deepest first
            self.root.parent.mkdir(parents=True, exist_ok=True)
            stage = tempfile.mkdtemp(prefix=f".{self.root.name}.", dir=self.root.parent)
            self._stage = Path(stage)
        return self._stage

    def _add(self, name: str) -> Path:
        path = self.stage() / name
        self.created.append(path)
        return path

    def write_csv(self, name: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
        _write_lines(self._add(name), header, (",".join(map(_fmt, row)) + "\n" for row in rows))

    def write_json(self, name: str, payload: dict) -> None:
        _write_text(self._add(name), json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def commit(self) -> None:
        if self._stage is None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        for path in self.created:
            os.replace(path, self.root / path.name)
        self.discard()

    def discard(self) -> None:
        """Delete the staging directory, then each parent ``stage`` made that
        is empty, deepest first."""
        if self._stage is not None:
            shutil.rmtree(self._stage, ignore_errors=True)
            self._stage = None
        for parent in self._made:
            try:
                parent.rmdir()
            except OSError:  # not empty: it holds a committed run
                break
        self._made = []

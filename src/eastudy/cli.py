"""Command-line front end: one report registry behind every subcommand.

``pipeline`` runs the reports in ``PIPELINE``; each other report command
runs the one report of its name, so it writes exactly the files of that
name that ``pipeline`` writes under the same settings. One resolver turns
flags, then the JSON config file, then defaults into every command's
settings. Each run builds one event universe (``build_universe``); a
stratum is a mask over it with one label column, the study and the curves
average the rows that ``fit_events`` and ``hold_returns`` measure once per
run from its columns, and the backtest trades from the same universe. Files,
``ingest --emit``'s too, are staged beside their directory and moved in
only when the run succeeds, so a failed run leaves it as it found it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import signal
import sys
import threading
from datetime import date, datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .alignment import TradingCalendar
from .errors import (
    EastudyError,
    InsufficientHistory,
    InvalidSpec,
    InvariantViolation,
    MissingFile,
    SchemaMismatch,
)
from .event_study import StudyConfig, fit_events, study_classes
from .ingest import (
    OutputDir,
    load_dataset,
    open_input,
    parse_index_csv,
    raise_for,
    write_dataset,
)
from .model import INDEX_TICKER, Dataset, Timing
from .reports import (
    CLASS_NAMES,
    STRATA,
    TIMING_NAMES,
    all_thresholds,
    build_universe,
    stratum_labels,
    stratum_thresholds,
    surprise_regressions,
    volume_report,
)
from .sentiment import DailyCounts, sentiment_scores

# exit codes: 0 ok, these three, 2 for an unwritable output, 5 for every other domain error
EXIT_CODES = ((MissingFile, 2), (SchemaMismatch, 3), (InvariantViolation, 4))

INPUTS = ("prices", "index", "tweets", "events")


def _iso(day: date | None) -> str | None:
    return day.isoformat() if day else None


def _read_json(path: str) -> dict:
    """A JSON object from a file: MissingFile if it cannot be opened or is
    neither a regular file nor a pipe, InvalidSpec if malformed."""
    p = Path(path)
    fh, _ = open_input(p)
    try:
        with fh:
            payload = json.loads(fh.read().decode("utf-8"))
    except ValueError as exc:
        raise InvalidSpec(f"{p} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise InvalidSpec(f"{p} must hold a JSON object")
    return payload


def _resolve(args, config: dict, dest: str, *keys: str, default=None):
    """The flag stored at ``dest`` if given, else the nested config value, else default."""
    flag = getattr(args, dest, None)
    if flag is not None:
        return flag
    node = config
    for k in keys:
        if not isinstance(node, dict) or k not in node:
            return default
        node = node[k]
    return node


def _data_paths(args, config: dict, names: Sequence[str] = INPUTS) -> dict[str, str]:
    paths = {}
    for name in names:
        value = _resolve(args, config, name, "data", name)
        if value is None:
            raise MissingFile(f"no path configured for {name}.csv (use --{name} or config)")
        if not isinstance(value, str):
            raise InvalidSpec(f"invalid data.{name} {value!r}: expected a path")
        paths[name] = value
    return paths


def _day(text) -> date | None:
    return date.fromisoformat(text) if text else None


def _number(value):
    """The value if it is a JSON number: an int or a float, not a boolean."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError("expected a number")
    return value


def _int(value) -> int:
    """The value as an integer: a fraction is refused, never rounded away."""
    number = int(_number(value))
    if isinstance(value, float) and number != value:
        raise ValueError("expected a whole number")
    return number


def _float(value) -> float:
    return float(_number(value))


def _pair(value) -> tuple[int, int]:
    lo, hi = value
    return _int(lo), _int(hi)


def _polarity_day(value) -> int:
    if _int(value) not in (0, -1):
        raise ValueError("expected 0 or -1")
    return int(value)


def _spread(value) -> float:
    spread = _float(value)
    if not 0.0 <= spread < math.inf:
        raise ValueError("expected a finite per-share cost of at least 0")
    return spread


def _timing(name) -> Timing:
    by_name = {v: k for k, v in TIMING_NAMES.items()}
    if str(name).lower() not in by_name:
        raise ValueError("expected afterclose or beforeopen")
    return by_name[str(name).lower()]


# setting -> (config keys, default, parser); the flag stored at the
# setting's name, if the command has it, wins over the config
SETTINGS = {
    "until": (("until",), None, _day),
    "polarity_day": (("polarity_day",), 0, _polarity_day),
    "timing": (("timing",), "afterclose", _timing),
    "event_window": (("study", "event_window"), (-1, 10), _pair),
    "estimation_window": (("study", "estimation_window"), 120, _int),
    "significance": (("study", "significance"), 0.01, _float),
    "spread": (("backtest", "spread"), 0.05, _spread),
    "start": (("backtest", "from"), None, _day),
    "end": (("backtest", "to"), None, _day),
    "thresholds_until": (("backtest", "thresholds_until"), None, _day),
    "rel_min": (("volume", "rel_min"), -5, _int),
    "rel_max": (("volume", "rel_max"), 5, _int),
}


def _check_keys(config: dict) -> None:
    """InvalidSpec naming the config's first key that no setting reads, or its
    first section that is not a JSON object; the generator checks ``synth``'s keys."""
    known = {("out",), ("synth",), *(("data", name) for name in INPUTS),
             *(keys for keys, _, _ in SETTINGS.values())}
    sections = {keys[0] for keys in known if len(keys) > 1}
    for key, value in config.items():
        if key in sections | {"synth"} and not isinstance(value, dict):
            raise InvalidSpec(f"invalid {key} {value!r}: expected a JSON object")
        for name in ((key, sub) for sub in value) if key in sections else [(key,)]:
            if name not in known:
                raise InvalidSpec(f"unknown config key {'.'.join(name)}")


def _settings(args, config: dict) -> SimpleNamespace:
    """Every setting of ``SETTINGS``, the data paths and the study config;
    InvalidSpec names the first invalid value."""
    s = SimpleNamespace(paths=_data_paths(args, config))
    for name, (keys, default, parse) in SETTINGS.items():
        value = _resolve(args, config, name, *keys, default=default)
        try:
            setattr(s, name, parse(value))
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise InvalidSpec(f"invalid {'.'.join(keys)} {value!r}: {exc}") from None
    try:
        s.study = StudyConfig(s.event_window, s.estimation_window, s.significance)
    except ValueError as exc:
        raise InvalidSpec(f"invalid study settings: {exc}") from None
    if s.rel_min > s.rel_max:
        raise InvalidSpec(f"invalid volume window: rel_min {s.rel_min} exceeds rel_max {s.rel_max}")
    return s


def _check_windows(s, cal: TradingCalendar) -> None:
    """InvalidSpec for a study window the calendar cannot hold: an estimation
    window, or an event window end, longer than the calendar."""
    for key, days in (("estimation_window", s.estimation_window),
                      ("event_window end", s.event_window[1])):
        if days > len(cal):
            raise InvalidSpec(f"invalid study.{key} {days}: longer than the "
                              f"calendar's {len(cal)} trading days")


def _manifest(out: OutputDir, command: str, effective: dict, inputs: dict[str, str],
              ds: Dataset, tweets_outside: int, extra: dict | None = None) -> None:
    payload = {
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "tool": "eastudy",
        "version": __version__,
        "command": command,
        "config": effective,
        "inputs": inputs,  # input name -> SHA-256
        "outputs": sorted(p.name for p in out.created),
        "dataset": {
            "bars": len(ds.bars),
            "index": len(ds.index),
            "tweets": len(ds.tweets),
            "tweets_outside_calendar": tweets_outside,
            "events": len(ds.events),
        },
        **(extra or {}),
    }
    out.write_json("manifest.json", payload)


def _reasons(entries: Iterable[tuple[str, str, str]]) -> list[dict]:
    return [dict(zip(("ticker", "announce_at", "reason"), entry)) for entry in entries]


def _stratum_file(report: str, timing: Timing, polarity_day: int) -> str:
    tag = "sent0" if polarity_day == 0 else "sentm1"
    return f"{report}_{tag}_{TIMING_NAMES[timing]}.csv"


def _class_rows(xs: Sequence, classes: dict, *series: str) -> list[tuple]:
    """One row per (x, class): x, class name, N and each named series at x."""
    return [
        (x, CLASS_NAMES[pol], c.n_events, *(getattr(c, name)[j] for name in series))
        for j, x in enumerate(xs)
        for pol, c in sorted(classes.items())
    ]


def _emit_score(run) -> None:
    counts, dates = run.universe.counts, run.universe.cal.dates
    ticker_rows, days = np.nonzero(counts.buckets)  # every cell that received a bucket
    labels = counts.labels[:, ticker_rows, days]
    rows = zip([counts.tickers[r] for r in ticker_rows.tolist()],
               [dates[d].isoformat() for d in days.tolist()],
               *labels.tolist(), sentiment_scores(labels.T).tolist())
    header = ["ticker", "trading_date", "n_neg", "n_neut", "n_pos", "sent"]
    run.out.write_csv("scores.csv", header, rows)


def _emit_thresholds(run) -> None:
    # cuts are kept at full precision internally; the report prints the
    # conventional two decimals (negative zero normalized away)
    def two_dp(x: float) -> str:
        return f"{round(x, 2) + 0.0:.2f}"

    rows = (
        (TIMING_NAMES[timing], day, two_dp(th.t_low), two_dp(th.t_high), n)
        for timing, day, th, n in all_thresholds(run.universe)
    )
    run.out.write_csv("thresholds.csv", ["timing", "day", "t_low", "t_high", "n"], rows)


def _emit_returns(run) -> dict:
    ds, dates = run.ds, run.universe.cal.dates
    if len(ds.index) < 2:
        raise InsufficientHistory("need at least two index bars to compute returns")
    # returns between consecutive trading days: one that would span a
    # missing bar is omitted, and counted in the manifest
    prices = ds.prices
    series = [(INDEX_TICKER, prices.index_returns), *zip(prices.tickers, prices.returns)]
    rows = [(ticker, dates[i].isoformat(), r) for ticker, column in series
            for i, r in enumerate(column.tolist()) if not math.isnan(r)]
    run.out.write_csv("returns.csv", ["ticker", "date", "ret"], rows)
    omitted = np.maximum(prices.n_bars - 1, 0).sum() - np.count_nonzero(~np.isnan(prices.returns))
    return {"returns": {"omitted_across_gaps": int(omitted)}}


def _emit_surprise(run) -> None:
    u = run.universe
    kept = ~u.excluded
    rows = zip(u.events.names[kept].tolist(), u.events.stamps(kept), u.surprise[kept].tolist())
    run.out.write_csv("surprise.csv", ["ticker", "announce_at", "es"], rows)


def _skips(key: str, skipped: dict[str, list]) -> dict:
    """Each stratum file's skipped events: under ``key``, or at the top level for one stratum."""
    entries = {name: {"skipped": _reasons(pairs)} for name, pairs in skipped.items()}
    return {key: entries} if len(entries) > 1 else next(iter(entries.values()))


def _emit_study(run) -> dict:
    skipped, u = {}, run.universe
    fits = fit_events(run.ds.prices, u.day0, u.events.code, run.measured, run.s.study)  # once
    for (timing, polarity_day), labels in run.labels.items():
        result = study_classes(fits, u.events, u.stratum(timing), labels, run.s.study)
        name = _stratum_file("study", timing, polarity_day)
        rows = _class_rows(result.taus, result.classes, "car", "var_car", "theta", "significant")
        run.out.write_csv(name, ["tau", "class", "N", "car", "var", "theta", "significant"], rows)
        skipped[name] = result.skipped
    return _skips("studies", skipped)


def _emit_curves(run) -> dict:
    from .trading import curve_classes, hold_returns  # only the curves and the backtest load it

    skipped, u = {}, run.universe
    held = hold_returns(run.ds.prices, u.day0, u.events.code, run.measured)  # once
    for (timing, polarity_day), labels in run.labels.items():
        curves = curve_classes(held, u.events, u.stratum(timing), labels)
        name = _stratum_file("curves", timing, polarity_day)
        rows = _class_rows(curves.days, curves.classes, "stock_mean", "index_mean")
        run.out.write_csv(name, ["d", "class", "N", "stock_rt", "index_rt"], rows)
        skipped[name] = curves.skipped
    return _skips("curves", skipped)


def _emit_backtest(run) -> dict:
    from .trading import run_strategy

    s, sample = run.s, run.universe  # the events the Sent(-1) cuts come from
    if s.thresholds_until is not None:
        sample = sample.until(s.thresholds_until)
    thresholds, n_th = stratum_thresholds(sample, Timing.AFTER_CLOSE, -1)
    ledger = run_strategy(run.ds, thresholds, spread=s.spread, start=s.start, end=s.end,
                          universe=run.universe)
    trades = (
        (t.ticker, t.open_date.isoformat(), t.close_date.isoformat(),
         t.open_price, t.close_price, t.net_return)
        for t in ledger.trades
    )
    header = ["ticker", "open_date", "close_date", "open_px", "close_px", "net_return"]
    run.out.write_csv("trades.csv", header, trades)
    equity = ((d.isoformat(), v, b) for (d, v), (_, b) in zip(ledger.equity, ledger.benchmark))
    run.out.write_csv("equity.csv", ["date", "strategy", "benchmark"], equity)
    print(f"{len(ledger.trades)} trades, final equity {ledger.final_equity:.4f} "
          f"vs benchmark {ledger.final_benchmark:.4f}")
    return {
        "backtest": {
            "n_trades": len(ledger.trades),
            "final_equity": ledger.final_equity,
            "final_benchmark": ledger.final_benchmark,
            "threshold_events": n_th,
            "t_low": thresholds.t_low,
            "t_high": thresholds.t_high,
            "skipped": _reasons(ledger.skipped),
        }
    }


def _emit_regress(run) -> None:
    rows = (
        (fit.stratum, fit.slope, fit.intercept, fit.r_squared, fit.n)
        for fit in surprise_regressions(run.universe)
    )
    run.out.write_csv("regression.csv", ["stratum", "slope", "intercept", "r2", "n"], rows)


def _emit_volume(run) -> None:
    report = volume_report(run.universe, (run.s.rel_min, run.s.rel_max))
    daily = ["timing", "relative_day", "n", "mean_tweets", "se_tweets",
             "mean_share_volume", "se_share_volume"]
    hourly = ["timing", "relative_day", "hour_eastern", "n", "mean_tweets", "se_tweets"]
    run.out.write_csv("volume_daily.csv", daily, report.daily_rows)
    run.out.write_csv("volume_hourly.csv", hourly, report.hourly_rows)
    run.out.write_csv("volume_summary.csv", ["metric", "value"], report.summary_rows)


# report name -> emitter: writes the report's files, returns its manifest entries if any
REPORTS = {
    "score": _emit_score,
    "thresholds": _emit_thresholds,
    "returns": _emit_returns,
    "surprise": _emit_surprise,
    "study": _emit_study,
    "curves": _emit_curves,
    "backtest": _emit_backtest,
    "regress": _emit_regress,
    "volume": _emit_volume,
}
PIPELINE = ("volume", "thresholds", "study", "curves", "backtest", "regress")


def _effective(s, reports: Sequence[str]) -> dict:
    """The settings the reports read, as the manifest records them: the
    pipeline nests each report's own settings under its name, a one-report
    command lists them at the top level. Every report of PIPELINE depends
    on the event sample, so on ``until``."""
    own = {
        "study": {"event_window": list(s.event_window),
                  "estimation_window": s.estimation_window, "significance": s.significance},
        "backtest": {"spread": s.spread, "from": _iso(s.start), "to": _iso(s.end),
                     "thresholds_until": _iso(s.thresholds_until)},
        "volume": {"rel_days": [s.rel_min, s.rel_max]},
    }
    effective = {"until": _iso(s.until)} if set(PIPELINE).intersection(reports) else {}
    if len(reports) > 1:
        effective.update((name, own[name]) for name in reports if name in own)
        return effective
    effective.update(own.get(reports[0], {}))
    if reports[0] in ("study", "curves"):
        effective.update(polarity_day=s.polarity_day, timing=TIMING_NAMES[s.timing])
    return effective


def _cmd_report(args, config, out: OutputDir) -> int:
    """Every report command: ``pipeline`` runs PIPELINE, the others their own report."""
    reports = PIPELINE if args.command == "pipeline" else (args.command,)
    s = _settings(args, config)
    ds = load_dataset(*(s.paths[name] for name in INPUTS))
    universe = build_universe(ds, until=s.until)
    if "study" in reports:
        _check_windows(s, universe.cal)
    strata = STRATA if len(reports) > 1 else [(s.timing, s.polarity_day)]
    # each stratum is labelled once, for both its study and its curves; the
    # study and the curves each measure the events of the strata's timings
    # once, and drop those rows when done, so they never coexist in memory
    labelled = {"study", "curves"}.intersection(reports)
    labels = {st: stratum_labels(universe, *st) for st in strata} if labelled else {}
    measured = np.zeros(len(universe.events), dtype=bool)
    for timing, _ in labels:
        measured |= universe.stratum(timing)
    run = SimpleNamespace(ds=ds, s=s, out=out, universe=universe, labels=labels,
                          measured=measured)
    extra = {"excluded_events": _reasons(universe.dropped)}
    for name in reports:
        extra.update(REPORTS[name](run) or {})
    _manifest(out, args.command, _effective(s, reports), ds.digests, ds,
              universe.counts.outside, extra)
    if len(reports) > 1:
        print(f"pipeline complete: {len(out.created)} files in {out.root}")
    return 0


def _cmd_ingest(args, config, out: OutputDir) -> int:
    s = _settings(args, config)
    ds = load_dataset(*(s.paths[name] for name in INPUTS))
    # the exclusions the study itself makes: the universe's, then the fits'
    universe = build_universe(ds)
    n = len(universe.cal) + 3
    # a window past the calendar skips every event, as one clipped to just past it does
    study = StudyConfig(tuple(min(k, n) for k in s.event_window), min(s.estimation_window, n),
                        s.significance)
    skips = fit_events(ds.prices, universe.day0, universe.events.code, universe.used, study).skips
    print(
        f"loaded {len(ds.bars)} bars, {len(ds.index)} index bars, "
        f"{len(ds.tweets)} tweet buckets, {len(ds.events)} events "
        f"({len(universe.dropped) + sum(map(bool, skips))} excluded by coverage)"
    )
    if args.emit:
        emit = OutputDir(args.emit)
        try:
            emit.created.extend(write_dataset(ds, emit.stage()))
            emit.commit()
        finally:
            emit.discard()
        for path in emit.created:
            print(f"wrote {emit.root / path.name}")
    return 0


def _cmd_calendar(args, config, out: OutputDir) -> int:
    index, diags = parse_index_csv(_data_paths(args, config, ("index",))["index"])
    raise_for(diags, "bad index rows")
    out.write_csv("calendar.csv", ["date"], zip(index.rows.day.astype(str).tolist()))
    return 0


def _synth_spec(args, config):
    from .synth import SynthSpec  # only this command imports the generator

    if args.spec:
        payload = _read_json(args.spec)
    else:
        payload = dict(config.get("synth", {}))
    if args.seed is not None:
        payload["seed"] = args.seed
    try:
        if "start" in payload:
            payload["start"] = date.fromisoformat(payload["start"])
        return SynthSpec(**payload)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"invalid synth spec: {exc}") from None


def _cmd_synth(args, config, out: OutputDir) -> int:
    from .synth import generate

    spec = _synth_spec(args, config)
    ds = generate(spec)
    paths = write_dataset(ds, out.stage())
    out.created.extend(paths)
    for path in paths:
        print(f"wrote {out.root / path.name}")
    effective = dict(vars(spec))  # every field, in order
    effective["start"] = effective["start"].isoformat()
    outside = DailyCounts(ds.tweets, TradingCalendar.from_dataset(ds)).outside
    digests = {p.stem: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    _manifest(out, "synth", effective, digests, ds, outside)
    return 0


FLAGS = {
    **{f"--{name}": {"help": f"{name}.csv path"} for name in INPUTS},
    "--until": {"help": "only use events announced on/before this date (YYYY-MM-DD)"},
    "--polarity-day": {"type": int, "choices": (0, -1)},
    "--timing": {"choices": ("afterclose", "beforeopen")},
    "--estimation-window": {"type": int},
    "--significance": {"type": float},
    "--spread": {"type": float, "help": "per-share round-trip cost"},
    "--from": {"dest": "start", "help": "first date (YYYY-MM-DD)"},
    "--to": {"dest": "end", "help": "last date (YYYY-MM-DD)"},
    "--thresholds-until": {"help": "compute Sent(-1) thresholds only from events up to this date"},
    "--emit": {"help": "write the canonical dataset copy to this directory"},
    "--spec": {"help": "JSON file of generator parameters"},
}
DATA = tuple(f"--{name}" for name in INPUTS)
STRATUM = ("--polarity-day", "--timing")
STUDY = ("--estimation-window", "--significance")
BACKTEST = ("--spread", "--from", "--to", "--thresholds-until")

# command -> (help, flags)
COMMANDS = {
    "ingest": ("load, validate, and summarize the dataset", (*DATA, "--emit")),
    "calendar": ("dump the trading calendar implied by the index", ("--index",)),
    "score": ("daily sentiment scores per ticker", DATA),
    "thresholds": ("tercile polarity thresholds per stratum", (*DATA, "--until")),
    "returns": ("daily raw returns per ticker and for the index", DATA),
    "surprise": ("earnings surprise per event", DATA),
    "study": ("event study CAR series for one stratum", (*DATA, "--until", *STRATUM, *STUDY)),
    "curves": ("mean trade-return curves per polarity class", (*DATA, "--until", *STRATUM)),
    "backtest": ("short-on-negative AfterClose strategy", (*DATA, *BACKTEST)),
    "regress": ("surprise-vs-sentiment regressions per stratum", (*DATA, "--until")),
    "volume": ("tweet and trading volume around announcements", (*DATA, "--until")),
    "synth": ("generate a deterministic synthetic dataset", ("--spec",)),
    "pipeline": ("run every analysis and write a manifest", (*DATA, "--until", *BACKTEST, *STUDY)),
}
HANDLERS = {"ingest": _cmd_ingest, "calendar": _cmd_calendar, "synth": _cmd_synth}


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The parser; of the subcommands, only those named in ``argv`` get their
    flags (every one when it is None): the others are never parsed."""
    parser = argparse.ArgumentParser(
        prog="eastudy",
        description="Sentiment-aligned earnings-announcement event studies.",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--out", default=None, help="output directory (default: out)")
    parser.add_argument("--seed", type=int, default=None, help="override the synth seed")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags if argv is None or name in argv else ():
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(handler=HANDLERS.get(name, _cmd_report))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    out = None
    # for the run's length SIGTERM raises SystemExit(143), so that ``finally``
    # discards the staged files; only the main thread may set a handler
    previous = (signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
                if threading.current_thread() is threading.main_thread() else None)
    try:
        config = _read_json(args.config) if args.config else {}
        _check_keys(config)
        root = args.out or config.get("out") or "out"
        if not isinstance(root, str):
            raise InvalidSpec(f"invalid out {root!r}: expected a path")
        out = OutputDir(root)
        code = args.handler(args, config, out)
        out.commit()
        return code
    except EastudyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for diag in getattr(exc, "diagnostics", [])[:20]:
            print(f"  {diag}", file=sys.stderr)
        return next((code for kind, code in EXIT_CODES if isinstance(exc, kind)), 5)
    except OSError as exc:  # an output that cannot be written, named by its writer
        print(f"error: cannot write {Path(exc.filename or 'output').name}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    finally:
        if out is not None:
            out.discard()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def run() -> int:
    """The console script: ``main``, then ``gc.freeze()``, so that the
    collections at interpreter exit skip the tens of thousands of objects
    the imports and the run left. ``main``, which callers run in-process,
    never freezes."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())

"""Command-line front end: one report registry behind every subcommand.

``pipeline`` runs the reports in ``PIPELINE``; each other report command
runs the one report of its name, so it writes exactly the files of that
name that ``pipeline`` writes under the same settings. One resolver turns
flags, then the JSON config file, then defaults into every command's
settings. Files are staged beside the output directory and moved in only
when the run succeeds, so a failed run leaves it as it found it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields as dataclass_fields
from datetime import date, datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

from . import __version__
from .alignment import TradingCalendar
from .errors import EastudyError, InvalidSpec, InvariantViolation, MissingFile, SchemaMismatch
from .event_study import StudyConfig, aggregate_study, fit_events
from .ingest import OutputDir, format_rfc3339, load_dataset, parse_index_csv, write_dataset
from .model import Dataset, EarningsEvent, Timing
from .reports import (
    CLASS_NAMES,
    TIMING_NAMES,
    all_thresholds,
    build_universe,
    label_stratum,
    stratum_thresholds,
    surprise_regressions,
    volume_report,
)
from .returns import daily_returns, earnings_surprise
from .sentiment import covered_tweets, sentiment_score
from .synth import SynthSpec, generate
from .trading import run_strategy, trade_return_curves

# exit codes: 0 ok, these three, and 5 for every other domain error
EXIT_CODES = ((MissingFile, 2), (SchemaMismatch, 3), (InvariantViolation, 4))

INPUTS = ("prices", "index", "tweets", "events")
# (timing, scoring day) of the four study and curves strata
STRATA = [(timing, day) for timing in (Timing.AFTER_CLOSE, Timing.BEFORE_OPEN) for day in (0, -1)]


def _iso(day: date | None) -> str | None:
    return day.isoformat() if day else None


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_json(path: str) -> dict:
    """A JSON object from a file: MissingFile if absent, InvalidSpec if malformed."""
    p = Path(path)
    if not p.exists():
        raise MissingFile(str(p))
    try:
        with open(p, encoding="utf-8") as fh:
            payload = json.load(fh)
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
        paths[name] = value
    return paths


def _day(text) -> date | None:
    return date.fromisoformat(text) if text else None


def _pair(value) -> tuple[int, int]:
    lo, hi = value
    return int(lo), int(hi)


def _polarity_day(value) -> int:
    if int(value) not in (0, -1):
        raise ValueError("expected 0 or -1")
    return int(value)


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
    "estimation_window": (("study", "estimation_window"), 120, int),
    "significance": (("study", "significance"), 0.01, float),
    "spread": (("backtest", "spread"), 0.05, float),
    "start": (("backtest", "from"), None, _day),
    "end": (("backtest", "to"), None, _day),
    "thresholds_until": (("backtest", "thresholds_until"), None, _day),
    "rel_min": (("volume", "rel_min"), -5, int),
    "rel_max": (("volume", "rel_max"), 5, int),
}


def _settings(args, config: dict) -> SimpleNamespace:
    """Every setting of ``SETTINGS``, the data paths and the study config;
    InvalidSpec names the first invalid value."""
    s = SimpleNamespace(paths=_data_paths(args, config))
    for name, (keys, default, parse) in SETTINGS.items():
        value = _resolve(args, config, name, *keys, default=default)
        try:
            setattr(s, name, parse(value))
        except (TypeError, ValueError) as exc:
            raise InvalidSpec(f"invalid {'.'.join(keys)} {value!r}: {exc}") from None
    try:
        s.study = StudyConfig(s.event_window, s.estimation_window, s.significance)
    except ValueError as exc:
        raise InvalidSpec(f"invalid study settings: {exc}") from None
    return s


def _manifest(out: OutputDir, command: str, effective: dict, paths: dict[str, str],
              ds: Dataset, extra: dict | None = None) -> None:
    outside = covered_tweets(ds.tweets, TradingCalendar.from_dataset(ds))[1]
    payload = {
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "tool": "eastudy",
        "version": __version__,
        "command": command,
        "config": effective,
        "inputs": {name: _sha256(Path(p)) for name, p in paths.items() if Path(p).exists()},
        "outputs": sorted(p.name for p in out.created),
        "dataset": {
            "bars": len(ds.bars),
            "index": len(ds.index),
            "tweets": len(ds.tweets),
            "tweets_outside_calendar": outside,
            "events": len(ds.events),
        },
        **(extra or {}),
    }
    out.write_json("manifest.json", payload)


def _reasons(pairs: Iterable[tuple[EarningsEvent, str]]) -> list[dict]:
    return [
        {"ticker": ev.ticker, "announce_at": format_rfc3339(ev.announce_at), "reason": why}
        for ev, why in pairs
    ]


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
    rows = (
        (c.ticker, c.trading_date.isoformat(), c.n_neg, c.n_neut, c.n_pos,
         sentiment_score(c.n_neg, c.n_neut, c.n_pos))
        for c in run.universe.counts
    )
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


def _emit_returns(run) -> None:
    ds = run.ds
    bars = [ds.bars_by_ticker[ticker] for ticker in ds.tickers]
    series = [daily_returns(ds.index, run.universe.cal)]
    series += [daily_returns(b) for b in bars if len(b) >= 2]
    rows = ((one.ticker, d.isoformat(), r) for one in series for d, r in zip(one.dates, one.values))
    run.out.write_csv("returns.csv", ["ticker", "date", "ret"], rows)


def _emit_surprise(run) -> None:
    rows = (
        (ev.ticker, format_rfc3339(ev.announce_at), earnings_surprise(ev).es)
        for ev in run.ds.events if not ev.excluded
    )
    run.out.write_csv("surprise.csv", ["ticker", "announce_at", "es"], rows)


def _emit_study(run) -> dict:
    studies = {}
    for (timing, polarity_day), labeled in run.labels.items():
        result = aggregate_study(labeled, run.ds, run.s.study)
        name = _stratum_file("study", timing, polarity_day)
        rows = _class_rows(result.taus, result.classes, "car", "var_car", "theta", "significant")
        run.out.write_csv(name, ["tau", "class", "N", "car", "var", "theta", "significant"], rows)
        studies[name] = {"skipped": _reasons(result.skipped)}
    # the one-stratum study command records its skips at the top level
    return {"studies": studies} if len(studies) > 1 else next(iter(studies.values()))


def _emit_curves(run) -> None:
    for (timing, polarity_day), labeled in run.labels.items():
        curves = trade_return_curves(labeled, run.ds)
        rows = _class_rows(curves.days, curves.classes, "stock_mean", "index_mean")
        header = ["d", "class", "N", "stock_rt", "index_rt"]
        run.out.write_csv(_stratum_file("curves", timing, polarity_day), header, rows)


def _emit_backtest(run) -> dict:
    s, sample = run.s, run.universe  # the events the Sent(-1) cuts come from
    if s.thresholds_until is not None:
        sample = sample.until(s.thresholds_until)
    thresholds, n_th = stratum_thresholds(sample, Timing.AFTER_CLOSE, -1)
    ledger = run_strategy(run.ds, thresholds, spread=s.spread, start=s.start, end=s.end,
                          cal=run.universe.cal, day_counts=run.universe.counts)
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
    strata = STRATA if len(reports) > 1 else [(s.timing, s.polarity_day)]
    # each stratum is labelled once, for both its study and its curves
    labelled = {"study", "curves"}.intersection(reports)
    labels = {st: label_stratum(universe, *st) for st in strata} if labelled else {}
    run = SimpleNamespace(ds=ds, s=s, out=out, universe=universe, labels=labels)
    extra = {"excluded_events": _reasons(universe.dropped)}
    for name in reports:
        extra.update(REPORTS[name](run) or {})
    _manifest(out, args.command, _effective(s, reports), s.paths, ds, extra)
    if len(reports) > 1:
        print(f"pipeline complete: {len(out.created)} files in {out.root}")
    return 0


def _cmd_ingest(args, config, out: OutputDir) -> int:
    s = _settings(args, config)
    ds = load_dataset(*(s.paths[name] for name in INPUTS))
    # the exclusions the study itself makes: the universe's, then the fits'
    universe = build_universe(ds)
    _, skipped = fit_events(universe.events, ds, s.study)
    print(
        f"loaded {len(ds.bars)} bars, {len(ds.index)} index bars, "
        f"{len(ds.tweets)} tweet buckets, {len(ds.events)} events "
        f"({len(universe.dropped) + len(skipped)} excluded by coverage)"
    )
    if args.emit:
        for path in write_dataset(ds, args.emit):
            print(f"wrote {path}")
    return 0


def _cmd_calendar(args, config, out: OutputDir) -> int:
    bars, diags = parse_index_csv(_data_paths(args, config, ("index",))["index"])
    if diags:
        message = f"{len(diags)} bad index rows, first: {diags[0]}"
        if any(d.kind == "schema" for d in diags):
            raise SchemaMismatch(message, diags)
        raise InvariantViolation(message, diags)
    out.write_csv("calendar.csv", ["date"], ((b.date.isoformat(),) for _, b in bars))
    return 0


def _synth_spec(args, config) -> SynthSpec:
    if args.spec:
        payload = _read_json(args.spec)
    else:
        payload = dict(config["synth"]) if isinstance(config.get("synth"), dict) else {}
    if args.seed is not None:
        payload["seed"] = args.seed
    try:
        if "start" in payload:
            payload["start"] = date.fromisoformat(payload["start"])
        return SynthSpec(**payload)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"invalid synth spec: {exc}") from None


def _cmd_synth(args, config, out: OutputDir) -> int:
    spec = _synth_spec(args, config)
    ds = generate(spec)
    paths = write_dataset(ds, out.stage())
    out.created.extend(paths)
    for path in paths:
        print(f"wrote {out.root / path.name}")
    effective = {f.name: getattr(spec, f.name) for f in dataclass_fields(SynthSpec)}
    effective["start"] = effective["start"].isoformat()
    _manifest(out, "synth", effective, {p.stem: str(p) for p in paths}, ds)
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


def build_parser() -> argparse.ArgumentParser:
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
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(handler=HANDLERS.get(name, _cmd_report))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = None
    try:
        config = _read_json(args.config) if args.config else {}
        out = OutputDir(args.out or config.get("out") or "out")
        code = args.handler(args, config, out)
        out.commit()
        return code
    except EastudyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for diag in getattr(exc, "diagnostics", [])[:20]:
            print(f"  {diag}", file=sys.stderr)
        return next((code for kind, code in EXIT_CODES if isinstance(exc, kind)), 5)
    finally:
        if out is not None:
            out.discard()


if __name__ == "__main__":
    sys.exit(main())

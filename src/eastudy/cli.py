"""Command-line front end: subcommands, config resolution, report emission.

One JSON config file plus flag overrides (flags win) drives every run; the
effective configuration, input digests, and exclusions land in a manifest
next to the CSV outputs. Report CSVs are byte-identical across reruns with
identical inputs; only the manifest carries a timestamp. On failure every
file created during the run is removed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import fields as dataclass_fields
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__
from .alignment import TradingCalendar
from .errors import (
    EastudyError,
    InvalidSpec,
    InvariantViolation,
    MissingFile,
    SchemaMismatch,
)
from .event_study import StudyConfig, aggregate_study
from .ingest import (
    format_rfc3339,
    load_dataset,
    parse_index_csv,
    validate_event_coverage,
    write_dataset,
)
from .model import Dataset, Timing
from .reports import (
    CLASS_NAMES,
    TIMING_NAMES,
    build_universe,
    all_thresholds,
    label_stratum,
    stratum_thresholds,
    surprise_regressions,
    volume_report,
)
from .returns import daily_returns, earnings_surprise
from .sentiment import covered_tweets, sentiment_score
from .synth import SynthSpec, generate
from .trading import run_strategy, trade_return_curves

EXIT_OK = 0
EXIT_MISSING_FILE = 2
EXIT_SCHEMA = 3
EXIT_INVARIANT = 4
EXIT_DOMAIN = 5


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class OutputDir:
    """Tracks files created during one run so failures leave nothing behind."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.created: list[Path] = []

    def write_csv(self, name: str, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        self.created.append(path)
        return path

    def write_json(self, name: str, payload: dict) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.created.append(path)
        return path

    def discard(self) -> None:
        for path in self.created:
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        self.created.clear()


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise MissingFile(str(p))
    with open(p, encoding="utf-8") as fh:
        return json.load(fh)


def _resolve(flag, config: dict, *keys, default=None):
    """Flag value if given, else the (nested) config value, else default."""
    if flag is not None:
        return flag
    node = config
    for k in keys:
        if not isinstance(node, dict) or k not in node:
            return default
        node = node[k]
    return node


def _data_paths(args, config: dict) -> dict[str, str]:
    paths = {}
    for name in ("prices", "index", "tweets", "events"):
        value = _resolve(getattr(args, name, None), config, "data", name)
        if value is None:
            raise MissingFile(f"no path configured for {name}.csv (use --{name} or config)")
        paths[name] = value
    return paths


def _study_config(args, config: dict) -> StudyConfig:
    est = _resolve(getattr(args, "estimation_window", None), config, "study", "estimation_window", default=120)
    sig = _resolve(getattr(args, "significance", None), config, "study", "significance", default=0.01)
    window = _resolve(None, config, "study", "event_window", default=[-1, 10])
    return StudyConfig(
        event_window=(int(window[0]), int(window[1])),
        estimation_window_length=int(est),
        significance_level=float(sig),
    )


def _parse_day(text: str | None) -> date | None:
    return date.fromisoformat(text) if text else None


def _load(args, config) -> tuple[Dataset, dict[str, str]]:
    paths = _data_paths(args, config)
    ds = load_dataset(paths["prices"], paths["index"], paths["tweets"], paths["events"])
    return ds, paths


def _manifest(out: OutputDir, command: str, effective: dict, paths: dict[str, str],
              ds: Dataset | None = None, extra: dict | None = None) -> None:
    payload = {
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "tool": "eastudy",
        "version": __version__,
        "command": command,
        "config": effective,
        "inputs": {name: _sha256(Path(p)) for name, p in paths.items() if Path(p).exists()},
        "outputs": sorted(p.name for p in out.created),
    }
    if ds is not None:
        payload["dataset"] = {
            "bars": len(ds.bars),
            "index": len(ds.index),
            "tweets": len(ds.tweets),
            "tweets_outside_calendar": covered_tweets(
                ds.tweets, TradingCalendar.from_dataset(ds)
            )[1],
            "events": len(ds.events),
        }
    if extra:
        payload.update(extra)
    out.write_json("manifest.json", payload)


# ---------------------------------------------------------------------------
# report emitters shared by single commands and the pipeline
# ---------------------------------------------------------------------------


def _emit_thresholds(out: OutputDir, universe) -> None:
    # cuts are kept at full precision internally; the report prints the
    # conventional two decimals (negative zero normalized away)
    def two_dp(x: float) -> str:
        return f"{round(x, 2) + 0.0:.2f}"

    rows = [
        (TIMING_NAMES[timing], day, two_dp(th.t_low), two_dp(th.t_high), n)
        for timing, day, th, n in all_thresholds(universe)
    ]
    out.write_csv("thresholds.csv", ["timing", "day", "t_low", "t_high", "n"], rows)


def _study_filename(polarity_day: int, timing: Timing) -> str:
    tag = "sent0" if polarity_day == 0 else "sentm1"
    return f"study_{tag}_{TIMING_NAMES[timing]}.csv"


def _emit_study(out: OutputDir, universe, ds, cfg, polarity_day: int, timing: Timing) -> dict:
    labeled = label_stratum(universe, timing, polarity_day)
    result = aggregate_study(labeled, ds, cfg)
    rows = []
    for j, tau in enumerate(result.taus):
        for pol in sorted(result.classes):
            cs = result.classes[pol]
            rows.append(
                (
                    tau,
                    CLASS_NAMES[pol],
                    cs.n_events,
                    cs.car[j],
                    cs.var_car[j],
                    cs.theta[j],
                    cs.significant[j],
                )
            )
    out.write_csv(
        _study_filename(polarity_day, timing),
        ["tau", "class", "N", "car", "var", "theta", "significant"],
        rows,
    )
    return {
        "skipped": [
            {"ticker": ev.ticker, "announce_at": format_rfc3339(ev.announce_at), "reason": why}
            for ev, why in result.skipped
        ]
    }


def _emit_curves(out: OutputDir, universe, ds, polarity_day: int, timing: Timing) -> None:
    labeled = label_stratum(universe, timing, polarity_day)
    curves = trade_return_curves(labeled, ds)
    tag = "sent0" if polarity_day == 0 else "sentm1"
    rows = []
    for j, d in enumerate(curves.days):
        for pol in sorted(curves.classes):
            c = curves.classes[pol]
            rows.append((d, CLASS_NAMES[pol], c.n_events, c.stock_mean[j], c.index_mean[j]))
    out.write_csv(
        f"curves_{tag}_{TIMING_NAMES[timing]}.csv",
        ["d", "class", "N", "stock_rt", "index_rt"],
        rows,
    )


def _emit_backtest(out: OutputDir, universe, ds, spread: float,
                   start: date | None, end: date | None,
                   thresholds_until: date | None) -> dict:
    if thresholds_until is None:
        threshold_universe = universe
    else:
        threshold_universe = universe.until(thresholds_until)
    thresholds, n_th = stratum_thresholds(threshold_universe, Timing.AFTER_CLOSE, -1)
    ledger = run_strategy(ds, thresholds, spread=spread, start=start, end=end,
                          cal=universe.cal, day_counts=universe.counts)
    out.write_csv(
        "trades.csv",
        ["ticker", "open_date", "close_date", "open_px", "close_px", "net_return"],
        (
            (t.ticker, t.open_date.isoformat(), t.close_date.isoformat(),
             t.open_price, t.close_price, t.net_return)
            for t in ledger.trades
        ),
    )
    out.write_csv(
        "equity.csv",
        ["date", "strategy", "benchmark"],
        (
            (d.isoformat(), v, b)
            for (d, v), (_, b) in zip(ledger.equity, ledger.benchmark)
        ),
    )
    return {
        "backtest": {
            "n_trades": len(ledger.trades),
            "final_equity": ledger.final_equity,
            "final_benchmark": ledger.final_benchmark,
            "threshold_events": n_th,
            "t_low": thresholds.t_low,
            "t_high": thresholds.t_high,
            "skipped": [
                {"ticker": ev.ticker, "announce_at": format_rfc3339(ev.announce_at), "reason": why}
                for ev, why in ledger.skipped
            ],
        }
    }


def _emit_regression(out: OutputDir, universe) -> None:
    rows = [
        (fit.stratum, fit.slope, fit.intercept, fit.r_squared, fit.n)
        for fit in surprise_regressions(universe)
    ]
    out.write_csv("regression.csv", ["stratum", "slope", "intercept", "r2", "n"], rows)


def _emit_volume(out: OutputDir, universe, rel_days: tuple[int, int]) -> None:
    report = volume_report(universe, rel_days)
    out.write_csv(
        "volume_daily.csv",
        ["timing", "relative_day", "n", "mean_tweets", "se_tweets",
         "mean_share_volume", "se_share_volume"],
        report.daily_rows,
    )
    out.write_csv(
        "volume_hourly.csv",
        ["timing", "relative_day", "hour_eastern", "n", "mean_tweets", "se_tweets"],
        report.hourly_rows,
    )
    out.write_csv("volume_summary.csv", ["metric", "value"], report.summary_rows)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_ingest(args, config, out: OutputDir) -> int:
    ds, paths = _load(args, config)
    coverage = validate_event_coverage(ds, _study_config(args, config))
    n_excluded = sum(1 for _, rep in coverage if rep.excluded)
    print(
        f"loaded {len(ds.bars)} bars, {len(ds.index)} index bars, "
        f"{len(ds.tweets)} tweet buckets, {len(ds.events)} events "
        f"({n_excluded} excluded by coverage)"
    )
    if args.emit:
        for path in write_dataset(ds, args.emit):
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_calendar(args, config, out: OutputDir) -> int:
    index_path = _resolve(args.index, config, "data", "index")
    if index_path is None:
        raise MissingFile("no path configured for index.csv")
    bars, diags = parse_index_csv(index_path)
    if diags:
        message = f"{len(diags)} bad index rows, first: {diags[0]}"
        if any(d.kind == "schema" for d in diags):
            raise SchemaMismatch(message, diags)
        raise InvariantViolation(message, diags)
    out.write_csv("calendar.csv", ["date"], ((b.date.isoformat(),) for _, b in bars))
    return EXIT_OK


def _cmd_score(args, config, out: OutputDir) -> int:
    ds, paths = _load(args, config)
    rows = [
        (
            c.ticker,
            c.trading_date.isoformat(),
            c.n_neg,
            c.n_neut,
            c.n_pos,
            sentiment_score(c.n_neg, c.n_neut, c.n_pos),
        )
        for c in build_universe(ds).counts
    ]
    out.write_csv(
        "scores.csv", ["ticker", "trading_date", "n_neg", "n_neut", "n_pos", "sent"], rows
    )
    _manifest(out, "score", {}, paths, ds)
    return EXIT_OK


def _cmd_thresholds(args, config, out: OutputDir) -> int:
    ds, paths = _load(args, config)
    universe = build_universe(ds, until=_parse_day(args.until))
    _emit_thresholds(out, universe)
    _manifest(out, "thresholds", {"until": args.until}, paths, ds)
    return EXIT_OK


def _cmd_returns(args, config, out: OutputDir) -> int:
    ds, paths = _load(args, config)
    cal = TradingCalendar.from_dataset(ds)
    rows = []
    index_series = daily_returns(ds.index, cal)
    rows.extend(
        (index_series.ticker, d.isoformat(), r)
        for d, r in zip(index_series.dates, index_series.values)
    )
    for ticker in ds.tickers:
        bars = ds.bars_by_ticker[ticker]
        if len(bars) < 2:
            continue
        series = daily_returns(bars)
        rows.extend((ticker, d.isoformat(), r) for d, r in zip(series.dates, series.values))
    out.write_csv("returns.csv", ["ticker", "date", "ret"], rows)
    _manifest(out, "returns", {}, paths, ds)
    return EXIT_OK


def _cmd_surprise(args, config, out: OutputDir) -> int:
    ds, paths = _load(args, config)
    rows = []
    for ev in ds.events:
        if ev.excluded:
            continue
        rows.append((ev.ticker, format_rfc3339(ev.announce_at), earnings_surprise(ev).es))
    out.write_csv("surprise.csv", ["ticker", "announce_at", "es"], rows)
    _manifest(out, "surprise", {}, paths, ds)
    return EXIT_OK


def _cmd_study(args, config, out: OutputDir) -> int:
    ds, paths = _load(args, config)
    cfg = _study_config(args, config)
    polarity_day = int(_resolve(args.polarity_day, config, "polarity_day", default=0))
    timing = _timing_from_name(_resolve(args.timing, config, "timing", default="afterclose"))
    universe = build_universe(ds, until=_parse_day(args.until))
    extra = _emit_study(out, universe, ds, cfg, polarity_day, timing)
    _manifest(
        out, "study",
        {"polarity_day": polarity_day, "timing": TIMING_NAMES[timing], "until": args.until},
        paths, ds, extra,
    )
    return EXIT_OK


def _cmd_curves(args, config, out: OutputDir) -> int:
    ds, paths = _load(args, config)
    polarity_day = int(_resolve(args.polarity_day, config, "polarity_day", default=0))
    timing = _timing_from_name(_resolve(args.timing, config, "timing", default="afterclose"))
    universe = build_universe(ds, until=_parse_day(args.until))
    _emit_curves(out, universe, ds, polarity_day, timing)
    _manifest(
        out, "curves",
        {"polarity_day": polarity_day, "timing": TIMING_NAMES[timing], "until": args.until},
        paths, ds,
    )
    return EXIT_OK


def _cmd_backtest(args, config, out: OutputDir) -> int:
    ds, paths = _load(args, config)
    spread = float(_resolve(args.spread, config, "backtest", "spread", default=0.05))
    start = _parse_day(_resolve(args.start, config, "backtest", "from"))
    end = _parse_day(_resolve(args.end, config, "backtest", "to"))
    th_until = _parse_day(_resolve(args.thresholds_until, config, "backtest", "thresholds_until"))
    universe = build_universe(ds)
    extra = _emit_backtest(out, universe, ds, spread, start, end, th_until)
    _manifest(
        out, "backtest",
        {"spread": spread, "from": str(start), "to": str(end),
         "thresholds_until": str(th_until)},
        paths, ds, extra,
    )
    print(
        f"{extra['backtest']['n_trades']} trades, final equity "
        f"{extra['backtest']['final_equity']:.4f} vs benchmark "
        f"{extra['backtest']['final_benchmark']:.4f}"
    )
    return EXIT_OK


def _cmd_regress(args, config, out: OutputDir) -> int:
    ds, paths = _load(args, config)
    universe = build_universe(ds, until=_parse_day(args.until))
    _emit_regression(out, universe)
    _manifest(out, "regress", {"until": args.until}, paths, ds)
    return EXIT_OK


def _cmd_volume(args, config, out: OutputDir) -> int:
    ds, paths = _load(args, config)
    rel = config.get("volume", {}) if isinstance(config.get("volume"), dict) else {}
    rel_days = (int(rel.get("rel_min", -5)), int(rel.get("rel_max", 5)))
    universe = build_universe(ds, until=_parse_day(args.until))
    _emit_volume(out, universe, rel_days)
    _manifest(out, "volume", {"until": args.until, "rel_days": list(rel_days)}, paths, ds)
    return EXIT_OK


def _synth_spec(args, config) -> SynthSpec:
    spec_path = args.spec
    payload = {}
    if spec_path:
        p = Path(spec_path)
        if not p.exists():
            raise MissingFile(str(p))
        with open(p, encoding="utf-8") as fh:
            payload = json.load(fh)
    elif isinstance(config.get("synth"), dict):
        payload = dict(config["synth"])
    known = {f.name for f in dataclass_fields(SynthSpec)}
    unknown = set(payload) - known
    if unknown:
        raise InvalidSpec(f"unknown synth spec keys: {sorted(unknown)}")
    if "start" in payload:
        payload["start"] = date.fromisoformat(payload["start"])
    if args.seed is not None:
        payload["seed"] = args.seed
    return SynthSpec(**payload)


def _cmd_synth(args, config, out: OutputDir) -> int:
    spec = _synth_spec(args, config)
    ds = generate(spec)
    written = {}
    for path in write_dataset(ds, out.root):
        out.created.append(path)
        written[path.stem] = str(path)
        print(f"wrote {path}")
    effective = {f.name: getattr(spec, f.name) for f in dataclass_fields(SynthSpec)}
    effective["start"] = effective["start"].isoformat()
    _manifest(out, "synth", effective, written, ds)
    return EXIT_OK


def _cmd_pipeline(args, config, out: OutputDir) -> int:
    ds, paths = _load(args, config)
    cfg = _study_config(args, config)
    until = _parse_day(_resolve(args.until, config, "until"))
    universe = build_universe(ds, until=until)

    rel = config.get("volume", {}) if isinstance(config.get("volume"), dict) else {}
    rel_days = (int(rel.get("rel_min", -5)), int(rel.get("rel_max", 5)))
    _emit_volume(out, universe, rel_days)
    _emit_thresholds(out, universe)

    study_extra: dict = {"studies": {}}
    for timing in (Timing.AFTER_CLOSE, Timing.BEFORE_OPEN):
        for polarity_day in (0, -1):
            extra = _emit_study(out, universe, ds, cfg, polarity_day, timing)
            study_extra["studies"][_study_filename(polarity_day, timing)] = extra
            _emit_curves(out, universe, ds, polarity_day, timing)

    spread = float(_resolve(args.spread, config, "backtest", "spread", default=0.05))
    start = _parse_day(_resolve(args.start, config, "backtest", "from"))
    end = _parse_day(_resolve(args.end, config, "backtest", "to"))
    th_until = _parse_day(_resolve(args.thresholds_until, config, "backtest", "thresholds_until"))
    backtest_extra = _emit_backtest(out, universe, ds, spread, start, end, th_until)

    _emit_regression(out, universe)

    effective = {
        "until": str(until) if until else None,
        "study": {
            "event_window": list(cfg.event_window),
            "estimation_window": cfg.estimation_window_length,
            "significance": cfg.significance_level,
        },
        "backtest": {
            "spread": spread,
            "from": str(start) if start else None,
            "to": str(end) if end else None,
            "thresholds_until": str(th_until) if th_until else None,
        },
        "volume": {"rel_days": list(rel_days)},
    }
    exclusions = [
        {"ticker": ev.ticker, "announce_at": format_rfc3339(ev.announce_at), "reason": why}
        for ev, why in universe.dropped
    ]
    _manifest(
        out, "pipeline", effective, paths, ds,
        {"excluded_events": exclusions, **study_extra, **backtest_extra},
    )
    print(f"pipeline complete: {len(out.created)} files in {out.root}")
    return EXIT_OK


def _timing_from_name(name: str) -> Timing:
    try:
        return {v: k for k, v in TIMING_NAMES.items()}[name.lower()]
    except KeyError:
        raise EastudyError(f"unknown timing {name!r}, expected afterclose|beforeopen") from None


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prices", help="prices.csv path")
    p.add_argument("--index", help="index.csv path")
    p.add_argument("--tweets", help="tweets.csv path")
    p.add_argument("--events", help="events.csv path")


def _add_until(p: argparse.ArgumentParser) -> None:
    p.add_argument("--until", help="only use events announced on/before this date (YYYY-MM-DD)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eastudy",
        description="Sentiment-aligned earnings-announcement event studies.",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--out", default=None, help="output directory (default: out)")
    parser.add_argument("--seed", type=int, default=None, help="override the synth seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load, validate, and summarize the dataset")
    _add_data_flags(p)
    p.add_argument("--emit", help="write the canonical dataset copy to this directory")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("calendar", help="dump the trading calendar implied by the index")
    p.add_argument("--index", help="index.csv path")
    p.set_defaults(handler=_cmd_calendar)

    p = sub.add_parser("score", help="daily sentiment scores per ticker")
    _add_data_flags(p)
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("thresholds", help="tercile polarity thresholds per stratum")
    _add_data_flags(p)
    _add_until(p)
    p.set_defaults(handler=_cmd_thresholds)

    p = sub.add_parser("returns", help="daily raw returns per ticker and for the index")
    _add_data_flags(p)
    p.set_defaults(handler=_cmd_returns)

    p = sub.add_parser("surprise", help="earnings surprise per event")
    _add_data_flags(p)
    p.set_defaults(handler=_cmd_surprise)

    p = sub.add_parser("study", help="event study CAR series for one stratum")
    _add_data_flags(p)
    _add_until(p)
    p.add_argument("--polarity-day", type=int, choices=(0, -1), default=None)
    p.add_argument("--timing", choices=("afterclose", "beforeopen"), default=None)
    p.add_argument("--estimation-window", type=int, default=None)
    p.add_argument("--significance", type=float, default=None)
    p.set_defaults(handler=_cmd_study)

    p = sub.add_parser("curves", help="mean trade-return curves per polarity class")
    _add_data_flags(p)
    _add_until(p)
    p.add_argument("--polarity-day", type=int, choices=(0, -1), default=None)
    p.add_argument("--timing", choices=("afterclose", "beforeopen"), default=None)
    p.set_defaults(handler=_cmd_curves)

    p = sub.add_parser("backtest", help="short-on-negative AfterClose strategy")
    _add_data_flags(p)
    p.add_argument("--spread", type=float, default=None, help="per-share round-trip cost")
    p.add_argument("--from", dest="start", default=None, help="first date (YYYY-MM-DD)")
    p.add_argument("--to", dest="end", default=None, help="last date (YYYY-MM-DD)")
    p.add_argument(
        "--thresholds-until", default=None,
        help="compute Sent(-1) thresholds only from events up to this date",
    )
    p.set_defaults(handler=_cmd_backtest)

    p = sub.add_parser("regress", help="surprise-vs-sentiment regressions per stratum")
    _add_data_flags(p)
    _add_until(p)
    p.set_defaults(handler=_cmd_regress)

    p = sub.add_parser("volume", help="tweet and trading volume around announcements")
    _add_data_flags(p)
    _add_until(p)
    p.set_defaults(handler=_cmd_volume)

    p = sub.add_parser("synth", help="generate a deterministic synthetic dataset")
    p.add_argument("--spec", help="JSON file of generator parameters")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("pipeline", help="run every analysis and write a manifest")
    _add_data_flags(p)
    _add_until(p)
    p.add_argument("--spread", type=float, default=None)
    p.add_argument("--from", dest="start", default=None)
    p.add_argument("--to", dest="end", default=None)
    p.add_argument("--thresholds-until", default=None)
    p.add_argument("--estimation-window", type=int, default=None)
    p.add_argument("--significance", type=float, default=None)
    p.set_defaults(handler=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        out_root = args.out or config.get("out") or "out"
        out = OutputDir(out_root)
    except EastudyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    try:
        return args.handler(args, config, out)
    except EastudyError as exc:
        out.discard()
        print(f"error: {exc}", file=sys.stderr)
        for diag in getattr(exc, "diagnostics", [])[:20]:
            print(f"  {diag}", file=sys.stderr)
        return _exit_code(exc)


def _exit_code(exc: EastudyError) -> int:
    if isinstance(exc, MissingFile):
        return EXIT_MISSING_FILE
    if isinstance(exc, SchemaMismatch):
        return EXIT_SCHEMA
    if isinstance(exc, InvariantViolation):
        return EXIT_INVARIANT
    return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

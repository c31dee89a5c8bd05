#!/usr/bin/env python3
"""eastudy benchmark: whole-process CLI timings on synthetic workloads.

Usage, from the repository root:

    python3 bench/run.py --workload {paper,event_dense,subcommands} \
        [--seed N] [--seconds S] [--trace 0|1]

The program is driven only from outside. Each run writes its workload's four
input CSVs with ``eastudy synth`` (the only place the seed goes), then runs
the CLI as fresh child processes (``python -m eastudy.cli`` with
``PYTHONPATH=src``), one at a time: a closed loop with one client. Every op
writes to a fresh directory and its outputs are checked. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics of ``bench/trace_driver.py`` with ``--trace 1``). The lines before
it give every metric with its unit and sample count, and the run metadata.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_op, compare_digests  # bench/ is sys.path[0] when run as a script

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3  # synth runs per --trace 0 run; setup_s is their median
DEADLINE_S = 165.0  # a run must end well within 180 s
P90_MIN_OPS = 100  # below this, p90 has fewer than ten samples beyond it
INPUTS = ("prices", "index", "tweets", "events")

# Calendar index 224 lies between the third round of Quickstart events
# (day 0 on indexes 205-210) and the fourth (announced from index 239).
THRESHOLDS_UNTIL_INDEX = 224


@dataclass(frozen=True)
class Workload:
    spec: dict
    seed: int
    rotation: tuple[str, ...]  # ops in turn: a command and its own flags


WORKLOADS = {
    "paper": Workload(
        {"n_tickers": 30, "n_days": 900, "events_per_ticker": 12, "event_spacing": 60},
        7, ("pipeline",)),
    "event_dense": Workload(
        {"n_tickers": 30, "n_days": 900, "events_per_ticker": 150, "event_spacing": 5,
         "tweet_rate": 1.0},
        7, ("pipeline",)),
    "subcommands": Workload(
        {"n_tickers": 6, "n_days": 300, "events_per_ticker": 4, "first_event_day": 135,
         "event_spacing": 35},
        11, ("ingest", "calendar", "score", "thresholds", "returns", "surprise",
             "study --polarity-day -1", "curves --timing beforeopen",
             "backtest --thresholds-until {until}", "regress", "volume")),
}

END_TO_END_UNITS = {"latency_s.p50": "s", "cpu_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics, from bench/trace_driver.py's spans and counters.
SELF_S = (
    "ingest.parse_tweets", "ingest.parse_prices", "ingest.parse_index", "ingest.parse_events",
    "ingest.load_dataset", "sentiment.daily_counts", "reports.build_universe",
    "reports.volume_report", "reports.label_stratum", "event_study.aggregate_study",
    "event_study.fit_market_model", "event_study.abnormal_returns",
    "returns.calendar_aligned_returns", "trading.trade_return_curves", "trading.run_strategy",
    "regression.surprise_regressions", "cli.write_reports", "cli.manifest",
    "synth.generate", "synth.write_dataset",
)
CALLS = (
    "ingest.load_dataset", "alignment.close_delimited_day", "alignment.covers",
    "alignment.anchor_event", "sentiment.daily_counts", "reports.build_universe",
    "event_study.fit_market_model", "returns.calendar_aligned_returns", "model.close_prices",
)
COUNTS = (
    "ingest.parse_tweets.rows", "reports.events_used", "reports.events_dropped",
    "event_study.events_skipped", "trading.trades", "cli.files_written", "cli.bytes_written",
)
RATIOS = ("alignment.day_maps_per_tweet_row", "sentiment.buckets_in_per_tweet_row")
SECONDS = ("cli.import_s", "cli.main_s", "trace.overhead_s")

PER_LAYER_UNITS = {
    **{f"{n}.self_s": "s" for n in SELF_S},
    **{f"{n}.calls": "count" for n in CALLS},
    **{n: "count" for n in COUNTS},
    **{n: "ratio" for n in RATIOS},
    **{n: "s" for n in SECONDS},
}

# Shares of cli.main_s printed by a traced run, to check the workload design.
SHARES = {
    "tweets (parse_tweets + daily_counts)":
        ("ingest.parse_tweets.self_s", "sentiment.daily_counts.self_s"),
    "statistics (aggregate_study + trade_return_curves + label_stratum)":
        ("event_study.aggregate_study.self_s", "trading.trade_return_curves.self_s",
         "reports.label_stratum.self_s"),
}


@dataclass
class Op:
    key: str  # rotation entry, e.g. "study --polarity-day -1"
    wall_s: float
    cpu_s: float
    rss_mb: float
    out_dir: Path
    problems: list[str] = field(default_factory=list)
    files: int = 0
    bytes: int = 0
    trace: dict | None = None  # what trace_driver.py recorded, for a traced op


class Runner:
    """Spawns CLI children one at a time and checks what each one wrote."""

    def __init__(self, work: Path, deadline: float, pinned: dict):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.n = 0
        self.digests: dict[str, dict[str, str]] = {}  # op key -> digests of its first op
        self.pinned = pinned  # op key -> digests pinned for the default seed
        self.rows: dict[str, int] = {}  # data rows of each input file, once set up

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def spawn(self, argv: list[str], log: Path) -> tuple[float, float, float, int]:
        """Run one child to its end: (wall s, user+sys CPU s, max RSS MB, exit code)."""
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.work)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                wall = time.perf_counter() - start
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode

    def op(self, key: str, cli_args: list[str], traced: bool = False, keep: bool = False) -> Op:
        """One op: the CLI into a fresh output directory, then its checks."""
        self.n += 1
        stem = self.work / f"op{self.n:05d}"
        out_dir, log, spans = stem, stem.with_suffix(".log"), stem.with_suffix(".spans.json")
        # a fresh directory each time: a rerun into a used one is another test
        if out_dir.exists():
            raise RuntimeError(f"{out_dir} already exists")
        if traced:
            argv = [sys.executable, str(BENCH / "trace_driver.py"), str(spans), str(self.n)]
        else:
            argv = [sys.executable, "-m", "eastudy.cli"]
        wall, cpu, rss, code = self.spawn([*argv, "--out", str(out_dir), *cli_args], log)
        op = Op(key, wall, cpu, rss, out_dir)
        stdout = log.read_text(encoding="utf-8", errors="replace")
        log.unlink()
        if code != 0:
            op.problems.append(f"exit code {code}: {stdout.strip()[-300:]}")
        if traced:
            if spans.exists():
                op.trace = json.loads(spans.read_text(encoding="utf-8"))
                spans.unlink()
            else:
                op.problems.append("the trace driver wrote no spans")
        digests, problems = check_op(key.split()[0], out_dir, stdout, self.rows)
        op.problems += problems
        op.problems += compare_digests(digests, self.digests.setdefault(key, digests), "first op")
        op.problems += compare_digests(digests, self.pinned.get(key, {}), "pinned digest")
        if out_dir.is_dir():
            sizes = [p.stat().st_size for p in out_dir.iterdir()]
            op.files, op.bytes = len(sizes), sum(sizes)
            if not keep:
                shutil.rmtree(out_dir)
        for problem in op.problems:
            print(f"op {self.n} ({key}) failed: {problem}", file=sys.stderr)
        return op


def setup(runner: Runner, workload: Workload, seed: int, repeats: int,
          traced: bool = False) -> tuple[list[Op], list[tuple[str, list[str]]]]:
    """Write the inputs with ``eastudy synth`` ``repeats`` times, then once traced
    if asked; every copy must be identical. Returns the synth ops and the
    workload's rotation of (op key, CLI arguments) over the first copy."""
    spec = runner.work / "spec.json"
    spec.write_text(json.dumps(workload.spec), encoding="utf-8")
    args = ["--seed", str(seed), "synth", "--spec", str(spec)]
    ops = [runner.op("synth", args, traced=i == repeats, keep=True)
           for i in range(repeats + traced)]
    problems = [p for op in ops for p in op.problems]
    if problems:
        raise RuntimeError(f"synth failed: {problems[0]}")
    data = ops[0].out_dir
    for stem in INPUTS:
        with open(data / f"{stem}.csv", "rb") as fh:
            runner.rows[stem] = sum(1 for _ in fh) - 1
    with open(data / "index.csv", encoding="utf-8") as fh:
        dates = [line.split(",", 1)[0] for line in fh][1:]
    until = dates[min(THRESHOLDS_UNTIL_INDEX, len(dates) - 1)]
    rotation = []
    for key in workload.rotation:
        command, *flags = key.format(until=until).split()
        inputs = ("index",) if command == "calendar" else INPUTS
        rotation.append((key, [command, *(f"--{s}={data / f'{s}.csv'}" for s in inputs), *flags]))
    return ops, rotation


def _self_times(doc: dict) -> dict[str, float]:
    """Per span name: summed duration minus the part child spans cover."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def layer_metrics(ops: list[Op], tweet_rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced rotation: sums over its processes."""
    docs = [op.trace for op in ops]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for doc in docs:
        for name, value in _self_times(doc).items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, *_ in doc["spans"]:
            calls[name] = calls.get(name, 0) + 1
        for name, (n, total) in doc["counters"].items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + total
        for name, value in doc["counts"].items():
            if name.startswith("reports.events_"):  # one universe, not a sum of rebuilds
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
    out: dict[str, float] = {f"{n}.self_s": self_s.get(n, 0.0) for n in SELF_S}
    out.update({f"{n}.calls": calls.get(n, 0) for n in CALLS})
    out.update({n: counts.get(n, 0) for n in COUNTS})
    out["alignment.day_maps_per_tweet_row"] = calls.get("alignment.close_delimited_day", 0) / tweet_rows
    out["sentiment.buckets_in_per_tweet_row"] = counts.get("sentiment.buckets_in", 0) / tweet_rows
    out["cli.import_s"] = statistics.median(doc["import_s"] for doc in docs)
    out["cli.main_s"] = sum(end - start for doc in docs
                            for name, start, end, _, _ in doc["spans"] if name == "cli.main")
    out["cli.files_written"] = sum(op.files for op in ops)
    out["cli.bytes_written"] = sum(op.bytes for op in ops)
    return out


def end_to_end(runner: Runner, workload: Workload, seed: int, seconds: float):
    """Untraced rotations until ``seconds`` have passed: (ops, metrics, samples, units)."""
    synths, rotation = setup(runner, workload, seed, SETUP_REPEATS)
    ops: list[Op] = []
    t_end = time.monotonic() + seconds
    while not ops or (time.monotonic() < t_end and not runner.expired()):
        ops += [runner.op(key, args) for key, args in rotation]
    walls = [op.wall_s for op in ops]
    metrics = {
        "latency_s.p50": statistics.median(walls),
        "cpu_s.p50": statistics.median(op.cpu_s for op in ops),
        "peak_rss_mb": max(op.rss_mb for op in ops),
        "setup_s": statistics.median(op.wall_s for op in synths),
    }
    samples = {name: len(ops) for name in metrics}
    samples["setup_s"] = len(synths)
    for name, value in metrics.items():
        _line(name, value, END_TO_END_UNITS[name], samples[name])
    if len(ops) >= P90_MIN_OPS:
        samples["latency_s.p90"] = len(ops)
        _line("latency_s.p90", statistics.quantiles(walls, n=10, method="inclusive")[-1], "s", len(ops))
    else:
        print(f"  {'latency_s.p90':<38} {'left out':>14} {'':<6} n={len(ops)} < {P90_MIN_OPS}")
    if len(rotation) > 1:
        for key, _ in rotation:
            values = [op.wall_s for op in ops if op.key == key]
            _line(f"latency_s.p50[{key.split()[0]}]", statistics.median(values), "s", len(values))
    return ops, metrics, samples, END_TO_END_UNITS


def per_layer(runner: Runner, workload: Workload, seed: int, seconds: float):
    """Rotations traced then untraced until ``seconds`` have passed.

    Each metric is the median over complete traced rotations; the synth
    metrics come from one traced synth. Returns (ops, metrics, samples, units).
    """
    synths, rotation = setup(runner, workload, seed, 1, traced=True)
    ops: list[Op] = []
    rounds: list[dict] = []
    t_end = time.monotonic() + seconds
    while not ops or (time.monotonic() < t_end and not runner.expired()):
        traced = [runner.op(key, args, traced=True) for key, args in rotation]
        plain = [runner.op(key, args) for key, args in rotation]
        ops += traced + plain
        if all(op.trace for op in traced):
            metrics = layer_metrics(traced, runner.rows["tweets"])
            metrics["trace.overhead_s"] = (sum(op.wall_s for op in traced)
                                           - sum(op.wall_s for op in plain))
            rounds.append(metrics)
    synth = layer_metrics(synths[-1:], runner.rows["tweets"])
    metrics, samples = {}, {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [synth[name]] if name.startswith("synth.") else [r[name] for r in rounds]
        metrics[name] = statistics.median(values) if values else 0.0
        samples[name] = len(values)
        _line(name, metrics[name], unit, samples[name])
    for label, names in SHARES.items():
        if metrics["cli.main_s"] > 0:
            share = sum(metrics[n] for n in names) / metrics["cli.main_s"]
            print(f"  share of cli.main_s, {label}: {share:.1%}")
    absent = sorted({name for op in ops + synths if op.trace for name in op.trace["absent"]})
    if absent:
        print(f"  absent, so reported as 0: {', '.join(absent)}")
    return ops, metrics, samples, PER_LAYER_UNITS


def _line(name: str, value: float, unit: str, n: int) -> None:
    print(f"  {name:<38} {value:>14.6g} {unit:<6} n={n}")


def _metadata(args, workload: Workload, seed: int, samples: dict, runner: Runner) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "spec": dict(workload.spec, seed=seed), "input_rows": runner.rows, "samples": samples,
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
        "loop": "closed, 1 client", "digests": runner.digests,
    }


def run(args, work: Path) -> dict:
    workload = WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed
    pinned = {}
    if seed == workload.seed:
        pinned = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))[args.workload]
    runner = Runner(work, time.monotonic() + DEADLINE_S, pinned)
    print(f"eastudy bench: workload={args.workload} seed={seed} seconds={args.seconds} "
          f"trace={args.trace}; closed loop, one client, one process at a time")
    measure = per_layer if args.trace else end_to_end
    ops, metrics, samples, units = measure(runner, workload, seed, args.seconds)
    failed = sum(1 for op in ops if op.problems)
    print(f"  {'ops_failed_ratio':<38} {failed / len(ops):>14.6g} {'':<6} n={len(ops)} ({failed} failed)")
    print("meta " + json.dumps(_metadata(args, workload, seed, samples, runner), sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="synth seed (default: the workload's own; digests are pinned for it)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced ops instead of end-to-end ones")
    args = parser.parse_args()
    if not (SRC / "eastudy" / "cli.py").is_file():
        print(f"error: no eastudy sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

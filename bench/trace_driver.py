"""Run one eastudy CLI invocation with per-layer spans, from outside the program.

Usage (with ``PYTHONPATH=src``):

    python bench/trace_driver.py SPANS_JSON RUN_ID CLI_ARG...

The driver times a fresh ``import eastudy.cli``, then replaces each traced
function at the place its callers look it up (a module global or a class
attribute) with a timing wrapper, and calls ``eastudy.cli.main``. A name
that no longer exists is listed as absent rather than failing the run.
Spans (name, start, end, parent, run id) and counters stay in memory and are
written to SPANS_JSON once, after ``main`` returns. The exit code is main's.
"""

import sys
from time import perf_counter

_t0 = perf_counter()
import eastudy.cli  # noqa: E402  (timed: this is cli.import_s)

IMPORT_S = perf_counter() - _t0

import importlib  # noqa: E402
import json  # noqa: E402

# span name -> the lookups ("module:attr.path") its callers use
SPANS = {
    "ingest.load_dataset": ["eastudy.cli:load_dataset"],
    "ingest.parse_tweets": ["eastudy.ingest:parse_tweets_csv"],
    "ingest.parse_prices": ["eastudy.ingest:parse_prices_csv"],
    "ingest.parse_index": ["eastudy.ingest:parse_index_csv", "eastudy.cli:parse_index_csv"],
    "ingest.parse_events": ["eastudy.ingest:parse_events_csv"],
    "sentiment.daily_counts": [
        "eastudy.reports:daily_counts", "eastudy.trading:daily_counts",
        "eastudy.cli:daily_counts", "eastudy.ingest:daily_counts",
    ],
    "reports.build_universe": ["eastudy.cli:build_universe"],
    "reports.volume_report": ["eastudy.cli:volume_report"],
    "reports.label_stratum": ["eastudy.cli:label_stratum"],
    "event_study.aggregate_study": ["eastudy.cli:aggregate_study"],
    "returns.calendar_aligned_returns": [
        "eastudy.event_study:calendar_aligned_returns", "eastudy.ingest:calendar_aligned_returns",
    ],
    "trading.trade_return_curves": ["eastudy.cli:trade_return_curves"],
    "trading.run_strategy": ["eastudy.cli:run_strategy"],
    "regression.surprise_regressions": ["eastudy.cli:surprise_regressions"],
    "cli.write_reports": ["eastudy.cli:OutputDir.write_csv"],
    "cli.manifest": ["eastudy.cli:_manifest"],
    "synth.generate": ["eastudy.cli:generate"],
    "synth.write_dataset": ["eastudy.cli:write_dataset"],
}

# Hot functions: a call count and summed time instead of a span per call.
# They hold no spans, so their summed time is also their self time, and it
# stays inside the self time of the span that calls them.
COUNTERS = {
    "alignment.close_delimited_day": ["eastudy.alignment:TradingCalendar.close_delimited_day"],
    "alignment.covers": ["eastudy.alignment:TradingCalendar.covers"],
    "alignment.anchor_event": [
        "eastudy.reports:anchor_event", "eastudy.trading:anchor_event",
        "eastudy.ingest:anchor_event", "eastudy.event_study:anchor_event",
    ],
    "event_study.fit_market_model": ["eastudy.event_study:fit_market_model"],
    "event_study.abnormal_returns": ["eastudy.event_study:abnormal_returns"],
    "model.close_prices": ["eastudy.model:Dataset.close_prices"],
}


class Recorder:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, list] = {name: [0, 0.0] for name in COUNTERS}
        self.counts = {"ingest.parse_tweets.rows": 0, "sentiment.buckets_in": 0,
                       "event_study.events_skipped": 0, "trading.trades": 0}
        self.universe = (0, 0)  # (used, dropped) of the largest universe built
        self.absent: list[str] = []

    def span(self, name, fn):
        spans, stack, run_id = self.spans, self.stack, self.run_id
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id)
            if observe is not None:
                try:
                    observe(self, args, result)
                except (AttributeError, TypeError, IndexError):
                    self.absent.append(f"{name} (observer)")
            return result

        return wrapper

    def counter(self, name, fn):
        slot = self.counters[name]

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[0] += 1
                slot[1] += perf_counter() - start

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANS, self.span), (COUNTERS, self.counter)):
            for name, lookups in table.items():
                for lookup in lookups:
                    module_name, _, path = lookup.partition(":")
                    *owners, attr = path.split(".")
                    try:
                        owner = importlib.import_module(module_name)
                        for part in owners:
                            owner = getattr(owner, part)
                        original = getattr(owner, attr)
                    except (ImportError, AttributeError):
                        self.absent.append(lookup)
                        continue
                    setattr(owner, attr, make(name, original))

    def dump(self, path: str, exit_code: int) -> None:
        payload = {
            "run_id": self.run_id,
            "import_s": IMPORT_S,
            "exit_code": exit_code,
            "spans": self.spans,
            "counters": self.counters,
            "counts": dict(self.counts, **{
                "reports.events_used": self.universe[0],
                "reports.events_dropped": self.universe[1],
            }),
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _parse_tweets(rec, args, result):
    rec.counts["ingest.parse_tweets.rows"] += len(result[0])


def _daily_counts(rec, args, result):
    rec.counts["sentiment.buckets_in"] += len(args[0])


def _build_universe(rec, args, result):
    used, dropped = len(result.events), len(result.dropped)
    if used + dropped > sum(rec.universe):
        rec.universe = (used, dropped)


def _aggregate_study(rec, args, result):
    rec.counts["event_study.events_skipped"] += len(result.skipped)


def _run_strategy(rec, args, result):
    rec.counts["trading.trades"] += len(result.trades)


OBSERVERS = {
    "ingest.parse_tweets": _parse_tweets,
    "sentiment.daily_counts": _daily_counts,
    "reports.build_universe": _build_universe,
    "event_study.aggregate_study": _aggregate_study,
    "trading.run_strategy": _run_strategy,
}


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    rec = Recorder(run_id)
    rec.install()
    exit_code = rec.span("cli.main", eastudy.cli.main)(argv)
    rec.dump(spans_path, exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

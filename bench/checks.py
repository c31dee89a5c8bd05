"""Output checks for one eastudy CLI invocation.

Each op writes into its own fresh directory. ``check_op`` verifies the file
set, the manifest's ``outputs`` list, and the planted signal the synthetic
generator puts into every dataset, and returns the SHA-256 of every report
CSV so the caller can compare digests across ops and against pinned ones.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

PIPELINE_REPORTS = frozenset({
    "volume_daily.csv", "volume_hourly.csv", "volume_summary.csv",
    "thresholds.csv",
    "study_sent0_afterclose.csv", "study_sentm1_afterclose.csv",
    "study_sent0_beforeopen.csv", "study_sentm1_beforeopen.csv",
    "curves_sent0_afterclose.csv", "curves_sentm1_afterclose.csv",
    "curves_sent0_beforeopen.csv", "curves_sentm1_beforeopen.csv",
    "trades.csv", "equity.csv",
    "regression.csv",
})

# command name -> (report CSVs it writes, whether it writes manifest.json)
EXPECTED = {
    "pipeline": (PIPELINE_REPORTS, True),
    "ingest": (frozenset(), False),
    "calendar": (frozenset({"calendar.csv"}), False),
    "score": (frozenset({"scores.csv"}), True),
    "thresholds": (frozenset({"thresholds.csv"}), True),
    "returns": (frozenset({"returns.csv"}), True),
    "surprise": (frozenset({"surprise.csv"}), True),
    "study": (frozenset({"study_sentm1_afterclose.csv"}), True),
    "curves": (frozenset({"curves_sent0_beforeopen.csv"}), True),
    "backtest": (frozenset({"trades.csv", "equity.csv"}), True),
    "regress": (frozenset({"regression.csv"}), True),
    "volume": (frozenset({"volume_daily.csv", "volume_hourly.csv", "volume_summary.csv"}), True),
    "synth": (frozenset({"prices.csv", "index.csv", "tweets.csv", "events.csv"}), True),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _planted_car(path: Path) -> list[str]:
    """At tau 0 the negative CAR < 0 < the positive CAR, both significant."""
    at0 = {r["class"]: r for r in _rows(path) if r["tau"] == "0"}
    try:
        neg, pos = at0["negative"], at0["positive"]
    except KeyError as exc:
        return [f"{path.name}: no tau 0 row for class {exc.args[0]}"]
    problems = []
    if not float(neg["car"]) < 0 < float(pos["car"]):
        problems.append(f"{path.name}: tau 0 CARs {neg['car']} / {pos['car']} not -/+")
    if neg["significant"] != "true" or pos["significant"] != "true":
        problems.append(f"{path.name}: tau 0 negative/positive CAR not both significant")
    return problems


def _planted_surprise(path: Path) -> list[str]:
    """Earnings surprise rises with day-0 sentiment in both timing classes."""
    slopes = {r["stratum"]: float(r["slope"]) for r in _rows(path)}
    return [
        f"{path.name}: {stratum} slope {slopes.get(stratum)} is not positive"
        for stratum in ("afterclose_day0", "beforeopen_day0")
        if not slopes.get(stratum, 0.0) > 0
    ]


def _ingest_summary(stdout: str, rows: dict[str, int]) -> list[str]:
    want = (
        f"loaded {rows['prices']} bars, {rows['index']} index bars, "
        f"{rows['tweets']} tweet buckets, {rows['events']} events"
    )
    return [] if want in stdout else [f"ingest summary does not read {want!r}"]


def compare_digests(digests: dict[str, str], want: dict[str, str], source: str) -> list[str]:
    """Problems for each report whose digest differs from ``want``'s entry."""
    return [
        f"{name}: sha256 differs from the {source}"
        for name, digest in digests.items() if want.get(name, digest) != digest
    ]


def check_op(command: str, out_dir: Path, stdout: str, rows: dict[str, int]) -> tuple[dict[str, str], list[str]]:
    """Check one op's outputs; return (CSV digests, problems found).

    ``rows`` holds the data-row count of each input file, by stem.
    """
    reports, has_manifest = EXPECTED[command]
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    want = set(reports) | ({"manifest.json"} if has_manifest else set())
    problems = []
    if present != want:
        problems.append(
            f"file set: missing {sorted(want - present)}, unexpected {sorted(present - want)}"
        )
    if has_manifest and "manifest.json" in present:
        try:
            listed = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["outputs"]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"manifest.json unreadable: {exc!r}")
        else:
            if sorted(listed) != sorted(reports):
                problems.append(f"manifest outputs {sorted(listed)} != {sorted(reports)}")
    digests = {name: sha256(out_dir / name) for name in sorted(reports & present)}
    if problems:
        return digests, problems
    try:
        for name in ("study_sent0_afterclose.csv", "study_sent0_beforeopen.csv"):
            if name in reports:
                problems += _planted_car(out_dir / name)
        if "regression.csv" in reports:
            problems += _planted_surprise(out_dir / "regression.csv")
    except (ValueError, KeyError) as exc:
        problems.append(f"malformed report: {exc!r}")
    if command == "ingest":
        problems += _ingest_summary(stdout, rows)
    return digests, problems

"""The benchmark's output checks catch corrupted outputs.

Run from the repository root: ``PYTHONPATH=src python -m pytest -q bench``.
A real pipeline output is generated once; each test corrupts a copy of it.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from checks import check_op, compare_digests  # noqa: E402

# Big enough that the planted day-0 CARs are significant in both timing classes.
SPEC = {"seed": 3, "n_tickers": 30, "n_days": 300, "events_per_ticker": 4,
        "first_event_day": 135, "event_spacing": 35}


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("bench")
    (base / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))

    def cli(*args):
        subprocess.run([sys.executable, "-m", "eastudy.cli", *args], env=env, check=True,
                       capture_output=True)

    cli("--out", str(base / "data"), "synth", "--spec", str(base / "spec.json"))
    cli("--out", str(base / "out"), "pipeline",
        *(f"--{s}={base / 'data' / f'{s}.csv'}" for s in ("prices", "index", "tweets", "events")))
    return base / "out"


@pytest.fixture
def copy(pipeline_out, tmp_path) -> Path:
    return Path(shutil.copytree(pipeline_out, tmp_path / "out"))


def test_real_output_passes(pipeline_out):
    digests, problems = check_op("pipeline", pipeline_out, "", {})
    assert problems == []
    assert len(digests) == 15


def test_wrong_sign_car_is_caught(copy):
    path = copy / "study_sent0_beforeopen.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("0,negative,"))
    cells = lines[i].split(",")
    cells[3] = cells[3].lstrip("-")
    lines[i] = ",".join(cells)
    path.write_text("".join(lines), encoding="utf-8")
    _, problems = check_op("pipeline", copy, "", {})
    assert any("study_sent0_beforeopen.csv" in p and "-/+" in p for p in problems)


def test_changed_byte_breaks_the_digest(pipeline_out, copy):
    want, _ = check_op("pipeline", pipeline_out, "", {})
    path = copy / "equity.csv"
    data = bytearray(path.read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    path.write_bytes(bytes(data))
    digests, problems = check_op("pipeline", copy, "", {})
    assert problems == []  # still well-formed: only the digest can tell
    assert compare_digests(digests, want, "first op") == [
        "equity.csv: sha256 differs from the first op"
    ]


def test_missing_report_is_caught(copy):
    (copy / "trades.csv").unlink()
    _, problems = check_op("pipeline", copy, "", {})
    assert any("missing ['trades.csv']" in p for p in problems)


def test_manifest_listing_is_checked(copy):
    path = copy / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["outputs"].remove("regression.csv")
    path.write_text(json.dumps(manifest), encoding="utf-8")
    _, problems = check_op("pipeline", copy, "", {})
    assert any(p.startswith("manifest outputs") for p in problems)


def test_lost_surprise_signal_is_caught(copy):
    path = copy / "regression.csv"
    text = path.read_text(encoding="utf-8").replace("afterclose_day0,", "afterclose_day0,-", 1)
    path.write_text(text, encoding="utf-8")
    _, problems = check_op("pipeline", copy, "", {})
    assert any("afterclose_day0 slope" in p for p in problems)


def test_ingest_summary_must_match_the_inputs(tmp_path):
    rows = {"prices": 10, "index": 5, "tweets": 7, "events": 2}
    good = "loaded 10 bars, 5 index bars, 7 tweet buckets, 2 events (0 excluded by coverage)\n"
    assert check_op("ingest", tmp_path / "none", good, rows)[1] == []
    assert check_op("ingest", tmp_path / "none", good.replace("7 tweet", "6 tweet"), rows)[1]

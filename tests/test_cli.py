import argparse
import ast
import builtins
import csv
import errno
import gc
import hashlib
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import eastudy
from eastudy import cli, event_study, ingest, reports, trading
from eastudy.alignment import EventAnchor, TradingCalendar, eastern_hours
from eastudy.cli import build_parser, main
from eastudy.errors import InvariantViolation, SchemaMismatch
from eastudy.ingest import MAX_COUNT, load_dataset, write_dataset
from eastudy.model import EarningsEvent, TweetBuckets
from eastudy.reports import build_universe
from eastudy.synth import SynthSpec, generate

from conftest import records, row_loop_only

SPEC = {
    "seed": 11,
    "n_tickers": 6,
    "n_days": 300,
    "events_per_ticker": 4,
    "first_event_day": 135,
    "event_spacing": 35,
    "afterclose_fraction": 0.5,
}

PIPELINE_FILES = [
    "volume_daily.csv", "volume_hourly.csv", "volume_summary.csv",
    "thresholds.csv",
    "study_sent0_afterclose.csv", "study_sent0_beforeopen.csv",
    "study_sentm1_afterclose.csv", "study_sentm1_beforeopen.csv",
    "curves_sent0_afterclose.csv", "curves_sent0_beforeopen.csv",
    "curves_sentm1_afterclose.csv", "curves_sentm1_beforeopen.csv",
    "trades.csv", "equity.csv", "regression.csv", "manifest.json",
]
DATASET_FILES = ["prices.csv", "index.csv", "tweets.csv", "events.csv"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    write_dataset(generate(SynthSpec(**SPEC)), root)
    return root


def data_flags(data_dir):
    return [
        "--prices", str(data_dir / "prices.csv"),
        "--index", str(data_dir / "index.csv"),
        "--tweets", str(data_dir / "tweets.csv"),
        "--events", str(data_dir / "events.csv"),
    ]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestSynthCommand:
    def test_writes_four_files(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(SPEC))
        rc = main(["--out", str(tmp_path / "d"), "synth", "--spec", str(spec_file)])
        assert rc == 0
        for name in ("prices.csv", "index.csv", "tweets.csv", "events.csv"):
            assert (tmp_path / "d" / name).exists()
        # the files were staged beside the output directory; nothing is left there
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "spec.json"]

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**SPEC, "n_days": 60, "events_per_ticker": 1,
                                         "first_event_day": 30}))
        main(["--out", str(tmp_path / "a"), "synth", "--spec", str(spec_file)])
        main(["--out", str(tmp_path / "b"), "--seed", "99", "synth", "--spec", str(spec_file)])
        assert (tmp_path / "a" / "index.csv").read_bytes() != (
            tmp_path / "b" / "index.csv"
        ).read_bytes()

    def test_unknown_spec_key_rejected(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"seed": 1, "bogus": 2}))
        rc = main(["--out", str(tmp_path / "d"), "synth", "--spec", str(spec_file)])
        assert rc == 5


class TestSynthSpecRules:
    """A spec whose dataset ingest would refuse, or that the generator cannot
    draw, exits 5 with one error line and leaves no output."""

    @pytest.mark.parametrize("spec", [
        '{"tweet_rate": Infinity}', '{"tweet_rate": 1e30}', '{"index_vol": NaN}',
        '{"alpha": Infinity}', '{"jump_negative": -1.5}', '{"idio_vol": 5.0}',
        '{"es_noise": NaN}', '{"event_tweet_multiplier": NaN}', '{"es_noise": 1e308}',
        '{"seed": -1}', '{"start": "9999-12-01"}',
    ])
    def test_exit_5_with_one_error_line(self, spec, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec)
        out = tmp_path / "d"
        assert main(["--out", str(out), "synth", "--spec", str(spec_file)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_rate_at_the_bound_is_ingested(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"n_tickers": 1, "n_days": 3, "events_per_ticker": 0,
                                         "tweet_rate": 1e9, "event_tweet_multiplier": 1.0}))
        assert main(["--out", str(tmp_path / "d"), "synth", "--spec", str(spec_file)]) == 0
        assert main(["--out", str(tmp_path / "r"), "ingest", *data_flags(tmp_path / "d")]) == 0


class TestSingleCommands:
    def test_ingest_summary(self, data_dir, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "ingest", *data_flags(data_dir)])
        assert rc == 0
        assert "events" in capsys.readouterr().out

    def test_ingest_emit_writes_identical_canonical_copy(self, data_dir, tmp_path):
        emitted = tmp_path / "canonical"
        rc = main(["--out", str(tmp_path), "ingest", *data_flags(data_dir),
                   "--emit", str(emitted)])
        assert rc == 0
        # the source dataset is already canonical, so the copy is byte-equal
        for name in ("prices.csv", "index.csv", "tweets.csv", "events.csv"):
            assert (emitted / name).read_bytes() == (data_dir / name).read_bytes()

    def test_calendar(self, data_dir, tmp_path):
        rc = main(["--out", str(tmp_path), "calendar", "--index", str(data_dir / "index.csv")])
        assert rc == 0
        rows = read_rows(tmp_path / "calendar.csv")
        assert len(rows) == SPEC["n_days"]
        assert rows[0]["date"] == "2015-01-05"

    def test_score(self, data_dir, tmp_path):
        rc = main(["--out", str(tmp_path), "score", *data_flags(data_dir)])
        assert rc == 0
        rows = read_rows(tmp_path / "scores.csv")
        assert rows
        for row in rows[:50]:
            total = int(row["n_neg"]) + int(row["n_neut"]) + int(row["n_pos"])
            expected = (int(row["n_pos"]) - int(row["n_neg"])) / (total + 3)
            assert float(row["sent"]) == expected

    def test_thresholds(self, data_dir, tmp_path):
        rc = main(["--out", str(tmp_path), "thresholds", *data_flags(data_dir)])
        assert rc == 0
        rows = read_rows(tmp_path / "thresholds.csv")
        assert {(r["timing"], r["day"]) for r in rows} == {
            ("afterclose", "0"), ("afterclose", "-1"),
            ("beforeopen", "0"), ("beforeopen", "-1"),
        }
        for r in rows:
            assert float(r["t_low"]) <= float(r["t_high"])

    def test_returns(self, data_dir, tmp_path):
        rc = main(["--out", str(tmp_path), "returns", *data_flags(data_dir)])
        assert rc == 0
        rows = read_rows(tmp_path / "returns.csv")
        tickers = {r["ticker"] for r in rows}
        assert "INDEX" in tickers and len(tickers) == SPEC["n_tickers"] + 1

    def test_surprise(self, data_dir, tmp_path):
        rc = main(["--out", str(tmp_path), "surprise", *data_flags(data_dir)])
        assert rc == 0
        rows = read_rows(tmp_path / "surprise.csv")
        assert len(rows) == SPEC["n_tickers"] * SPEC["events_per_ticker"]

    def test_study_and_curves(self, data_dir, tmp_path):
        rc = main(["--out", str(tmp_path), "study", *data_flags(data_dir),
                   "--polarity-day", "0", "--timing", "afterclose"])
        assert rc == 0
        rows = read_rows(tmp_path / "study_sent0_afterclose.csv")
        taus = sorted({int(r["tau"]) for r in rows})
        assert taus == list(range(-1, 11))
        assert {r["class"] for r in rows} <= {"negative", "neutral", "positive"}
        assert all(r["significant"] in ("true", "false") for r in rows)

        rc = main(["--out", str(tmp_path), "curves", *data_flags(data_dir),
                   "--polarity-day", "0", "--timing", "afterclose"])
        assert rc == 0
        crows = read_rows(tmp_path / "curves_sent0_afterclose.csv")
        assert sorted({int(r["d"]) for r in crows}) == list(range(0, 11))

    def test_backtest(self, data_dir, tmp_path):
        rc = main(["--out", str(tmp_path), "backtest", *data_flags(data_dir),
                   "--spread", "0.05"])
        assert rc == 0
        equity = read_rows(tmp_path / "equity.csv")
        assert equity[0]["strategy"] == "1.0"
        assert equity[0]["benchmark"] == "1.0"
        assert len(equity) == SPEC["n_days"]

    def test_regress(self, data_dir, tmp_path):
        rc = main(["--out", str(tmp_path), "regress", *data_flags(data_dir)])
        assert rc == 0
        rows = read_rows(tmp_path / "regression.csv")
        assert {r["stratum"] for r in rows} == {
            "afterclose_day0", "afterclose_day-1", "beforeopen_day0", "beforeopen_day-1",
        }
        for r in rows:
            assert 0.0 <= float(r["r2"]) <= 1.0

    def test_volume(self, data_dir, tmp_path):
        rc = main(["--out", str(tmp_path), "volume", *data_flags(data_dir)])
        assert rc == 0
        summary = {r["metric"]: float(r["value"]) for r in read_rows(tmp_path / "volume_summary.csv")}
        # baseline rate 200, event multiplier 2.4 planted by the generator
        assert summary["mean_tweets_per_ticker_day"] == pytest.approx(200, rel=0.15)
        assert summary["day0_to_quiet_ratio"] == pytest.approx(2.4, rel=0.1)


class TestPipeline:
    def test_all_outputs_and_manifest(self, data_dir, tmp_path):
        out = tmp_path / "reports"
        rc = main(["--out", str(out), "pipeline", *data_flags(data_dir)])
        assert rc == 0
        for name in PIPELINE_FILES:
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "pipeline"
        assert manifest["dataset"]["events"] == 24
        assert set(manifest["inputs"]) == {"prices", "index", "tweets", "events"}
        assert manifest["excluded_events"] == []

    def test_every_report_roundtrips_generic_csv(self, data_dir, tmp_path):
        out = tmp_path / "reports"
        assert main(["--out", str(out), "pipeline", *data_flags(data_dir)]) == 0
        for name in PIPELINE_FILES:
            if not name.endswith(".csv"):
                continue
            with open(out / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) >= 2, name  # header plus data
            width = len(rows[0])
            assert all(len(r) == width for r in rows), name

    def test_rerun_byte_identical_reports(self, data_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["--out", str(out1), "pipeline", *data_flags(data_dir)]) == 0
        assert main(["--out", str(out2), "pipeline", *data_flags(data_dir)]) == 0
        for name in PIPELINE_FILES:
            if name == "manifest.json":
                continue  # carries the run timestamp
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_corrupt_input_leaves_no_outputs(self, data_dir, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        for name in ("index.csv", "tweets.csv", "events.csv"):
            (bad / name).write_bytes((data_dir / name).read_bytes())
        prices = (data_dir / "prices.csv").read_text().splitlines()
        prices[3] = prices[3].replace(",", ";;", 1)
        (bad / "prices.csv").write_text("\n".join(prices) + "\n")
        out = tmp_path / "reports"
        rc = main([
            "--out", str(out), "pipeline",
            "--prices", str(bad / "prices.csv"),
            "--index", str(bad / "index.csv"),
            "--tweets", str(bad / "tweets.csv"),
            "--events", str(bad / "events.csv"),
        ])
        assert rc == 3  # schema error
        assert not out.exists() or not list(out.iterdir())

    def test_config_file_with_flag_override(self, data_dir, tmp_path):
        config = {
            "data": {name: str(data_dir / f"{name}.csv")
                     for name in ("prices", "index", "tweets", "events")},
            "out": str(tmp_path / "from_config"),
            "backtest": {"spread": 0.02},
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        rc = main(["--config", str(cfg), "backtest"])
        assert rc == 0
        m1 = json.loads((tmp_path / "from_config" / "manifest.json").read_text())
        assert m1["config"]["backtest"]["spread"] == 0.02
        # flag wins over config
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "flag_out"),
                   "backtest", "--spread", "0.07"])
        assert rc == 0
        m2 = json.loads((tmp_path / "flag_out" / "manifest.json").read_text())
        assert m2["config"]["backtest"]["spread"] == 0.07

    def test_missing_data_path_errors(self, tmp_path):
        rc = main(["--out", str(tmp_path), "pipeline"])
        assert rc == 2


def manifest_digest(path: Path) -> str:
    """SHA-256 of a manifest, all but ``created_utc``, as sorted JSON."""
    manifest = json.loads(path.read_text())
    del manifest["created_utc"]
    return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()


class TestManifestsPinned:
    """The ``synth`` and ``pipeline`` manifests of the Quickstart spec and of
    the paper-scale spec, all but ``created_utc``, pinned as a run that held
    every tweet row to its end wrote them: the dataset counts are the rows
    loaded, whatever the run keeps."""

    PAPER = {"seed": 7, "n_tickers": 30, "n_days": 900, "events_per_ticker": 12,
             "event_spacing": 60}
    DIGESTS = {
        ("quickstart", "synth"): "017ae85e40cd391c008884444145ff96cad1570a24ae617852c9be24f44216a8",
        ("quickstart", "pipeline"):
            "4ec8bd516ff5c3c9170b1a47eb09bf75d03d1fd323417bfc128e87e761d72902",
        ("paper", "synth"): "5b58601469713fe2ac76be1ddd4a737633cdc7600ed8249df98fdd2f7d677d48",
        ("paper", "pipeline"): "c47360b46ec41cb1bcf933a3c6bab2c506babfcb430ae77eba180db2d21503a5",
    }

    @pytest.mark.parametrize("name", ["quickstart", "paper"])
    def test_synth_and_pipeline_manifests(self, name, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC if name == "quickstart" else self.PAPER))
        data, reports = tmp_path / "data", tmp_path / "reports"
        assert main(["--out", str(data), "synth", "--spec", str(spec)]) == 0
        assert main(["--out", str(reports), "pipeline", *data_flags(data)]) == 0
        assert {(name, command): manifest_digest(out / "manifest.json")
                for command, out in (("synth", data), ("pipeline", reports))} == {
            key: digest for key, digest in self.DIGESTS.items() if key[0] == name}


def key_paths(node, path=()):
    """Each leaf of a JSON object by its key path; a list is a leaf."""
    if not isinstance(node, dict):
        return {path: node}
    return {leaf: value for key, child in node.items()
            for leaf, value in key_paths(child, (*path, key)).items()}


class TestReportManifestsArePipelines:
    """A report command's manifest is ``pipeline``'s limited to the reports it
    ran: each of its key paths but ``created_utc``, ``command`` and
    ``outputs`` holds the value that ``pipeline``'s holds there, and a
    stratum is keyed by the CSV its command wrote."""

    STRATA = [["--timing", timing, "--polarity-day", day]
              for timing in ("afterclose", "beforeopen") for day in ("0", "-1")]
    RUNS = [["volume"], ["thresholds"], *(["study", *flags] for flags in STRATA),
            *(["curves", *flags] for flags in STRATA), ["backtest"], ["regress"]]

    @pytest.fixture(scope="class")
    def pipeline(self, data_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("pipeline")
        assert main(["--out", str(out), "pipeline", *data_flags(data_dir)]) == 0
        return key_paths(json.loads((out / "manifest.json").read_text()))

    @pytest.mark.parametrize("argv", RUNS, ids=" ".join)
    def test_every_key_path_is_pipelines(self, argv, pipeline, data_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), *argv, *data_flags(data_dir)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        paths = {path: value for path, value in key_paths(manifest).items()
                 if path[0] not in ("created_utc", "command", "outputs")}
        assert {path: pipeline.get(path, "absent") for path in paths} == paths
        section = {"study": "studies", "curves": "curves"}.get(argv[0])
        if section:
            tag = "sent0" if argv[-1] == "0" else "sentm1"
            name = f"{argv[0]}_{tag}_{argv[2]}.csv"
            assert list(manifest[section]) == [name]
            assert manifest["outputs"] == [name]
            assert (out / name).is_file()


def test_a_manifests_config_reruns_its_run(data_dir, tmp_path):
    """A ``pipeline`` manifest's ``config`` holds every setting under the key
    a config file gives it: with the data paths it reruns the run, to the
    same 15 CSVs and the same manifest."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"volume": {"rel_min": -3, "rel_max": 7}}))
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["--config", str(config), "--out", str(first), "pipeline", *data_flags(data_dir),
                 "--until", "2015-11-30", "--spread", "0.02", "--estimation-window", "100",
                 "--from", "2015-09-01"]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    config.write_text(json.dumps({**manifest["config"], "data": {
        name: str(data_dir / f"{name}.csv") for name in cli.INPUTS}}))
    assert main(["--config", str(config), "--out", str(again), "pipeline"]) == 0
    csvs = sorted(p.name for p in first.glob("*.csv"))
    assert len(csvs) == 15
    assert [(again / name).read_bytes() for name in csvs] == [
        (first / name).read_bytes() for name in csvs]
    assert manifest_digest(again / "manifest.json") == manifest_digest(first / "manifest.json")


class TestTweetsOutsideCalendar:
    def test_excluded_and_counted_alike_by_every_command(self, data_dir, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("prices.csv", "index.csv", "events.csv"):
            (data / name).write_bytes((data_dir / name).read_bytes())
        tweets = (data_dir / "tweets.csv").read_text() + "2030-01-02T15:00:00Z,SYA,1,1,1\n"
        (data / "tweets.csv").write_text(tweets)
        for command in ("pipeline", "backtest", "score"):
            out = tmp_path / command
            assert main(["--out", str(out), command, *data_flags(data)]) == 0, command
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["dataset"]["tweets_outside_calendar"] == 1, command
            assert manifest["dataset"]["tweets"] == tweets.count("\n") - 1, command
        # the excluded bucket changes no report
        clean = tmp_path / "clean"
        assert main(["--out", str(clean), "pipeline", *data_flags(data_dir)]) == 0
        for name in PIPELINE_FILES:
            if name != "manifest.json":
                assert (clean / name).read_bytes() == (tmp_path / "pipeline" / name).read_bytes()


class TestBytesThatAreNotUtf8:
    """A line with a byte that is not UTF-8 gets one row-numbered schema
    diagnostic, the rest of its file is still checked, and the run exits 3."""

    BAD = {
        "prices.csv": b"2015-06-01,SY\xffA,1.0,1\n",
        "index.csv": b"2015-06-0\xff,1000.0\n",
        "tweets.csv": b"2015-06-01T15:00:00Z,SY\xffA,1,1,1\n",
        "events.csv": b"SY\xffA,2015-06-01T21:00:00Z,AfterClose,1.0,1.0\n",
    }

    @pytest.mark.parametrize("name", list(BAD))
    def test_one_schema_diagnostic_then_the_rest_of_the_file(self, name, data_dir, tmp_path,
                                                             capsys):
        data = tmp_path / "data"
        data.mkdir()
        for other in self.BAD:
            (data / other).write_bytes((data_dir / other).read_bytes())
        text = (data / name).read_bytes()
        n_lines = text.count(b"\n")
        (data / name).write_bytes(text + self.BAD[name] + b"x\n")  # then a short line
        assert main(["--out", str(tmp_path / "out"), "ingest", *data_flags(data)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        with pytest.raises(SchemaMismatch) as raised:
            load_dataset(*(data / f"{n}.csv" for n in ("prices", "index", "tweets", "events")))
        width = len(next(csv.reader([text.decode().splitlines()[0]])))
        assert [(d.path, d.line, d.kind, d.message) for d in raised.value.diagnostics] == [
            (str(data / name), n_lines + 1, "schema", "bytes that are not UTF-8"),
            (str(data / name), n_lines + 2, "schema", f"expected {width} cells, got 1"),
        ]


class TestIngestCoverage:
    def test_excluded_count_follows_the_study_settings(self, data_dir, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "ingest", *data_flags(data_dir)]) == 0
        assert "24 events (0 excluded by coverage)" in capsys.readouterr().out
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"study": {"estimation_window": 200}}))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "ingest",
                     *data_flags(data_dir)]) == 0
        # the first event of each ticker has fewer than 200 days of history
        assert "24 events (12 excluded by coverage)" in capsys.readouterr().out


class TestFailedRun:
    def test_failed_rerun_leaves_out_exactly_as_it_was(self, data_dir, tmp_path):
        out = tmp_path / "reports"
        assert main(["--out", str(out), "pipeline", *data_flags(data_dir)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == sorted(PIPELINE_FILES)
        # no event is announced by then, so the backtest has no thresholds
        rc = main(["--out", str(out), "pipeline", *data_flags(data_dir),
                   "--thresholds-until", "2000-01-01"])
        assert rc == 5
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["reports"]  # no staging left


class TestCommitOntoADirectory:
    """A file the run would move into its directory (``--out``, or
    ``ingest``'s ``--emit``) whose name there is a directory: no file is
    moved in, nothing is printed on stdout, and no staging directory is left."""

    @pytest.mark.parametrize("command, trap, kept", [
        ("pipeline", "volume_hourly.csv", "volume_daily.csv"),
        ("backtest", "equity.csv", "trades.csv"),
        ("synth", "manifest.json", "prices.csv"),
        ("ingest", "tweets.csv", "prices.csv"),
    ])
    def test_out_is_left_exactly_as_it_was(self, command, trap, kept, data_dir, tmp_path,
                                           capsys):
        out = tmp_path / "out"
        (out / trap / "x").mkdir(parents=True)
        (out / kept).write_text("from an earlier run\n")  # a file the run would replace
        before = {p.relative_to(out): p.is_dir() or p.read_bytes() for p in out.rglob("*")}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC))
        args = {"synth": ["--spec", str(spec)],
                "ingest": [*data_flags(data_dir), "--emit", str(out)]}.get(command,
                                                                        data_flags(data_dir))
        assert main(["--out", str(out), command, *args]) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {trap}: Is a directory\n")
        assert {p.relative_to(out): p.is_dir() or p.read_bytes() for p in out.rglob("*")} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "spec.json"]


def test_only_main_prints_and_commits():
    """``cli.main`` is the run's one end: no other code prints or commits, a
    command only queues its lines and stages its files."""
    found = []
    for path in sorted(Path(eastudy.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        main_nodes = {id(node) for top in tree.body if path.name == "cli.py"
                      and isinstance(top, ast.FunctionDef) and top.name == "main"
                      for node in ast.walk(top)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in main_nodes
                  and (getattr(node.func, "id", None) == "print"
                       or getattr(node.func, "attr", None) == "commit")]
    assert found == []


def mistyped_spec(bad, window, data):
    spec = bad.parent / "typed.json"
    spec.write_text(json.dumps({"n_tickers": "abc"}))
    return ["synth", "--spec", str(spec)]


def reversed_volume_window(bad, window, data):
    config = bad.parent / "volume.json"
    config.write_text(json.dumps({"volume": {"rel_min": 5, "rel_max": -5}}))
    return ["--config", str(config), "volume", *data]


class TestInvalidSettings:
    CASES = {
        "mistyped spec": mistyped_spec,
        "volume window": reversed_volume_window,
        "malformed config": lambda bad, window, data: ["--config", str(bad), "score", *data],
        "malformed spec": lambda bad, window, data: ["synth", "--spec", str(bad)],
        "event window": lambda bad, window, data: ["--config", str(window), "study", *data],
        "estimation window": lambda bad, window, data: [
            "study", *data, "--estimation-window", "1"],
        "significance": lambda bad, window, data: ["pipeline", *data, "--significance", "2"],
        "until": lambda bad, window, data: ["thresholds", *data, "--until", "2015-13-01"],
        "from": lambda bad, window, data: ["backtest", *data, "--from", "nope"],
        "config out": lambda bad, window, data: [
            "--config", str(bad.with_name("out.json")), "score", *data],
        "config data path": lambda bad, window, data: [
            "--config", str(bad.with_name("data.json")), "score"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_5_with_an_error_line(self, case, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"until": ')
        window = tmp_path / "window.json"
        window.write_text(json.dumps({"study": {"event_window": [3, 1]}}))
        (tmp_path / "out.json").write_text(json.dumps({"out": 5}))
        (tmp_path / "data.json").write_text(json.dumps({"data": {"prices": 7}}))
        argv = self.CASES[case](bad, window, data_flags(data_dir))
        out = tmp_path / "out"
        # the config's out is read only where no --out is given
        assert main(argv if case == "config out" else ["--out", str(out), *argv]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


class TestConfigKeys:
    """Every config key is one a setting reads: a misspelled key or a section
    that is not an object is refused before any work, never ignored."""

    REFUSED = {
        "misspelled study key": ({"study": {"estimation_windw": 60}}, "study.estimation_windw"),
        "section not an object": ({"study": 3}, "study 3"),
        "nested key at the top": ({"estimation_window": 60}, "estimation_window"),
        "unknown data input": ({"data": {"quotes": "q.csv"}}, "data.quotes"),
        "synth not an object": ({"synth": [1]}, "synth [1]"),
        "first of two": ({"until": None, "volume": {"rel_mn": 1}, "x": 1}, "volume.rel_mn"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_exit_5_naming_the_first(self, case, data_dir, tmp_path, capsys):
        config, named = self.REFUSED[case]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["--out", str(out), "--config", str(path), "study",
                     *data_flags(data_dir)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and err.count("\n") == 1
        assert not out.exists()

    def test_every_known_key_runs(self, data_dir, tmp_path):
        config = {
            "data": {name: str(data_dir / f"{name}.csv") for name in cli.INPUTS},
            "out": str(tmp_path / "out"),
            "synth": {"seed": 11},
            **{keys[0]: {} for keys, _, _ in cli.SETTINGS.values() if len(keys) > 1},
        }
        for keys, default, _ in cli.SETTINGS.values():
            node = config
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = default
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "pipeline"]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(PIPELINE_FILES)


class TestSettingsFileIsADirectory:
    """A directory as ``--config`` or ``synth --spec`` is a missing file, as an
    input directory is: exit 2 with one error line."""

    CASES = {
        "config": lambda folder, data: ["--config", str(folder), "calendar",
                                        "--index", str(data / "index.csv")],
        "spec": lambda folder, data: ["synth", "--spec", str(folder)],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_with_an_error_line(self, case, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), *self.CASES[case](data_dir, data_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()


class TestNeitherFileNorPipe:
    """A device such as ``/dev/null`` as an input or as ``--config`` is
    refused as a missing file: exit 2 with one error line."""

    CASES = {
        "events": lambda data: ["ingest", *data_flags(data)[:-1], "/dev/null"],
        "config": lambda data: ["--config", "/dev/null", "ingest", *data_flags(data)],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_with_an_error_line(self, case, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), *self.CASES[case](data_dir)]) == 2
        assert capsys.readouterr().err == "error: /dev/null: not a regular file or a pipe\n"
        assert not out.exists()


class TestSynthSpecFromConfig:
    """``synth`` without ``--spec`` reads the config's ``synth`` section:
    the same files and manifest config as ``--spec`` with that object, and
    ``--seed`` overrides the section's seed."""

    SECTION = {"seed": 3, "n_tickers": 2, "n_days": 40, "events_per_ticker": 1,
               "first_event_day": 20}

    def run(self, out: Path, *argv: str) -> dict:
        """The files ``synth`` writes, with the manifest as its ``config``."""
        assert main(["--out", str(out), *argv]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        files["manifest.json"] = json.loads(files["manifest.json"])["config"]
        return files

    def test_same_as_the_spec_file(self, tmp_path):
        config, spec, spec99 = tmp_path / "run.json", tmp_path / "spec.json", tmp_path / "99.json"
        config.write_text(json.dumps({"synth": self.SECTION}))
        spec.write_text(json.dumps(self.SECTION))
        spec99.write_text(json.dumps({**self.SECTION, "seed": 99}))
        from_config = self.run(tmp_path / "c", "--config", str(config), "synth")
        assert sorted(from_config) == ["events.csv", "index.csv", "manifest.json",
                                       "prices.csv", "tweets.csv"]
        assert from_config == self.run(tmp_path / "s", "synth", "--spec", str(spec))
        seeded = self.run(tmp_path / "c99", "--config", str(config), "--seed", "99", "synth")
        assert seeded == self.run(tmp_path / "s99", "synth", "--spec", str(spec99))
        assert seeded["manifest.json"]["seed"] == 99
        assert seeded["index.csv"] != from_config["index.csv"]


class TestBooleanSettings:
    """A JSON ``true`` or ``false`` is no number: every numeric setting
    refuses one, in place of reading it as 1 or 0."""

    SETTINGS = {
        "study.event_window": {"study": {"event_window": [-1, True]}},
        "study.estimation_window": {"study": {"estimation_window": True}},
        "study.significance": {"study": {"significance": True}},
        "backtest.spread": {"backtest": {"spread": True}},
        "volume.rel_min": {"volume": {"rel_min": False}},
        "volume.rel_max": {"volume": {"rel_max": True}},
        "polarity_day": {"polarity_day": False},
    }

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    def test_exit_5_with_one_error_line(self, setting, data_dir, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(self.SETTINGS[setting]))
        out = tmp_path / "out"
        assert main(["--out", str(out), "--config", str(config), "backtest",
                     *data_flags(data_dir)]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid {setting} ") and err.count("\n") == 1
        assert not out.exists()


class TestDateGrammar:
    """A date setting and the generator's ``start`` take ``YYYY-MM-DD`` alone,
    not the other ISO 8601 forms ``date.fromisoformat`` takes on some Python."""

    @pytest.mark.parametrize("until", ["20151015", "2015-W42-4"])
    def test_until_exits_5_with_one_error_line(self, until, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "thresholds", "--until", until,
                     *data_flags(data_dir)]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid until {until!r}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("start", ["20150105", "2015-W02-1"])
    def test_synth_start_exits_5_with_one_error_line(self, start, tmp_path, capsys):
        spec, out = tmp_path / "spec.json", tmp_path / "out"
        spec.write_text(json.dumps({"n_days": 30, "start": start}))
        assert main(["--out", str(out), "synth", "--spec", str(spec)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: invalid synth spec: ") and err.count("\n") == 1
        assert not out.exists()


def no_space(path) -> OSError:
    """The error a write to ``path`` on a full disk raises: the writer names the file."""
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))


def one_write_error(capsys, name: str) -> None:
    """The run printed one ``error:`` line, naming ``name`` and the disk being full."""
    assert capsys.readouterr().err == f"error: cannot write {name}: No space left on device\n"


def failing_after_first_file(monkeypatch):
    """Make every dataset file or report write after the first one fail, as
    on a full disk; returns the list of the files written."""
    written = []
    write_lines = ingest._write_lines

    def first_only(path, *args):
        if written:
            raise no_space(path)
        written.append(path)
        return write_lines(path, *args)

    monkeypatch.setattr(ingest, "_write_lines", first_only)
    return written


class TestFailedRunLeavesNoParents:
    """A failed run removes the parent directories it made for its output."""

    @pytest.mark.parametrize("option", ["--out", "--emit"])
    def test_no_new_directory_is_left(self, option, data_dir, tmp_path, monkeypatch, capsys):
        fx = tmp_path / "fx"
        fx.mkdir()
        written = failing_after_first_file(monkeypatch)
        target = str(fx / "new" / "sub" / "target")
        if option == "--out":
            argv = ["--out", target, "pipeline", *data_flags(data_dir)]
        else:
            argv = ["--out", str(tmp_path / "out"), "ingest", *data_flags(data_dir),
                    "--emit", target]
        assert main(argv) == 2
        # the first file is staged, the second fails
        assert [p.name for p in written] == [
            "volume_daily.csv" if option == "--out" else "prices.csv"]
        one_write_error(capsys, "volume_hourly.csv" if option == "--out" else "index.csv")
        assert list(fx.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fx"]

    def test_a_staged_report_is_removed_with_them(self, data_dir, tmp_path, monkeypatch, capsys):
        """Reports and dataset files share one writer: fail its second call,
        after one report is staged."""
        fx = tmp_path / "fx"
        fx.mkdir()
        write_lines, staged = ingest._write_lines, []

        def second_fails(path, *args):
            staged.append(path)
            if len(staged) > 1:
                raise no_space(path)
            return write_lines(path, *args)

        monkeypatch.setattr(ingest, "_write_lines", second_fails)
        assert main(["--out", str(fx / "new" / "out"), "pipeline", *data_flags(data_dir)]) == 2
        one_write_error(capsys, staged[1].name)
        assert len(staged) == 2 and staged[0].parent.name.startswith(".out.")
        assert list(fx.iterdir()) == []

    def test_a_committed_run_keeps_them(self, data_dir, tmp_path):
        target = tmp_path / "fx" / "new" / "out"
        assert main(["--out", str(target), "calendar", "--index",
                     str(data_dir / "index.csv")]) == 0
        assert [p.name for p in target.iterdir()] == ["calendar.csv"]


class TestOutputTooLarge:
    """Under a 4096-byte file-size limit every writing command exits 2 with
    one ``error:`` line naming the file it could not write, and leaves
    nothing beside ``--out`` or ``--emit``."""

    @pytest.mark.parametrize("command", ["pipeline", "synth", "ingest"])
    def test_exit_2_with_one_error_line(self, command, data_dir, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC))
        work = tmp_path / "work"
        work.mkdir()
        argv, names = {
            "pipeline": (["pipeline", *data_flags(data_dir)], PIPELINE_FILES),
            "synth": (["synth", "--spec", str(spec)], DATASET_FILES),
            "ingest": (["ingest", *data_flags(data_dir), "--emit", str(work / "emit")],
                       DATASET_FILES),
        }[command]
        done = subprocess.run(
            [sys.executable, "-m", "eastudy.cli", "--out", str(work / "out"), *argv],
            env={**os.environ, "PYTHONPATH": str(Path(eastudy.__file__).parents[1])},
            capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096)))
        assert done.returncode == 2, done.stderr
        [line] = done.stderr.splitlines()
        name = line.removeprefix("error: cannot write ").removesuffix(": File too large")
        assert name in names, line
        assert list(work.iterdir()) == []


class TestSynthImportedOnlyBySynth:
    @pytest.mark.parametrize("command", ["calendar", "pipeline"])
    def test_command_never_loads_the_generator(self, command, data_dir, tmp_path):
        flags = ["--index", str(data_dir / "index.csv")] if command == "calendar" else data_flags(
            data_dir)
        code = ("import sys; from eastudy.cli import main; "
                f"rc = main({['--out', str(tmp_path / 'out'), command, *flags]!r}); "
                "print(rc, 'eastudy.synth' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(eastudy.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.splitlines()[-1] == "0 False"


def child(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args``, importing this eastudy."""
    env = {**os.environ, "PYTHONPATH": str(Path(eastudy.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


class TestImportWork:
    """What ``import eastudy.cli`` does, pinned by structure: it builds no
    dataclass and loads neither the trading code, the regressions nor the
    generator."""

    def test_no_dataclass_and_no_trading_returns_or_synth(self):
        done = child("-c", (
            "import json, sys, eastudy.cli\n"
            "mods = {n: m for n, m in sys.modules.items() if n.split('.')[0] == 'eastudy'}\n"
            "print(json.dumps({'loaded': sorted(mods), 'dataclasses': sorted(\n"
            "    f'{n}.{k}' for n, m in mods.items() for k, c in vars(m).items()\n"
            "    if isinstance(c, type) and hasattr(c, '__dataclass_fields__'))}))"))
        assert done.returncode == 0, done.stderr
        found = json.loads(done.stdout)
        assert found["dataclasses"] == []
        assert {"eastudy.cli", "eastudy.ingest", "eastudy.reports"} <= set(found["loaded"])
        assert not {"eastudy.trading", "eastudy.returns", "eastudy.regression",
                    "eastudy.synth"} & set(found["loaded"])

    @pytest.mark.parametrize("command", ["curves", "backtest"])
    def test_trading_loaded_by_the_commands_that_use_it(self, command, data_dir, tmp_path):
        argv = ["--out", str(tmp_path / "out"), command, *data_flags(data_dir)]
        done = child("-c", "import sys; from eastudy.cli import main; "
                     f"rc = main({argv!r}); print(rc, 'eastudy.trading' in sys.modules)")
        assert done.stdout.splitlines()[-1] == "0 True", done.stderr

    @pytest.mark.parametrize("command", ["regress", "pipeline"])
    def test_regression_loaded_by_the_commands_that_regress(self, command, data_dir, tmp_path):
        argv = ["--out", str(tmp_path / "out"), command, *data_flags(data_dir)]
        done = child("-c", "import sys; from eastudy.cli import main; "
                     f"rc = main({argv!r}); print(rc, 'eastudy.regression' in sys.modules)")
        assert done.stdout.splitlines()[-1] == "0 True", done.stderr


class TestParserBuildsTheNamedSubcommand:
    """``build_parser(argv)`` gives flags only to the subcommands named in
    ``argv``, and help prints what the full parser prints."""

    @staticmethod
    def subparsers(parser):
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    @pytest.mark.parametrize("command", [None, *cli.COMMANDS])
    def test_help_is_the_full_parsers(self, command, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["-h"] if command is None else [command, "-h"])
        assert stop.value.code == 0
        full = build_parser()
        parser = full if command is None else self.subparsers(full)[command]
        assert capsys.readouterr().out == parser.format_help()

    def test_only_the_named_subcommand_gets_flags(self):
        flagged = {name for name, p in self.subparsers(build_parser(["--seed", "3", "score"])).items()
                   if len(p._actions) > 1}  # every parser has -h
        assert flagged == {"score"}

    def test_an_option_value_that_names_a_command(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--out", "study", "score", *data_flags(data_dir)]) == 0
        assert (tmp_path / "study" / "scores.csv").is_file()


class TestScriptPath:
    """``python -m eastudy.cli`` and the ``eastudy`` script run ``run``: the
    same exit code, output and report bytes as ``main`` in-process, then
    ``gc.freeze()``, which ``main`` never calls."""

    @staticmethod
    def reports(root):
        files = {p.name: p.read_bytes() for p in sorted(root.iterdir())} if root.exists() else {}
        if "manifest.json" in files:
            manifest = json.loads(files.pop("manifest.json"))
            del manifest["created_utc"]
            files["manifest.json"] = manifest
        return files

    @pytest.mark.parametrize("code", [0, 2])
    def test_same_as_main_in_process(self, code, data_dir, tmp_path, capsys):
        flags = data_flags(data_dir)
        if code == 2:
            flags[1] = str(tmp_path / "absent.csv")

        def argv(out):
            return ["--out", str(out), "backtest", *flags]

        assert main(argv(tmp_path / "inproc")) == code
        printed = capsys.readouterr()
        done = child("-m", "eastudy.cli", *argv(tmp_path / "script"))
        assert (done.returncode, done.stdout, done.stderr) == (code, printed.out, printed.err)
        assert self.reports(tmp_path / "script") == self.reports(tmp_path / "inproc")
        assert bool(self.reports(tmp_path / "inproc")) == (code == 0)

    def test_run_freezes_and_main_does_not(self, data_dir, tmp_path):
        assert main(["--out", str(tmp_path / "out"), "calendar",
                     "--index", str(data_dir / "index.csv")]) == 0
        assert gc.get_freeze_count() == 0
        argv = ["eastudy", "--out", str(tmp_path / "run"), "calendar",
                "--index", str(data_dir / "index.csv")]
        done = child("-c", "import gc, sys; from eastudy.cli import run; "
                     f"sys.argv = {argv!r}; print(run(), gc.get_freeze_count() > 0)")
        assert done.stdout.splitlines()[-1] == "0 True", done.stderr

    def test_console_script_names_run(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"eastudy": "eastudy.cli:run"}


class TestEventOrderDoesNotMatter:
    """``pipeline`` on an events file reversed or shuffled writes the same
    reports and the same manifest, whether the fast path or the row loop
    reads it."""

    @pytest.mark.parametrize("reader", ["fast path", "row loop"])
    def test_same_reports_and_manifest(self, reader, data_dir, tmp_path):
        header, *rows = (data_dir / "events.csv").read_text().splitlines(keepends=True)
        assert len(set(rows)) == len(rows)
        shuffled = rows[:]
        random.Random(3).shuffle(shuffled)
        runs = []
        for name, order in (("given", rows), ("reversed", rows[::-1]), ("shuffled", shuffled)):
            data = tmp_path / name
            data.mkdir()
            for other in ("prices.csv", "index.csv", "tweets.csv"):
                (data / other).write_bytes((data_dir / other).read_bytes())
            (data / "events.csv").write_text(header + "".join(order))
            out = tmp_path / f"out_{name}"
            with row_loop_only() if reader == "row loop" else nullcontext():
                assert main(["--out", str(out), "pipeline", *data_flags(data)]) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            manifest = json.loads(files.pop("manifest.json"))
            del manifest["created_utc"]
            del manifest["inputs"]["events"]  # the file's own digest
            runs.append((files, manifest))
        assert len(runs[0][0]) == 15
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestEachInputReadOnce:
    """A run opens each input once, and the manifest's ``inputs`` are the
    SHA-256 of the bytes it read, a pipe's too."""

    def test_pipeline_opens_each_input_once(self, data_dir, tmp_path, monkeypatch):
        opened, real = Counter(), io.open

        def counted(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened[os.fspath(file)] += 1
            return real(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counted)
        monkeypatch.setattr(io, "open", counted)
        assert main(["--out", str(tmp_path / "out"), "pipeline", *data_flags(data_dir)]) == 0
        inputs = [str(data_dir / f"{name}.csv") for name in ("prices", "index", "tweets", "events")]
        assert {path: opened[path] for path in inputs} == dict.fromkeys(inputs, 1)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_fifo_input_is_read_once_and_hashed(self, data_dir, tmp_path):
        fifo = tmp_path / "events.fifo"
        os.mkfifo(fifo)
        events = (data_dir / "events.csv").read_bytes()

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(events)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        flags = data_flags(data_dir)
        flags[flags.index("--events") + 1] = str(fifo)
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(eastudy.__file__).parents[1])}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "eastudy.cli", "--out", str(out), "pipeline", *flags],
                env=env, capture_output=True, text=True, timeout=60)
        finally:
            if writer.is_alive():  # the run never opened the pipe: let the writer go
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(5)
        assert done.returncode == 0 and not writer.is_alive(), done.stderr
        digests = {name: hashlib.sha256((data_dir / f"{name}.csv").read_bytes()).hexdigest()
                   for name in ("prices", "index", "tweets", "events")}
        assert json.loads((out / "manifest.json").read_text())["inputs"] == digests

    def test_a_directory_input_exits_2_with_one_error_line(self, data_dir, tmp_path, capsys):
        flags = data_flags(data_dir)
        flags[flags.index("--prices") + 1] = str(tmp_path)
        out = tmp_path / "out"
        assert main(["--out", str(out), "ingest", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()


class TestSigterm:
    def test_a_terminated_run_leaves_no_staging_directory(self, data_dir, tmp_path,
                                                          monkeypatch):
        """SIGTERM during a run raises SystemExit(143) through ``finally``,
        which discards the staged files; the handler before the run is
        restored after it."""
        def surprise_then_terminate(run):
            cli._emit_surprise(run)
            os.kill(os.getpid(), signal.SIGTERM)

        monkeypatch.setitem(cli.REPORTS, "surprise", surprise_then_terminate)
        ignore = lambda signum, frame: None  # noqa: E731  (a run that sets no handler goes on)
        before = signal.signal(signal.SIGTERM, ignore)
        try:
            with pytest.raises(SystemExit) as stop:
                main(["--out", str(tmp_path / "out"), "surprise", *data_flags(data_dir)])
            after = signal.getsignal(signal.SIGTERM)
        finally:
            signal.signal(signal.SIGTERM, before)
        assert stop.value.code == 143 and after is ignore
        assert list(tmp_path.iterdir()) == []


class TestSigint:
    def test_an_interrupted_pipeline_exits_130_and_leaves_nothing(self, data_dir, tmp_path):
        """SIGINT during a ``pipeline`` child, once its first report is staged:
        exit 130 with one ``error:`` line and no traceback, and ``finally``
        has discarded the staging directory."""
        out = tmp_path / "work" / "out"
        out.parent.mkdir()
        code = ("import os, signal, sys\n"
                "from eastudy import cli, ingest\n"
                "write = ingest._write_text\n"
                "def write_then_interrupt(path, text):\n"
                "    write(path, text)\n"
                "    os.kill(os.getpid(), signal.SIGINT)\n"
                "ingest._write_text = write_then_interrupt\n"
                "sys.exit(cli.run())\n")
        done = child("-c", code, "--out", str(out), "pipeline", *data_flags(data_dir))
        assert done.returncode == 130, done.stderr
        assert done.stderr.splitlines() == ["error: interrupted"]
        assert list(out.parent.iterdir()) == []


class TestStagingDirectoryError:
    def test_names_the_target_not_the_staging_directory(self, data_dir, tmp_path, monkeypatch,
                                                        capsys):
        """A staging directory that cannot be made is reported by the name of
        the directory the user asked for, which they can act on."""
        def refuse(suffix=None, prefix=None, dir=None):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                  os.path.join(dir, f"{prefix}abcdefgh"))

        monkeypatch.setattr(ingest.tempfile, "mkdtemp", refuse)
        assert main(["--out", str(tmp_path / "target"), "score", *data_flags(data_dir)]) == 2
        assert capsys.readouterr().err == "error: cannot write target: Permission denied\n"
        assert list(tmp_path.iterdir()) == []


class TestOutputPathIsAFile:
    def test_exit_5_and_the_file_is_left_alone(self, data_dir, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_bytes(b"not a directory\n")
        rc = main(["--out", str(afile), "calendar", "--index", str(data_dir / "index.csv")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert afile.read_bytes() == b"not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]  # no staging left


class TestSpreadSetting:
    """The backtest's per-share spread is a finite number of at least 0,
    whether it comes from ``--spread`` or from ``backtest.spread``."""

    @staticmethod
    def argv(source, value, data_dir, tmp_path):
        if source == "flag":
            return ["backtest", *data_flags(data_dir), "--spread", str(value)]
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"backtest": {"spread": float(value)}}))
        return ["--config", str(config), "backtest", *data_flags(data_dir)]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-0.01"])
    def test_exit_5_with_one_error_line(self, source, value, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), *self.argv(source, value, data_dir, tmp_path)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: invalid backtest.spread ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("value", [0, 0.05])
    def test_zero_and_positive_run(self, source, value, data_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), *self.argv(source, value, data_dir, tmp_path)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["backtest"]["spread"] == value


class TestWipeOut:
    """A day whose shorts lose all the equity or more leaves it at 0, where
    it stays: a negative factor never flips the sign of the equity."""

    def test_a_spread_of_200_ends_at_zero(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "backtest", *data_flags(data_dir), "--spread", "200"]) == 0
        nets = [float(r["net_return"]) for r in read_rows(out / "trades.csv")]
        assert len(nets) == 4 and max(nets) < -1
        equity = [float(r["strategy"]) for r in read_rows(out / "equity.csv")]
        assert min(equity) == 0.0 and equity[-1] == 0.0
        assert json.loads((out / "manifest.json").read_text())["backtest"]["final_equity"] == 0.0

    def test_a_huge_spread_writes_a_valid_manifest(self, data_dir, tmp_path):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        out = tmp_path / "out"
        argv = ["--out", str(out), "backtest", *data_flags(data_dir), "--spread", "1e308"]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
        assert manifest["backtest"]["final_equity"] == 0.0
        assert all(0.0 <= float(r["strategy"]) <= 1.0 for r in read_rows(out / "equity.csv"))


class TestHeaderOnlyIndex:
    """An index file without a row fails every command that reads it, the
    same way: exit 4, one ``error:`` line, and the output left as it was."""

    @pytest.mark.parametrize("command", ["calendar", "returns"])
    def test_exit_4_and_output_unchanged(self, command, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("prices.csv", "tweets.csv", "events.csv"):
            (data / name).write_bytes((data_dir / name).read_bytes())
        (data / "index.csv").write_text("date,close\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "calendar.csv").write_text("an earlier run\n")
        flags = ["--index", str(data / "index.csv")] if command == "calendar" else data_flags(data)
        assert main(["--out", str(out), command, *flags]) == 4
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].endswith(f"{data / 'index.csv'}:1: index file has no usable rows")
        assert [(p.name, p.read_text()) for p in out.iterdir()] == [
            ("calendar.csv", "an earlier run\n")]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "out"]  # no staging left


class TestIngestEmit:
    """``ingest --emit`` stages the canonical copy like every other output."""

    def test_emit_to_a_file_exits_5_and_leaves_it_alone(self, data_dir, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_bytes(b"not a directory\n")
        assert main(["--out", str(tmp_path / "out"), "ingest", *data_flags(data_dir),
                     "--emit", str(afile)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert afile.read_bytes() == b"not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]  # no staging left

    def test_failed_emit_leaves_the_directory_as_it_was(self, data_dir, tmp_path, monkeypatch,
                                                        capsys):
        emit = tmp_path / "emit"
        emit.mkdir()
        (emit / "prices.csv").write_bytes(b"an earlier copy\n")
        write_lines = ingest._write_lines

        def first_file_only(path, header, lines):
            if path.name != "prices.csv":
                raise no_space(path)
            write_lines(path, header, lines)

        monkeypatch.setattr(ingest, "_write_lines", first_file_only)
        assert main(["--out", str(tmp_path / "out"), "ingest", *data_flags(data_dir),
                     "--emit", str(emit)]) == 2
        one_write_error(capsys, "index.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["emit"]  # no staging left
        assert [p.name for p in emit.iterdir()] == ["prices.csv"]
        assert (emit / "prices.csv").read_bytes() == b"an earlier copy\n"


class TestNoEventAnchorOnTheRunPath:
    """``pipeline`` and ``ingest`` measure events from the event table's
    columns: with ``EventAnchor`` uninstantiable they run and write the same
    bytes as without the patch."""

    def test_same_outputs_without_event_anchors(self, data_dir, tmp_path, monkeypatch, capsys):
        def outputs(root):
            assert main(["--out", str(root / "reports"), "pipeline", *data_flags(data_dir)]) == 0
            assert main(["--out", str(root / "ingest"), "ingest", *data_flags(data_dir),
                         "--emit", str(root / "emit")]) == 0
            printed = capsys.readouterr().out.replace(str(root), "ROOT")
            files = {p.relative_to(root).as_posix(): p.read_bytes()
                     for p in sorted(root.rglob("*")) if p.is_file()}
            manifest = json.loads(files.pop("reports/manifest.json"))
            del manifest["created_utc"]
            return printed, files, manifest

        plain = outputs(tmp_path / "plain")

        def refuse(self, *args, **kwargs):
            raise AssertionError("an EventAnchor was made on the run path")

        monkeypatch.setattr(EventAnchor, "__init__", refuse)
        with pytest.raises(AssertionError):
            EventAnchor(None, None, None)
        assert outputs(tmp_path / "guarded") == plain


class TestOneRowIndex:
    def test_returns_exits_5_on_a_dataset_that_loads(self, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("prices.csv", "index.csv", "tweets.csv", "events.csv"):
            header, first = (data_dir / name).read_text().splitlines()[:2]
            (data / name).write_text(f"{header}\n{first}\n")
        for command in ("ingest", "score"):
            assert main(["--out", str(tmp_path / command), command, *data_flags(data)]) == 0
        out = tmp_path / "out"
        assert main(["--out", str(out), "returns", *data_flags(data)]) == 5
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        assert not out.exists()


class TestEachEventMeasuredOnce:
    def test_pipeline_fits_each_universe_event_once(self, data_dir, tmp_path, monkeypatch):
        ds = load_dataset(*(data_dir / f"{name}.csv" for name in
                            ("prices", "index", "tweets", "events")))
        universe = build_universe(ds)
        # an event's key by its (ticker, day 0), which the kernel's rows carry
        events = records(universe.events)
        key_of = {(ev.ticker, d): ev.key() for ev, d in zip(events, universe.day0.tolist())}
        assert len(key_of) == len(universe.events)
        fitted = []
        fit = event_study.fit_rows

        def counting_fit(stock, index, day0, cfg, ticker):
            fitted.extend(key_of[ticker, d] for d in day0.tolist())
            return fit(stock, index, day0, cfg, ticker)

        monkeypatch.setattr(event_study, "fit_rows", counting_fit)
        assert main(["--out", str(tmp_path / "out"), "pipeline", *data_flags(data_dir)]) == 0
        assert sorted(fitted) == sorted(ev.key() for ev, used in zip(events, universe.used) if used)


class TestEachEventAnchoredOnce:
    def test_pipeline_anchors_each_dataset_event_at_most_once(self, data_dir, tmp_path,
                                                             monkeypatch):
        calls, anchored = [], Counter()
        for module in (reports, trading):  # every place that anchors events
            if hasattr(module, "anchor_days"):
                def counting(cal, events, original=getattr(module, "anchor_days")):
                    calls.append(len(events))
                    anchored.update(ev.key() for ev in records(events))
                    return original(cal, events)

                monkeypatch.setattr(module, "anchor_days", counting)
        assert main(["--out", str(tmp_path / "out"), "pipeline", *data_flags(data_dir),
                     "--thresholds-until", "2015-10-15"]) == 0
        n_events = SPEC["n_tickers"] * SPEC["events_per_ticker"]
        assert calls == [n_events]  # one vectorized pass per run
        assert len(anchored) == n_events
        assert set(anchored.values()) == {1}


class TestThresholdsUntilNarrowsUntil:
    """``--thresholds-until`` narrows the sample the backtest's Sent(-1) cuts
    come from, never widens it: the earlier of it and ``until`` bounds it."""

    @pytest.mark.parametrize("command", ["backtest", "pipeline"])
    def test_the_earlier_date_bounds_the_sample(self, command, data_dir, tmp_path):
        def cuts(name, until, thresholds_until):
            config, out = tmp_path / f"{name}.json", tmp_path / name
            config.write_text(json.dumps({"until": until} if until else {}))
            flags = ["--thresholds-until", thresholds_until] if thresholds_until else []
            assert main(["--config", str(config), "--out", str(out), command,
                         *data_flags(data_dir), *flags]) == 0
            backtest = json.loads((out / "manifest.json").read_text())["backtest"]
            return [backtest[key] for key in ("threshold_events", "t_low", "t_high")]

        early, late = "2015-10-15", "2016-02-01"
        until_only = cuts("until", early, None)
        assert until_only != cuts("late", late, None)  # the two dates cut different samples
        assert cuts("later", early, late) == until_only
        assert cuts("earlier", late, early) == cuts("thresholds_until", None, early)


class TestReturnsAcrossAGap:
    def test_a_return_spanning_a_missing_bar_is_omitted_and_counted(self, data_dir, tmp_path):
        lines = (data_dir / "prices.csv").read_text().splitlines(keepends=True)
        sya = [line.split(",")[0] for line in lines[1:] if line.split(",")[1] == "SYA"]
        gone, after = sya[10], sya[11]
        data = tmp_path / "data"
        data.mkdir()
        kept = [line for line in lines if not line.startswith(f"{gone},SYA,")]
        (data / "prices.csv").write_text("".join(kept))
        for name in ("index.csv", "tweets.csv", "events.csv"):
            (data / name).write_bytes((data_dir / name).read_bytes())
        returns = {}
        for name, source in (("full", data_dir), ("gapped", data)):
            assert main(["--out", str(tmp_path / name), "returns", *data_flags(source)]) == 0
            returns[name] = {(r["ticker"], r["date"]): r["ret"]
                             for r in read_rows(tmp_path / name / "returns.csv")}
        # the two-day move from the bar before the gap is no daily return
        assert returns["gapped"] == {key: r for key, r in returns["full"].items()
                                     if key not in {("SYA", gone), ("SYA", after)}}
        manifest = json.loads((tmp_path / "gapped" / "manifest.json").read_text())
        assert manifest["returns"] == {"omitted_across_gaps": 1}


def gapped_copy(data_dir, root):
    """The Quickstart data with four bars removed and one event appended.

    SYA loses a bar inside its first event's estimation window, SYB and SYC
    bars inside event windows (SYC's on the day 0 of a traded event), and a
    new SYF AfterClose event's day +10 runs past the calendar's end.
    """
    dates = [line.split(",")[0] for line in (data_dir / "index.csv").read_text().splitlines()[1:]]
    pos = {d: i for i, d in enumerate(dates)}
    drop = {
        ("SYA", dates[pos["2015-07-13"] - 60]),
        ("SYB", dates[pos["2015-09-01"] + 3]),
        ("SYC", "2015-12-09"),
        ("SYC", "2015-10-21"),
    }
    root.mkdir()
    lines = (data_dir / "prices.csv").read_text().splitlines(keepends=True)
    kept = [line for line in lines if tuple(line.split(",")[1::-1]) not in drop]
    assert len(kept) == len(lines) - len(drop)
    (root / "prices.csv").write_text("".join(kept))
    for name in ("index.csv", "tweets.csv"):
        (root / name).write_bytes((data_dir / name).read_bytes())
    extra = f"SYF,{dates[-6]}T21:00:00Z,AfterClose,1.01,1.0\n"
    (root / "events.csv").write_text((data_dir / "events.csv").read_text() + extra)
    return root


def manifest_reasons(manifest):
    lists = {"excluded_events": manifest["excluded_events"],
             "backtest": manifest["backtest"]["skipped"],
             **{name: entry["skipped"] for key in ("studies", "curves")
                for name, entry in manifest[key].items()}}
    return {name: [(r["ticker"], r["announce_at"], r["reason"]) for r in rows]
            for name, rows in lists.items()}


AC_SKIPS = [
    ("SYB", "2015-08-31T20:30:00Z", "MissingBar: SYB: no return on 2015-09-04"),
    ("SYC", "2015-10-20T20:30:00Z", "MissingBar: SYC: no return on 2015-10-21"),
    ("SYC", "2015-12-08T21:30:00Z", "MissingBar: SYC: no return on 2015-12-09"),
    ("SYF", "2016-02-19T21:00:00Z", "MissingBar: SYF: calendar ends before relative day 5"),
]
AC_CURVE_SKIPS = [
    ("SYB", "2015-08-31T20:30:00Z", "MissingBar: SYB: no closing price on 2015-09-04"),
    ("SYC", "2015-10-20T20:30:00Z", "MissingBar: SYC: no closing price on 2015-10-21"),
    ("SYC", "2015-12-08T21:30:00Z", "MissingBar: SYC: no closing price on 2015-12-09"),
    ("SYF", "2016-02-19T21:00:00Z", "OutOfCalendarRange: calendar index 300 out of range"),
]


class TestSkipReasonsUnchanged:
    """``pipeline`` on data with bar gaps and an event near the calendar's end
    writes the CSVs and records the skip reasons that the day-by-day lookups
    of returns and closes gave; the values below were pinned from them."""

    DIGESTS = {
        "curves_sent0_afterclose.csv": "9f00e44b7c4960e96112068fd45e164c26ba887e19e6bde57d82f50583bb2ba4",
        "curves_sent0_beforeopen.csv": "b14083c6cacc3192a4bc5139c5570d94fc06bf07546cc75f56d00b6ad26ca6e3",
        "curves_sentm1_afterclose.csv": "6abca41266e36ead2706c291bf0b8f14bda29bdbd82dd5666810b8d6927ed63f",
        "curves_sentm1_beforeopen.csv": "4892d640bc9f5711c45eeb0329077ba770bc929dba1ee629d3c430c73c345719",
        "equity.csv": "2f5e040889be43c65bcfca44c5bf85bf9f98b60dac52ff5ccc7d21f31fb8a8d6",
        "regression.csv": "7e559f98d0bc2d4fe670a3c0081fe9986e843fcad02f67e4406c4d9bccead760",
        "study_sent0_afterclose.csv": "b9933e48874fc1d7651eba85566081534e33d9b1c2f464474e876ad71717afd0",
        "study_sent0_beforeopen.csv": "46fa00eae60428314b21dd0b21e8f17393d52c116e3fb91ff87848814d2c7e85",
        "study_sentm1_afterclose.csv": "51fb6d47fc7423dc5134b102d271ec650e46f1c75b1e7cd812163fd0278c31d9",
        "study_sentm1_beforeopen.csv": "ea29c60816647d9752f609fdf8cf86809969742ed00a130ee3465eb8ed616889",
        "thresholds.csv": "b093dcd2e952257ce963f8d997ad1be9dc247490630ab87df0f4253cf0a25056",
        "trades.csv": "b0b6ef855187e52f7224636a5a87aa6008df7f45c5a6cdd3a5c880168ebf2939",
        "volume_daily.csv": "184371d2649d6c4142fcd5da124619d5ddcdef0b34141f2360d31e062e648406",
        "volume_hourly.csv": "7ea8e1aa807e1fb74a3dce3916595800395c5cb8189b5c6a59e0518f8a5c9d34",
        "volume_summary.csv": "94b4c843b0f6b918985a223a91117ff4b05d50c620cd6feae9a1a875ce0038cd",
    }
    REASONS = {
        "excluded_events": [],
        "backtest": [("SYC", "2015-10-20T20:30:00Z",
                      "MissingBar: no close on 2015-10-20 or 2015-10-21")],
        "study_sent0_afterclose.csv": AC_SKIPS,
        "study_sent0_beforeopen.csv": [],
        "study_sentm1_afterclose.csv": AC_SKIPS,
        "study_sentm1_beforeopen.csv": [],
        "curves_sent0_afterclose.csv": AC_CURVE_SKIPS,
        "curves_sent0_beforeopen.csv": [],
        "curves_sentm1_afterclose.csv": AC_CURVE_SKIPS,
        "curves_sentm1_beforeopen.csv": [],
    }

    def test_same_csvs_and_reasons(self, data_dir, tmp_path):
        data = gapped_copy(data_dir, tmp_path / "data")
        out = tmp_path / "out"
        assert main(["--out", str(out), "pipeline", *data_flags(data)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir() if p.suffix == ".csv"}
        assert digests == self.DIGESTS
        assert manifest_reasons(json.loads((out / "manifest.json").read_text())) == self.REASONS

    def test_the_curves_command_records_its_skips(self, data_dir, tmp_path):
        data = gapped_copy(data_dir, tmp_path / "data")
        out = tmp_path / "out"
        assert main(["--out", str(out), "curves", "--timing", "afterclose",
                     *data_flags(data)]) == 0
        curves = json.loads((out / "manifest.json").read_text())["curves"]
        assert list(curves) == ["curves_sent0_afterclose.csv"]
        skipped = curves["curves_sent0_afterclose.csv"]["skipped"]
        assert [(r["ticker"], r["announce_at"], r["reason"]) for r in skipped] == AC_CURVE_SKIPS


def excluded_copy(data_dir, root):
    """The Quickstart data with three events the universe excludes: a SYA
    BeforeOpen on a Saturday, stamped with a fraction of a second, a SYB
    AfterClose past the calendar's end, and SYD's 2015-09-03 BeforeOpen
    without its day-0 tweets (its ticker's buckets of that close-delimited
    day removed)."""
    root.mkdir()
    for name in ("prices.csv", "index.csv"):
        (root / name).write_bytes((data_dir / name).read_bytes())
    lines = (data_dir / "tweets.csv").read_text().splitlines(keepends=True)
    day0 = [line for line in lines if line.split(",")[1] == "SYD"
            and "2015-09-02T20:00:00Z" < line.split(",")[0] <= "2015-09-03T20:00:00Z"]
    assert len(day0) == 7
    (root / "tweets.csv").write_text("".join(line for line in lines if line not in day0))
    extra = ("SYA,2015-03-07T12:00:00.250000Z,BeforeOpen,1.1,1.0\n"
             "SYB,2016-12-30T22:00:00Z,AfterClose,1.1,1.0\n")
    (root / "events.csv").write_text((data_dir / "events.csv").read_text() + extra)
    return root


class TestExclusionReasonsUnchanged:
    """``pipeline`` on data with events that cannot be anchored or have no
    day-0 tweets writes the CSVs and records the exclusion reasons pinned
    below: the announcement as ``YYYY-MM-DDTHH:MM:SSZ`` with the fraction of
    a second dropped, the anchoring error's text with the instant in full."""

    DIGESTS = {
        "curves_sent0_afterclose.csv": "3c83d02e8dad98a2d354703335f7a6c0a861833ba1abdcedc5318f2bb68c74ee",
        "curves_sent0_beforeopen.csv": "cd8c339a9a071bdde49f61273ccaf70af71333f9a7a74536f828e35cd81176d9",
        "curves_sentm1_afterclose.csv": "b6f816f9136aeb38160245b06f58ad10c1c5e80ed217e0e3d6446176719fa519",
        "curves_sentm1_beforeopen.csv": "4adf0b151cc50ac41b50a39690598eae220e8d1ab388d54c0b802ad0085ea2b8",
        "equity.csv": "093b6357f5c6a9c8b5dac1cb391d168161ec7bace55ca8f5c08248d200dbd1a4",
        "regression.csv": "0c8a29dca715a2b20e4ca84bc6c9fd4295c62550819bc778a705244c473dded4",
        "study_sent0_afterclose.csv": "ac8adc8365a303550ea48278940401d8f554c505fe21d1ba741edcdd09e4d613",
        "study_sent0_beforeopen.csv": "1aa63983195552ecdd8dc866f96d4bc63c3f518151e83bd2d2df6c92d62cd61b",
        "study_sentm1_afterclose.csv": "65a435f8b600581df557e08f9b0b463822a40e5e137a1748dda1ed342298c7c8",
        "study_sentm1_beforeopen.csv": "38acaa144c11bb6e860d5dc4ab03c652482e03f1532b535f1bc43ba4a1e6af82",
        "thresholds.csv": "c202fdd32108326417db1d05b3e4c45fee54e81d71e5bf6455317caa7f5bd1e2",
        "trades.csv": "2452a77333a5ad301a9adc416926d478cdc81f3fd7d0cf4681a756e9ab8e452f",
        "volume_daily.csv": "274e41c2c39fe88d1f3085404a8cc12579eae2f96581ab18fa6eefd80b139e09",
        "volume_hourly.csv": "81e813c01a116f83848c12feacbfe9bdc5a68f7d1b005cd319d3709b3d5ac699",
        "volume_summary.csv": "963fa5903778ed521565557600652f3ba092174d5838cffd6f7d421da61ebdae",
    }
    REASONS = {
        "excluded_events": [
            ("SYA", "2015-03-07T12:00:00Z", "not anchorable: SYA 2015-03-07T12:00:00.250000+00:00: "
                                            "2015-03-07 is not a trading date"),
            ("SYB", "2016-12-30T22:00:00Z", "not anchorable: no trading date after 2016-12-30"),
            ("SYD", "2015-09-03T12:00:00Z", "no day-0 tweets"),
        ],
        "backtest": [("SYB", "2016-12-30T22:00:00Z",
                      "OutOfCalendarRange: no trading date after 2016-12-30")],
        **{f"{report}_{day}_{timing}.csv": [] for report in ("study", "curves")
           for day in ("sent0", "sentm1") for timing in ("afterclose", "beforeopen")},
    }

    def test_same_csvs_and_reasons(self, data_dir, tmp_path):
        data = excluded_copy(data_dir, tmp_path / "data")
        out = tmp_path / "out"
        assert main(["--out", str(out), "pipeline", *data_flags(data)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir() if p.suffix == ".csv"}
        assert digests == self.DIGESTS
        assert manifest_reasons(json.loads((out / "manifest.json").read_text())) == self.REASONS

    def test_pipeline_builds_no_event_record(self, data_dir, tmp_path, monkeypatch):
        data = excluded_copy(data_dir, tmp_path / "data")
        made, new = [], EarningsEvent.__new__

        def counting(cls, *args, **kwargs):
            made.append((args, kwargs))
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(EarningsEvent, "__new__", staticmethod(counting))
        assert main(["--out", str(tmp_path / "out"), "pipeline", *data_flags(data)]) == 0
        assert made == []
        EarningsEvent("SYA", None, None, 1.0, 1.0)
        assert len(made) == 1  # the wrapper counts


def extra_tickers_copy(data_dir, root):
    """The Quickstart data plus SYA's bars again as SYAA (bars only) and
    SYB's tweets again as SYBB (tweets only): each of the three inputs then
    has a ticker table of its own, none of them the dataset's."""
    root.mkdir()
    for name, source, copy in (("prices.csv", ",SYA,", ",SYAA,"),
                               ("tweets.csv", ",SYB,", ",SYBB,")):
        lines = (data_dir / name).read_text().splitlines(keepends=True)
        (root / name).write_text("".join(lines) + "".join(
            line.replace(source, copy) for line in lines if source in line))
    for name in ("index.csv", "events.csv"):
        (root / name).write_bytes((data_dir / name).read_bytes())
    return root


class TestTickersWithoutEventsChangeNothing:
    """``pipeline``, ``score`` and ``returns`` on data whose bars, tweets and
    events name different tickers write the same bytes and record the same
    reasons as before the dataset held one ticker table: the digests and
    the reasons other than the curves' were pinned from that code."""

    DIGESTS = {
        "curves_sent0_afterclose.csv": "3c83d02e8dad98a2d354703335f7a6c0a861833ba1abdcedc5318f2bb68c74ee",
        "curves_sent0_beforeopen.csv": "b14083c6cacc3192a4bc5139c5570d94fc06bf07546cc75f56d00b6ad26ca6e3",
        "curves_sentm1_afterclose.csv": "b6f816f9136aeb38160245b06f58ad10c1c5e80ed217e0e3d6446176719fa519",
        "curves_sentm1_beforeopen.csv": "4892d640bc9f5711c45eeb0329077ba770bc929dba1ee629d3c430c73c345719",
        "equity.csv": "093b6357f5c6a9c8b5dac1cb391d168161ec7bace55ca8f5c08248d200dbd1a4",
        "regression.csv": "f08003cc4d741ac7dc966b82159519a518f4f88de1ac58756f22a4c69b380124",
        "returns.csv": "aff4a68573176b32c49e771063814d14b1208d55dcf99a634633875948fb7233",
        "scores.csv": "e2ee19a4229cef7cb392479d8782cba802eba7c645827bc36054a3d89321a8f7",
        "study_sent0_afterclose.csv": "ac8adc8365a303550ea48278940401d8f554c505fe21d1ba741edcdd09e4d613",
        "study_sent0_beforeopen.csv": "e281d443145f59c3a9ce28b5394b095b793ebc4d713145119946647a26ebb67b",
        "study_sentm1_afterclose.csv": "65a435f8b600581df557e08f9b0b463822a40e5e137a1748dda1ed342298c7c8",
        "study_sentm1_beforeopen.csv": "ce738b43ac79f7eae0312fa7e681627f9c586ed13ed760b3df4480ca43ce7844",
        "thresholds.csv": "3c801e338db6b272caed65dac1307d3c3fd247169867c3f438fc9d8eeba1a608",
        "trades.csv": "2452a77333a5ad301a9adc416926d478cdc81f3fd7d0cf4681a756e9ab8e452f",
        "volume_daily.csv": "528e2635034ce06386904b9b1727edbf63eb320da526e671c07b195bddd5a75a",
        "volume_hourly.csv": "3fbc958496def4f646b462a8796d8a67aff2df1809f309e6686b6c7ee0da1d4c",
        "volume_summary.csv": "c892be846619d9d793b5057c0be335217d9bf0ebb48d02c52294e642effd95ae",
    }
    REASONS = {
        "excluded_events": [],
        "backtest": [],
        "study_sent0_afterclose.csv": [],
        "study_sent0_beforeopen.csv": [],
        "study_sentm1_afterclose.csv": [],
        "study_sentm1_beforeopen.csv": [],
        "curves_sent0_afterclose.csv": [],
        "curves_sent0_beforeopen.csv": [],
        "curves_sentm1_afterclose.csv": [],
        "curves_sentm1_beforeopen.csv": [],
    }

    def test_same_csvs_and_reasons(self, data_dir, tmp_path):
        data = extra_tickers_copy(data_dir, tmp_path / "data")
        digests = {}
        for command in ("pipeline", "score", "returns"):
            out = tmp_path / command
            assert main(["--out", str(out), command, *data_flags(data)]) == 0
            digests.update((p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                           for p in out.iterdir() if p.suffix == ".csv")
        manifest = json.loads((tmp_path / "pipeline" / "manifest.json").read_text())
        assert digests == self.DIGESTS
        assert manifest_reasons(manifest) == self.REASONS


def max_count_copy(data_dir, root):
    """The Quickstart data with every tweet bucket of five events' tickers on
    their announcement dates (UTC) at ``MAX_COUNT`` in all three labels."""
    root.mkdir()
    events = [line.split(",") for line in (data_dir / "events.csv").read_text().splitlines()[1::5]]
    days = {(ticker, at[:10]) for ticker, at, *_ in events}
    lines = (data_dir / "tweets.csv").read_text().splitlines(keepends=True)
    for i, line in enumerate(lines[1:], 1):
        stamp, ticker, _ = line.split(",", 2)
        if (ticker, stamp[:10]) in days:
            lines[i] = f"{stamp},{ticker},{MAX_COUNT},{MAX_COUNT},{MAX_COUNT}\n"
    (root / "tweets.csv").write_text("".join(lines))
    for name in ("prices.csv", "index.csv", "events.csv"):
        (root / name).write_bytes((data_dir / name).read_bytes())
    return root


class TestCountsAtMaxCount:
    """Tweet counts are held as int32, which holds ``MAX_COUNT``, and every
    sum of them is taken in int64: three counts at ``MAX_COUNT`` overflow
    int32. ``pipeline`` and ``score`` write the bytes that int64 columns
    gave; the digests were pinned from that code."""

    DIGESTS = {
        "curves_sent0_afterclose.csv": "e354151098545f07e0f77aa2c1e314e0899df86096dcf744b2bf6f137f2fe2cb",
        "curves_sent0_beforeopen.csv": "b14083c6cacc3192a4bc5139c5570d94fc06bf07546cc75f56d00b6ad26ca6e3",
        "curves_sentm1_afterclose.csv": "40751a7ce95618ed2f2c36407230d6992b6f5633dfa126d95bc4583cb56e86ab",
        "curves_sentm1_beforeopen.csv": "4892d640bc9f5711c45eeb0329077ba770bc929dba1ee629d3c430c73c345719",
        "equity.csv": "701fc8ea89b42babdba226a054f4c83de1ad10ac2b656d5f4f90cc7e26928780",
        "regression.csv": "b654c5856d15c57794142fbd02998662330c9f669efc1ef2c9a3798649a111d7",
        "scores.csv": "be6ff21b24d7c4bd80dfe1efde5db3a00213368cc287a552e04e54925dcf542f",
        "study_sent0_afterclose.csv": "fcd0da6475521108c35a5d9592562ac8e455175e3cd5f7becf520c539af33dd0",
        "study_sent0_beforeopen.csv": "e281d443145f59c3a9ce28b5394b095b793ebc4d713145119946647a26ebb67b",
        "study_sentm1_afterclose.csv": "a25f1351abde46f1ca212e1bf59688c482f1efb72e5ac7a48b202242ac9caa00",
        "study_sentm1_beforeopen.csv": "ce738b43ac79f7eae0312fa7e681627f9c586ed13ed760b3df4480ca43ce7844",
        "thresholds.csv": "0a420a365b737c0e0cb9398bc340456a440de2a5c099fe721875be63be40f550",
        "trades.csv": "edeaf3c09d7d7a3ad0551c288a3743400dfac8d9dd3f5528f4db2b978b909d86",
        "volume_daily.csv": "3bb3c2d6ab8798f93fcb7a0e9ca6a6d3f8c35969d0be425c2657c13f1a81eb2e",
        "volume_hourly.csv": "967f7d0da609347e27a5dca81e13ae7c5be3c27c6d151bb061945b7b4765fca0",
        "volume_summary.csv": "7e7c621e247a59a0cd647caf37e1acb3ed992ab4d83d6147306b2d5399cc1916",
    }

    def test_same_csvs(self, data_dir, tmp_path):
        data = max_count_copy(data_dir, tmp_path / "data")
        digests = {}
        for command in ("pipeline", "score"):
            out = tmp_path / command
            assert main(["--out", str(out), command, *data_flags(data)]) == 0
            digests.update((p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                           for p in out.iterdir() if p.suffix == ".csv")
        assert digests == self.DIGESTS

    def test_sums_are_int64(self, data_dir, tmp_path):
        data = max_count_copy(data_dir, tmp_path / "data")
        ds = load_dataset(*(data / f"{name}.csv" for name in ("prices", "index", "tweets", "events")))
        tw, universe = ds.tweets, build_universe(ds)
        assert tw.n_neg.dtype == tw.n_neut.dtype == tw.n_pos.dtype == np.int32
        maxed = tw.n_neg == MAX_COUNT
        assert np.count_nonzero(maxed) >= 5
        wide = [c.astype(np.int64) for c in (tw.n_neg, tw.n_neut, tw.n_pos)]
        assert tw.total.tolist() == (wide[0] + wide[1] + wide[2]).tolist()
        assert tw.total[maxed].tolist() == [3 * MAX_COUNT] * np.count_nonzero(maxed)
        # the hourly profile of every cell that holds a bucket at MAX_COUNT
        cal = universe.cal
        rows, days = tw.code[maxed], cal.day_indices(tw.seconds(maxed))
        want: dict = {}
        cells = tw.code.astype(np.int64) * len(cal) + cal.day_indices(tw.seconds())
        for cell, hour, total in zip(cells.tolist(), eastern_hours(tw.seconds()).tolist(),
                                     tw.total.tolist()):
            want[cell, hour] = want.get((cell, hour), 0) + total
        got = universe.counts.hourly(rows, days)
        assert got.dtype == np.int64 and got.max() > 2**31
        assert got.tolist() == [[want.get((r * len(cal) + d, h), 0) for h in range(24)]
                                for r, d in zip(rows.tolist(), days.tolist())]

    @pytest.mark.parametrize("count", [MAX_COUNT + 1, -(2**31) - 1, 2**32])
    def test_a_count_int32_cannot_hold_raises(self, count):
        column = np.array([1, count], dtype=np.int64)
        with pytest.raises(InvariantViolation):
            TweetBuckets(("A",), np.zeros(2, dtype=np.int64), np.array([0, 3600]),
                         np.ones(2, dtype=np.int64), column, np.ones(2, dtype=np.int64))


class TestDateLookupsPerEvent:
    """``pipeline`` turns calendar indexes into dates a bounded number of times
    per event: the fits, hold returns and volume profiles work by index."""

    def test_at_most_four_of_each_per_event(self, data_dir, tmp_path, monkeypatch):
        calls = {"date_at": 0, "day": 0}

        def counting(cls, name):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counting(TradingCalendar, "date_at")
        counting(EventAnchor, "day")
        assert main(["--out", str(tmp_path / "out"), "pipeline", *data_flags(data_dir)]) == 0
        n_events = SPEC["n_tickers"] * SPEC["events_per_ticker"]
        assert calls["date_at"] <= 4 * n_events, calls
        assert calls["day"] <= 4 * n_events, calls


class TestSubcommandsAreSlicesOfPipeline:
    """Each report command writes the same bytes as ``pipeline``'s file of the
    same name, under the same config, with or without ``until``."""

    CONFIGS = {"no config": {}, "config until": {"until": "2015-10-15"}}

    @pytest.fixture(scope="class")
    def pipeline_out(self, data_dir, tmp_path_factory):
        outs = {}
        for label, config in self.CONFIGS.items():
            root = tmp_path_factory.mktemp("pipeline")
            cfg = root / "run.json"
            cfg.write_text(json.dumps(config))
            assert main(["--config", str(cfg), "--out", str(root / "out"), "pipeline",
                         *data_flags(data_dir)]) == 0
            outs[label] = root / "out"
        return outs

    def test_until_changes_the_pipeline(self, pipeline_out):
        a, b = (pipeline_out[label] for label in self.CONFIGS)
        for name in ("thresholds.csv", "study_sent0_afterclose.csv", "trades.csv"):
            assert (a / name).read_bytes() != (b / name).read_bytes(), name

    @pytest.mark.parametrize("label", sorted(CONFIGS))
    @pytest.mark.parametrize(
        "command", ["thresholds", "study", "curves", "backtest", "regress", "volume"]
    )
    def test_same_bytes_as_pipeline(self, command, label, data_dir, pipeline_out, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.CONFIGS[label]))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), command,
                     *data_flags(data_dir)]) == 0
        written = [p.name for p in out.iterdir() if p.suffix == ".csv"]
        assert written
        for name in written:
            assert (out / name).read_bytes() == (pipeline_out[label] / name).read_bytes(), name


# Option strings of each subcommand and of the top level, as they were before
# the subcommands were built from one table: the table adds and drops none.
DATA_OPTIONS = {"--prices", "--index", "--tweets", "--events"}
CLI_SURFACE = {
    "": {"--config", "--out", "--seed"},
    "ingest": DATA_OPTIONS | {"--emit"},
    "calendar": {"--index"},
    "score": DATA_OPTIONS,
    "thresholds": DATA_OPTIONS | {"--until"},
    "returns": DATA_OPTIONS,
    "surprise": DATA_OPTIONS,
    "study": DATA_OPTIONS | {"--until", "--polarity-day", "--timing",
                             "--estimation-window", "--significance"},
    "curves": DATA_OPTIONS | {"--until", "--polarity-day", "--timing"},
    "backtest": DATA_OPTIONS | {"--spread", "--from", "--to", "--thresholds-until"},
    "regress": DATA_OPTIONS | {"--until"},
    "volume": DATA_OPTIONS | {"--until"},
    "synth": {"--spec"},
    "pipeline": DATA_OPTIONS | {"--until", "--spread", "--from", "--to", "--thresholds-until",
                                "--estimation-window", "--significance"},
}

# Manifest keys each command writes, at the top level and under "config"
# (with the keys of nested config sections): a report command writes the
# keys of pipeline's manifest that belong to the reports it runs.
MANIFEST_BASE = {"command", "config", "created_utc", "dataset", "inputs", "outputs",
                 "tool", "version"}
MANIFEST_KEYS = {
    "score": (set(), {}),
    "thresholds": (set(), {"until": None}),
    "returns": (set(), {}),
    "surprise": (set(), {}),
    "study": ({"studies"}, {
        "until": None, "study": {"estimation_window", "event_window", "significance"}}),
    "curves": ({"curves"}, {"until": None}),
    "backtest": ({"backtest"}, {"until": None,
                                "backtest": {"from", "spread", "thresholds_until", "to"}}),
    "regress": (set(), {"until": None}),
    "volume": (set(), {"until": None, "volume": {"rel_min", "rel_max"}}),
    "pipeline": ({"backtest", "excluded_events", "studies"}, {
        "until": None,
        "backtest": {"from", "spread", "thresholds_until", "to"},
        "study": {"estimation_window", "event_window", "significance"},
        "volume": {"rel_min", "rel_max"},
    }),
}


class TestSurface:
    def test_options_per_subcommand(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parsers = {"": parser, **sub.choices}
        got = {
            name: {o for act in p._actions for o in act.option_strings} - {"-h", "--help"}
            for name, p in parsers.items()
        }
        assert got == CLI_SURFACE

    @pytest.mark.parametrize("command", sorted(MANIFEST_KEYS))
    def test_manifest_keeps_its_keys(self, command, data_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), command, *data_flags(data_dir)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        top, config = MANIFEST_KEYS[command]
        assert MANIFEST_BASE | top <= set(manifest)
        assert set(config) <= set(manifest["config"])
        for key, nested in config.items():
            if nested:
                assert nested <= set(manifest["config"][key]), key

    def test_study_records_the_study_settings(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "study", *data_flags(data_dir),
                     "--estimation-window", "100", "--significance", "0.05"]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]["study"]
        assert config["event_window"] == [-1, 10]
        assert config["estimation_window"] == 100
        assert config["significance"] == 0.05

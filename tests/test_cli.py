import argparse
import csv
import json

import pytest

from eastudy.cli import build_parser, main
from eastudy.ingest import write_dataset
from eastudy.synth import SynthSpec, generate

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
        assert m1["config"]["spread"] == 0.02
        # flag wins over config
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "flag_out"),
                   "backtest", "--spread", "0.07"])
        assert rc == 0
        m2 = json.loads((tmp_path / "flag_out" / "manifest.json").read_text())
        assert m2["config"]["spread"] == 0.07

    def test_missing_data_path_errors(self, tmp_path):
        rc = main(["--out", str(tmp_path), "pipeline"])
        assert rc == 2


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
        # the excluded bucket changes no report
        clean = tmp_path / "clean"
        assert main(["--out", str(clean), "pipeline", *data_flags(data_dir)]) == 0
        for name in PIPELINE_FILES:
            if name != "manifest.json":
                assert (clean / name).read_bytes() == (tmp_path / "pipeline" / name).read_bytes()


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


class TestInvalidSettings:
    CASES = {
        "malformed config": lambda bad, window, data: ["--config", str(bad), "score", *data],
        "malformed spec": lambda bad, window, data: ["synth", "--spec", str(bad)],
        "event window": lambda bad, window, data: ["--config", str(window), "study", *data],
        "estimation window": lambda bad, window, data: [
            "study", *data, "--estimation-window", "1"],
        "significance": lambda bad, window, data: ["pipeline", *data, "--significance", "2"],
        "until": lambda bad, window, data: ["thresholds", *data, "--until", "2015-13-01"],
        "from": lambda bad, window, data: ["backtest", *data, "--from", "nope"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_5_with_an_error_line(self, case, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"until": ')
        window = tmp_path / "window.json"
        window.write_text(json.dumps({"study": {"event_window": [3, 1]}}))
        argv = self.CASES[case](bad, window, data_flags(data_dir))
        out = tmp_path / "out"
        assert main(["--out", str(out), *argv]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


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

# Manifest keys each command wrote before the registry, at the top level and
# under "config" (with the keys of nested config sections).
MANIFEST_BASE = {"command", "config", "created_utc", "dataset", "inputs", "outputs",
                 "tool", "version"}
MANIFEST_KEYS = {
    "score": (set(), {}),
    "thresholds": (set(), {"until": None}),
    "returns": (set(), {}),
    "surprise": (set(), {}),
    "study": ({"skipped"}, {"polarity_day": None, "timing": None, "until": None}),
    "curves": (set(), {"polarity_day": None, "timing": None, "until": None}),
    "backtest": ({"backtest"}, {"from": None, "spread": None, "thresholds_until": None,
                                "to": None}),
    "regress": (set(), {"until": None}),
    "volume": (set(), {"rel_days": None, "until": None}),
    "pipeline": ({"backtest", "excluded_events", "studies"}, {
        "until": None,
        "backtest": {"from", "spread", "thresholds_until", "to"},
        "study": {"estimation_window", "event_window", "significance"},
        "volume": {"rel_days"},
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
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["event_window"] == [-1, 10]
        assert config["estimation_window"] == 100
        assert config["significance"] == 0.05

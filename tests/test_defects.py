"""Every command against every kind of config defect: one property.

Each cell runs one subcommand (or ``pipeline``) in-process on the Quickstart
data with one defective config file: a file that is not a JSON object, a
section that is not an object, a value of the wrong type at a ``SETTINGS``
key, a number too large for the run (+-1e400, which JSON reads as an
infinity, and +-10**20) or too small for it (1e-300 and 5e-324, a
significance level at which 1 - level/2 rounds to 1) at a numeric key, or a
fraction at an integer key.
Whatever the cell, the run exits with a documented code, prints no
traceback, and a failed run prints one ``error:`` line, nothing on stdout,
and leaves ``--out`` and its parent as it found them. A fraction at an
integer key fails every command that reads the settings: it is never
rounded away. So does a JSON string at a numeric key: it is never read as
the number it spells.
"""

import csv
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from eastudy.cli import COMMANDS, SETTINGS, main
from eastudy.ingest import write_dataset
from eastudy.synth import SynthSpec, generate

from test_cli import SPEC, data_flags

SECTIONS = sorted({keys[0] for keys, _, _ in SETTINGS.values() if len(keys) > 1} | {"synth"})
NOT_OBJECTS = ("[]", "1", '"config"', "null")
WRONG_TYPES = ("true", '"x"', '"15"', "[1, 2]", '{"a": 1}')
TOO_LARGE = ("1e400", "-1e400", str(10**20), str(-10**20))
TOO_SMALL = ("1e-300", "5e-324")
FRACTIONS = ("0.5", "-1.5")
# numeric settings, by their defaults; a pair takes the number at either end
NUMERIC = sorted(name for name, (_, default, _) in SETTINGS.items()
                 if isinstance(default, (int, float, tuple)))
INTEGER = sorted(name for name in NUMERIC if not isinstance(SETTINGS[name][1], float))
# the commands that resolve SETTINGS: every one but those that read no setting
READS_SETTINGS = sorted(set(COMMANDS) - {"calendar", "synth"})


def at(keys: tuple[str, ...], value: str) -> str:
    """The config text holding the JSON text ``value`` at ``keys``."""
    for key in reversed(keys):
        value = f"{{{json.dumps(key)}: {value}}}"
    return value


def numeric_defect(name: str, number: str, first: bool) -> str:
    keys, default, _ = SETTINGS[name]
    if isinstance(default, tuple):
        number = f"[{number}, {default[1]}]" if first else f"[{default[0]}, {number}]"
    return at(keys, number)


CONFIGS = st.one_of(
    st.sampled_from(NOT_OBJECTS),
    st.builds(lambda s, v: at((s,), v), st.sampled_from(SECTIONS), st.sampled_from(NOT_OBJECTS)),
    st.builds(lambda name, v: at(SETTINGS[name][0], v), st.sampled_from(sorted(SETTINGS)),
              st.sampled_from(WRONG_TYPES)),
    st.builds(numeric_defect, st.sampled_from(NUMERIC), st.sampled_from(TOO_LARGE),
              st.booleans()),
    st.builds(numeric_defect, st.sampled_from(NUMERIC), st.sampled_from(TOO_SMALL),
              st.booleans()),
    st.builds(numeric_defect, st.sampled_from(INTEGER), st.sampled_from(FRACTIONS),
              st.booleans()),
)
FRACTIONAL = sorted({numeric_defect(name, number, first) for name in INTEGER
                     for number in FRACTIONS for first in (True, False)})


def as_strings(default) -> str:
    """A numeric default written as a JSON string; a pair's ends each one."""
    return json.dumps([str(n) for n in default] if isinstance(default, tuple) else str(default))


# config -> the key it sets: each numeric default as strings, and an event
# window of a string or an object that unpacks into two ends
STRINGS = {at(keys, value): ".".join(keys) for keys, value in [
    *((SETTINGS[name][0], as_strings(SETTINGS[name][1])) for name in NUMERIC),
    (("study", "event_window"), '"15"'),
    (("study", "event_window"), '{"-1": 0, "10": 0}'),
]}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("defects")
    write_dataset(generate(SynthSpec(**SPEC)), root / "data")
    (root / "spec.json").write_text(json.dumps({"n_tickers": 1, "n_days": 20,
                                                "events_per_ticker": 0}))
    return root


def command_flags(command: str, root: Path) -> list[str]:
    """The flags that give ``command`` its inputs."""
    if command == "synth":
        return ["--spec", str(root / "spec.json")]
    flags = data_flags(root / "data")
    return flags[2:4] if command == "calendar" else flags


def listing(path: Path) -> dict[str, bytes]:
    return {p.relative_to(path).as_posix(): p.read_bytes() if p.is_file() else b"/"
            for p in sorted(path.rglob("*"))}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)), config=CONFIGS, flags=st.just(()))
@example(command="study", config='{"study": {"estimation_window": 1e400}}', flags=())
@example(command="study", config="{}", flags=("--estimation-window", "99999999999999999999"))
@example(command="pipeline", config='{"study": {"event_window": [-1, 100000000]}}', flags=())
@example(command="volume", config=f'{{"volume": {{"rel_min": {-10**20}, "rel_max": {10**20}}}}}',
         flags=())
@example(command="volume", config='{"volume": {"rel_min": -3000000000, "rel_max": 0}}',
         flags=())
@example(command="study", config="{}", flags=("--significance", "1e-17"))
@example(command="pipeline", config='{"study": {"significance": 5e-324}}', flags=())
def test_every_command_survives_every_config_defect(inputs, command, config, flags):
    survives(inputs, command, config, flags)


@pytest.mark.parametrize("config", FRACTIONAL)
@pytest.mark.parametrize("command", READS_SETTINGS)
def test_a_fraction_at_an_integer_key_is_refused(inputs, command, config):
    assert survives(inputs, command, config, ()) == 5


@pytest.mark.parametrize("config", sorted(STRINGS))
@pytest.mark.parametrize("command", READS_SETTINGS)
def test_a_string_at_a_numeric_key_is_refused(inputs, command, config):
    assert survives(inputs, command, config, ()) == 5


@pytest.mark.parametrize("command,config,flags,code", [
    ("study", "{}", ("--significance", "1e-17"), 5),
    ("pipeline", '{"study": {"significance": 5e-324}}', (), 5),
    ("study", "{}", ("--significance", "1.2e-16"), 0),
])
def test_a_significance_level_at_which_one_minus_half_rounds_to_one_is_refused(
        inputs, command, config, flags, code):
    assert survives(inputs, command, config, flags) == code


@pytest.mark.parametrize("config", sorted(STRINGS))
def test_a_string_setting_names_its_key(inputs, tmp_path, config):
    code, err = run(inputs, tmp_path, config, "study")
    assert code == 5
    assert err.startswith(f"error: invalid {STRINGS[config]} ")
    assert err.endswith(": expected a number\n")


def survives(inputs, command: str, config: str, flags) -> int:
    """Run one cell and check what every cell must hold; its exit code."""
    with tempfile.TemporaryDirectory(dir=inputs) as tmp:
        parent = Path(tmp) / "parent"
        out = parent / "out"
        out.mkdir(parents=True)
        (out / "kept.txt").write_text("kept")
        (Path(tmp) / "config.json").write_text(config)
        before = listing(parent)
        said, err = io.StringIO(), io.StringIO()
        with redirect_stdout(said), redirect_stderr(err):
            code = main(["--config", str(Path(tmp) / "config.json"), "--out", str(out), command,
                         *command_flags(command, inputs), *flags])
        err = err.getvalue()
        assert code in (0, 2, 3, 4, 5), (code, err)
        assert "Traceback" not in err
        if code:
            assert said.getvalue() == "", said.getvalue()
            assert [line for line in err.splitlines() if line.startswith("error:")] == [
                err.splitlines()[0]], err
            assert listing(parent) == before
    return code


def run(inputs, tmp: Path, config: str, *argv: str) -> tuple[int, str]:
    """Exit code and standard error of one in-process run on the Quickstart
    data, with ``config`` as the config file and ``tmp/out`` as ``--out``."""
    (tmp / "config.json").write_text(config)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["--config", str(tmp / "config.json"), "--out", str(tmp / "out"), *argv,
                     *data_flags(inputs / "data")])
    return code, err.getvalue()


@pytest.mark.parametrize("command,config,flags,setting", [
    ("study", "{}", ("--estimation-window", "301"), "study.estimation_window 301"),
    ("pipeline", '{"study": {"event_window": [-1, 100000000]}}', (),
     "study.event_window end 100000000"),
])
def test_a_study_window_longer_than_the_calendar_is_refused(inputs, tmp_path, command, config,
                                                           flags, setting):
    code, err = run(inputs, tmp_path, config, command, *flags)
    assert (code, err) == (5, f"error: invalid {setting}: longer than the calendar's 300 "
                              "trading days\n")


@pytest.mark.parametrize("window", ["1e20", str(10**20), "100000000"])
def test_ingest_counts_every_event_excluded_by_a_window_past_the_calendar(inputs, tmp_path,
                                                                         capsys, window):
    for config in (f'{{"study": {{"estimation_window": {window}}}}}',
                   f'{{"study": {{"event_window": [-1, {window}]}}}}'):
        (tmp_path / "config.json").write_text(config)
        assert main(["--config", str(tmp_path / "config.json"), "ingest",
                     *data_flags(inputs / "data")]) == 0
        assert capsys.readouterr().out.endswith("24 events (24 excluded by coverage)\n")


@pytest.mark.parametrize("given,clipped", [((-10**20, 10**20), (-299, 299)),
                                           ((-3 * 10**9, 0), (-299, 0))])
def test_the_volume_window_is_walked_within_the_calendar(inputs, tmp_path, given, clipped):
    files = {}
    for window in (given, clipped):
        config = json.dumps({"volume": {"rel_min": window[0], "rel_max": window[1]}})
        assert run(inputs, tmp_path, config, "volume") == (0, "")
        files[window] = listing(tmp_path / "out")
        manifest = json.loads(files[window].pop("manifest.json"))
        assert manifest["config"]["volume"] == {"rel_min": window[0], "rel_max": window[1]}
    assert files[given] == files[clipped]


# Refusals past the config's shape: a value out of its range, a date range
# the calendar leaves empty, a spec the generator cannot lay out, and a
# header line the csv module refuses to read.
@pytest.mark.parametrize("command,config,flags,message", [
    ("study", '{"polarity_day": 2}', (), "invalid polarity_day 2: expected 0 or -1"),
    ("backtest", "{}", ("--from", "2030-01-01"),
     "no trading dates between 2030-01-01 and 2016-02-26"),
])
def test_a_setting_the_data_cannot_meet_is_refused(inputs, tmp_path, command, config, flags,
                                                   message):
    assert run(inputs, tmp_path, config, command, *flags) == (5, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec,message", [
    ({"event_tweet_multiplier": -1}, "event_tweet_multiplier must be non-negative"),
    ({"event_spacing": 0}, "invalid event layout"),
])
def test_a_synth_spec_the_generator_cannot_lay_out_is_refused(tmp_path, capsys, spec, message):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["--out", str(out), "synth", "--spec", str(tmp_path / "spec.json")]) == 5
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_header_longer_than_the_csv_field_limit_is_a_header_mismatch(tmp_path, capsys):
    """The csv module refuses the header's one quoted cell, so the mismatch
    names the line as read, quotes and all."""
    index = tmp_path / "index.csv"
    header = f'"{"d" * (csv.field_size_limit() + 1)}"'
    index.write_text(f"{header}\n2016-01-04,100.0\n")
    assert main(["--out", str(tmp_path / "out"), "calendar", "--index", str(index)]) == 3
    assert capsys.readouterr().err == (f"error: {index}:1: header {header!r} does not match "
                                       "expected 'date,close'\n")

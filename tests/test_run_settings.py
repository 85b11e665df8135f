"""The run settings have one home: the seed and count flags are declared once,
and the grid alone judges a value, whichever way it comes in."""

import json
import math
import re
import runpy
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ofdmsim.cli as cli
from ofdmsim.bitsource import KEY_MAX, make_stream
from ofdmsim.channel import ChannelSpec, exponential_pdp
from ofdmsim.errors import ConfigError
from ofdmsim.framing import OfdmConfig, as_fraction
from ofdmsim.sweep import SweepGrid, run_cell, run_grid
from ofdmsim.validate import run_validation

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_experiment_grid.py"
#: The count settings and their flags.
COUNT_FLAGS = {"max_bits_per_cell": "--max-bits", "target_errors": "--target-errors",
               "bit_budget": "--bit-budget"}


def exit_and_stderr(capsys, main, *argv):
    """(exit code, stderr) of ``main``, an exit from argparse included."""
    try:
        code = main(*argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def script_main(monkeypatch, *argv):
    """The experiment script's ``main``, to be run on ``argv``."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *argv])
    return runpy.run_path(str(SCRIPT))["main"]


def rejected(capsys, monkeypatch, tmp_path, path, flag, settings):
    """Run one entry point with a setting given as ``flag`` (or, for a config
    file, as ``settings``); returns its stderr after checking that it exited 2
    with one ``config error`` line and wrote nothing."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)  # where single would write, if it wrote
    out = ["--out", str(work / "x.csv")]
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(settings))
    if path == "script flag":
        code, err = exit_and_stderr(
            capsys, script_main(monkeypatch, "--out-dir", str(work / "grid"), *flag))
    else:
        argv = {
            "sweep flag": ["sweep", "--fft-sizes", "64", "--cp-fractions", "1/4", "--ebno", "0",
                           *flag, *out],
            "single flag": ["single", "--fft", "64", "--cp", "1/4", "--ebno", "10", *flag],
            "config file": ["sweep", "--config", str(config), *out],
            "validate flag": ["validate", *flag],
        }[path]
        code, err = exit_and_stderr(capsys, cli.main, argv)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "config error" in err
    assert not any(work.iterdir())
    return err


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("key", list(COUNT_FLAGS))
@pytest.mark.parametrize("path", ["sweep flag", "single flag", "config file", "script flag"])
def test_a_count_below_one_is_one_config_error_line(capsys, monkeypatch, tmp_path, path, key,
                                                   value):
    err = rejected(capsys, monkeypatch, tmp_path, path, [COUNT_FLAGS[key], str(value)],
                   {key: value})
    assert key in err


@pytest.mark.parametrize("value", [-1, 2**64])
@pytest.mark.parametrize("path", ["sweep flag", "single flag", "config file", "script flag"])
def test_a_master_seed_outside_the_key_range_is_one_config_error_line(
        capsys, monkeypatch, tmp_path, path, value):
    # before, the seed was reduced mod 2^64: 2^64 + 5 ran seed 5's draws
    err = rejected(capsys, monkeypatch, tmp_path, path, ["--seed", str(value)],
                   {"master_seed": value})
    assert f"master_seed must be in 0..{KEY_MAX}, got {value}" in err


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("path,flags", [("sweep flag", []), ("sweep flag", ["--report-snr"]),
                                        ("script flag", [])])
def test_a_worker_count_below_one_is_one_config_error_line(capsys, monkeypatch, tmp_path, path,
                                                          flags, value):
    # before, sweep echoed the effective config (and each cell's SNR) first
    err = rejected(capsys, monkeypatch, tmp_path, path, ["--workers", str(value), *flags], {})
    assert err.endswith(f": config error: workers must be >= 1, got {value}\n")


@pytest.mark.parametrize("value", [-1, 2**64])
@pytest.mark.parametrize("path,flag,name", [("single flag", "--cell-id", "cell_id"),
                                            ("validate flag", "--seed", "seed")])
def test_a_stream_key_flag_outside_its_range_exits_2_before_a_run(
        capsys, monkeypatch, tmp_path, path, flag, name, value):
    err = rejected(capsys, monkeypatch, tmp_path, path, [flag, str(value)], {})
    assert err == f"ofdmsim: config error: {name} must be in 0..{KEY_MAX}, got {value}\n"


@pytest.mark.parametrize("origin_seed,cell_id,name,value", [
    (-1, 0, "origin_seed", -1), (2**64, 0, "origin_seed", 2**64),
    (0, -1, "cell_id", -1), (0, 2**64, "cell_id", 2**64),
])
def test_make_stream_rejects_a_key_outside_its_range(origin_seed, cell_id, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be in 0..{KEY_MAX}, got {value}$"):
        make_stream(origin_seed, cell_id)


def test_the_key_range_ends_are_keys():
    assert KEY_MAX == 2**64 - 1
    for cell_id in (0, KEY_MAX):  # at one cell id, the two end seeds differ
        ends = [make_stream(seed, cell_id).rng.bit_generator.random_raw(4).tolist()
                for seed in (0, KEY_MAX)]
        assert ends[0] != ends[1]
    assert SweepGrid(master_seed=KEY_MAX).master_seed == KEY_MAX
    with pytest.raises(ValueError, match="^master_seed must be in "):
        SweepGrid(master_seed=-1)


#: Delay-line settings that make no profile: (setting, flag, config value,
#: the value as the error shows it).
BAD_PROFILES = {
    "length 0": ("tdl_len", ["--tdl-len", "0"], 0, "got 0"),
    "overflowing decay": ("tdl_decay_db", ["--tdl-decay-db", "-1000"], -1000, "-1000.0"),
    "NaN tap": ("tdl_taps", ["--tdl-taps=nan,1"], [float("nan"), 1], "[nan, 1.0]"),
    "negative tap": ("tdl_taps", ["--tdl-taps=-1,2"], [-1, 2], "[-1.0, 2.0]"),
}


@pytest.mark.parametrize("case", list(BAD_PROFILES))
@pytest.mark.parametrize("path", ["sweep flag", "config file"])
def test_a_bad_profile_setting_is_named_with_its_value(capsys, monkeypatch, tmp_path, path,
                                                       case):
    key, flag, value, shown = BAD_PROFILES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow or invalid-value warning
        err = rejected(capsys, monkeypatch, tmp_path, path, ["--channel", "tdl", *flag],
                       {"channel": "tdl", key: value})
    assert err.startswith(f"ofdmsim: config error: {key} ") and shown in err


def test_a_profile_setting_given_with_taps_is_still_judged(capsys, monkeypatch, tmp_path):
    # the taps win over the profile, but a bad length beside them was ignored before
    err = rejected(capsys, monkeypatch, tmp_path, "config file", [],
                   {"channel": "tdl", "tdl_taps": [1], "tdl_len": 0})
    assert err == "ofdmsim: config error: tdl_len must be >= 1, got 0\n"


#: A value of the wrong JSON type for every setting key.
WRONG_TYPES = {
    "fft_sizes": 64, "cp_fractions": "1/4", "ebno_points_db": 6, "modulation_order": "8",
    "master_seed": 5.5, "max_bits_per_cell": [3000], "target_errors": "10",
    "bit_budget": True, "use_equalizer": "false", "channel": 5, "tdl_taps": "0.5",
    "tdl_len": "9", "tdl_decay_db": "1.0", "account_cp_overhead": "no",
}


def test_every_setting_key_has_a_wrong_type():
    assert sorted(WRONG_TYPES) == sorted(cli._GRID_KEYS)


@pytest.mark.parametrize("key", list(WRONG_TYPES))
def test_a_value_of_the_wrong_type_names_its_key(capsys, tmp_path, key):
    config, out = tmp_path / "grid.json", tmp_path / "x.csv"
    config.write_text(json.dumps({"channel": "tdl", key: WRONG_TYPES[key]}))
    code, err = exit_and_stderr(capsys, cli.main, ["sweep", "--config", str(config),
                                                   "--out", str(out)])
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(f"ofdmsim: config error: {key}: ")
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("master_seed", 1.5), ("bit_budget", 999.5), ("fft_sizes", (64.7,)), ("master_seed", True),
    ("max_bits_per_cell", True), ("modulation_order", 8.0), ("target_errors", np.float64(5)),
    ("fft_sizes", (64, np.True_)),
])
def test_grid_rejects_a_non_integer_at_construction(field, value):
    with pytest.raises(TypeError, match=f"^{field}: expected an integer, got "):
        SweepGrid(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("fft_size", 64.0), ("modulation_order", 8.0), ("modulation_order", True),
    ("bit_budget", True), ("bit_budget", "999"),
])
def test_config_rejects_a_non_integer_at_construction(field, value):
    settings = {"fft_size": 64, "cp_fraction": "1/4", "modulation_order": 8, "bit_budget": 999,
                field: value}
    with pytest.raises(TypeError, match=f"^{field}: expected an integer, got "):
        OfdmConfig(**settings)


#: Values of the wrong type that a Python caller's grid, config, channel or
#: profile used to take silently (or reject without naming the setting):
#: (construction, the setting its TypeError names, what it expected).
WRONG_PYTHON_TYPES = {
    "equalizer switch as text": (
        lambda: SweepGrid(use_equalizer="no", channel=ChannelSpec(kind="flat")),
        "use_equalizer", "true or false"),
    "bool CP fraction": (lambda: SweepGrid(cp_fractions=(True,)), "cp_fractions", "a fraction"),
    "bool CP fraction of a config": (
        lambda: OfdmConfig(64, True, modulation_order=8, bit_budget=999),
        "cp_fraction", "a fraction"),
    "Eb/No as text": (lambda: SweepGrid(ebno_points_db=("10",)), "ebno_points_db", "a number"),
    "bool Eb/No": (lambda: SweepGrid(ebno_points_db=(True,)), "ebno_points_db", "a number"),
    "scalar FFT axis": (lambda: SweepGrid(fft_sizes=64), "fft_sizes", "a list"),
    "CP axis as text": (lambda: SweepGrid(cp_fractions="1/4"), "cp_fractions", "a list"),
    "overhead switch as text": (
        lambda: ChannelSpec(kind="awgn", account_cp_overhead="yes"),
        "account_cp_overhead", "true or false"),
    "channel kind not a str": (lambda: ChannelSpec(kind=5), "channel", "a string"),
    "grid channel as text": (lambda: SweepGrid(channel="flat"), "channel", "a ChannelSpec"),
    "taps as text": (lambda: ChannelSpec(kind="tdl", taps="1"), "tdl_taps", "a list"),
    "profile length as text": (lambda: exponential_pdp("9", 1.0), "tdl_len", "an integer"),
    "profile decay as text": (lambda: exponential_pdp(9, "1.0"), "tdl_decay_db", "a number"),
}


@pytest.mark.parametrize("case", list(WRONG_PYTHON_TYPES))
def test_python_callers_get_the_type_checks_of_the_cli(case):
    build, name, expected = WRONG_PYTHON_TYPES[case]
    with pytest.raises(TypeError, match=f"^{name}: expected {expected}, got "):
        build()


def test_numpy_bools_and_floats_are_kept_as_python_ones():
    grid = SweepGrid(fft_sizes=(64,), cp_fractions=(np.float64(0.25),),
                     ebno_points_db=np.array([4.0, 8.0], dtype=np.float32),
                     use_equalizer=np.False_,
                     channel=ChannelSpec(kind="flat", account_cp_overhead=np.True_))
    assert grid == SweepGrid(fft_sizes=(64,), cp_fractions=("1/4",), ebno_points_db=(4.0, 8.0),
                             use_equalizer=False,
                             channel=ChannelSpec(kind="flat", account_cp_overhead=True))
    assert {type(e) for e in grid.ebno_points_db} == {float}
    assert type(grid.use_equalizer) is bool and type(grid.channel.account_cp_overhead) is bool
    taps = ChannelSpec(kind="tdl", taps=np.array([0.5, 0.5], dtype=np.float32)).taps
    assert taps == (0.5, 0.5) and {type(p) for p in taps} == {float}


def test_numpy_integers_are_integers():
    counts = {"modulation_order": 4, "master_seed": 5, "max_bits_per_cell": 3000,
              "target_errors": 5, "bit_budget": 900}
    grid = SweepGrid(fft_sizes=(64, 128), ebno_points_db=(4.0,), **counts)
    from_numpy = SweepGrid(fft_sizes=np.array([64, 128]), ebno_points_db=(4.0,),
                           **{key: np.int64(value) for key, value in counts.items()})
    assert from_numpy == grid
    kept = (*from_numpy.fft_sizes, *(getattr(from_numpy, key) for key in counts))
    assert {type(value) for value in kept} == {int}
    assert run_grid(from_numpy) == run_grid(grid)


def test_script_help_is_the_sweep_help_of_the_run_flags(capsys, monkeypatch):
    commands = next(action for action in cli.build_parser()._actions
                    if action.dest == "command")
    sweep = {action.dest: action for action in commands.choices["sweep"]._actions}
    with pytest.raises(SystemExit) as exited:
        script_main(monkeypatch, "--help")()
    assert exited.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for key in ("master_seed", *COUNT_FLAGS):
        flag = sweep[key]
        assert f"{flag.option_strings[0]} {key.upper()} {' '.join(flag.help.split())}" in text


def test_no_parser_action_has_a_type(monkeypatch):
    # argparse only splits the words: cli.read_flags reads every value flag's text
    commands = next(action for action in cli.build_parser()._actions
                    if action.dest == "command")
    parsers = list(commands.choices.values())

    def stop(parser, *args, **kwargs):
        parsers.append(parser)
        raise SystemExit(0)

    monkeypatch.setattr(cli.Parser, "parse_args", stop)
    with pytest.raises(SystemExit):
        script_main(monkeypatch)()
    assert len(parsers) == 5  # sweep, single, validate, plot and the script
    assert [action.option_strings for parser in parsers for action in parser._actions
            if action.type is not None] == []


#: The integer flags of each entry point, and the setting key each one names.
_RUN_FLAGS = {"--seed": "master_seed", **{flag: key for key, flag in COUNT_FLAGS.items()}}
INTEGER_FLAGS = {
    "sweep flag": {**_RUN_FLAGS, "--tdl-len": "tdl_len", "--mod-order": "modulation_order",
                   "--workers": "workers"},
    "single flag": {**_RUN_FLAGS, "--tdl-len": "tdl_len", "--mod-order": "modulation_order",
                    "--fft": "fft_sizes", "--cell-id": "cell_id"},
    "validate flag": {"--seed": "seed", "--bits": "bits_floor"},
    "script flag": {**_RUN_FLAGS, "--workers": "workers"},
}


@pytest.mark.parametrize("text", ["1.5", "two", "1e6"])
@pytest.mark.parametrize("path,flag,key", [(path, flag, key)
                                           for path, flags in INTEGER_FLAGS.items()
                                           for flag, key in flags.items()])
def test_an_integer_flag_given_other_text_is_one_config_error_line(
        capsys, monkeypatch, tmp_path, path, flag, key, text):
    # before, argparse read these flags and printed its usage block
    err = rejected(capsys, monkeypatch, tmp_path, path, [flag, text], {})
    assert err.endswith(f": config error: {key}: cannot parse {text!r}: "
                        f"invalid literal for int() with base 10: {text!r}\n")


#: Values that an entry point behind a cell, ``single`` or ``validate`` took
#: unjudged (and ran, or failed on deep inside): (call, exception, message).
#: Each message names the setting.
_FLAT_CELL = (OfdmConfig(64, Fraction(1, 4), modulation_order=8, bit_budget=999),
              ChannelSpec(kind="flat"))
_AWGN_CELL = (_FLAT_CELL[0], ChannelSpec(kind="awgn"))
UNJUDGED_ENTRY_VALUES = {
    "equalizer switch as text": (
        lambda: run_cell(*_FLAT_CELL, 10.0, 0, 0, max_bits=3000, use_equalizer="no"),
        TypeError, "use_equalizer: expected true or false, got 'no'"),
    "NaN Eb/No": (lambda: run_cell(*_AWGN_CELL, math.nan, 0, 0, max_bits=3000),
                  ConfigError, "ebno_db must be within +-1000 dB or +inf, got nan"),
    "Eb/No beyond the limit": (lambda: run_cell(*_AWGN_CELL, -4000, 0, 0, max_bits=3000),
                               ConfigError, "ebno_db must be within +-1000 dB or +inf, got -4000.0"),
    "fractional error target": (
        lambda: run_cell(*_AWGN_CELL, 10.0, 0, 0, target_errors=2.5, max_bits=3000),
        TypeError, "target_errors: expected an integer, got 2.5"),
    "fractional bit cap": (lambda: run_cell(*_AWGN_CELL, 10.0, 0, 0, max_bits=3000.5),
                           TypeError, "max_bits: expected an integer, got 3000.5"),
    "bit cap of 0": (lambda: run_cell(*_AWGN_CELL, 10.0, 0, 0, max_bits=0),
                     ConfigError, "max_bits must be >= 1, got 0"),
    "fractional stream seed": (lambda: make_stream(1.5, 0),
                               TypeError, "origin_seed: expected an integer, got 1.5"),
    "bool stream seed": (lambda: make_stream(True, 0),
                         TypeError, "origin_seed: expected an integer, got True"),
    "float cell id": (lambda: make_stream(0, 2.0), TypeError, "cell_id: expected an integer, got 2.0"),
    "bits floor of 0": (lambda: run_validation(seed=0, bits_floor=0),
                        ConfigError, "bits_floor must be >= 1, got 0"),
    "validation seed below 0": (lambda: run_validation(seed=-1, bits_floor=1000),
                                ConfigError, f"seed must be in 0..{KEY_MAX}, got -1"),
    "fractional validation seed": (lambda: run_validation(seed=0.5, bits_floor=1000),
                                   TypeError, "seed: expected an integer, got 0.5"),
    "infinite CP fraction": (lambda: SweepGrid(cp_fractions=(math.inf,)),
                             ValueError, "cp_fractions: Invalid literal for Fraction: 'inf'"),
    "CP fraction 1/0": (lambda: SweepGrid(cp_fractions=("1/0",)),
                        ValueError, "cp_fractions: Fraction(1, 0)"),
    "empty FFT axis": (lambda: SweepGrid(fft_sizes=()), ValueError, "fft_sizes must not be empty"),
    "empty Eb/No axis": (lambda: SweepGrid(ebno_points_db=np.array([])),
                         ValueError, "ebno_points_db must not be empty"),
}


@pytest.mark.parametrize("case", list(UNJUDGED_ENTRY_VALUES))
def test_every_entry_point_judges_what_it_takes(case):
    call, error, message = UNJUDGED_ENTRY_VALUES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_run_cell_keeps_the_judged_values():
    config, spec = _FLAT_CELL
    plain = run_cell(config, spec, 10.0, 3, 1, target_errors=20, max_bits=3000,
                     use_equalizer=False)
    from_numpy = run_cell(config, spec, np.int64(10), np.uint64(3), np.int64(1),
                          target_errors=np.int32(20), max_bits=np.int64(3000),
                          use_equalizer=np.False_)
    assert from_numpy == plain and plain.channel == "flat/noeq"
    assert type(from_numpy.ebno_db) is float


@pytest.mark.parametrize("value,text", [(0.1, "1/10"), (np.float64(0.1), "1/10"), (0.25, "1/4"),
                                        ("0.25", "1/4"), (1e-20, "1/100000000000000000000")])
def test_a_float_cp_fraction_is_its_decimal_text(value, text):
    assert as_fraction("cp_fractions", value) == Fraction(text)


def test_a_float_cp_fraction_is_reported_as_its_decimal_text(capsys, monkeypatch, tmp_path):
    # before, a Python float 0.1 was its binary value, 3602879701896397/36028797018963968
    message = "cp_fraction 1/10 x fft_size 64 is not an integer number of samples"
    with pytest.raises(ValueError, match=f"^{message}$"):
        SweepGrid(fft_sizes=(64,), cp_fractions=(0.1,))
    err = rejected(capsys, monkeypatch, tmp_path, "config file", [],
                   {"fft_sizes": [64], "cp_fractions": [0.1]})
    assert err == f"ofdmsim: config error: {message}\n"


@pytest.mark.parametrize("axis,flag", [("fft_sizes", "--fft-sizes"),
                                       ("cp_fractions", "--cp-fractions"),
                                       ("ebno_points_db", "--ebno")])
def test_an_empty_axis_is_named(capsys, monkeypatch, tmp_path, axis, flag):
    # before, every empty axis gave "grid axes must be nonempty"
    err = rejected(capsys, monkeypatch, tmp_path, "sweep flag", [flag, ","], {})
    assert err == f"ofdmsim: config error: {axis} must not be empty\n"


@pytest.mark.parametrize("value", [0, -1])
def test_a_bits_floor_below_one_is_one_config_error_line(capsys, monkeypatch, tmp_path, value):
    err = rejected(capsys, monkeypatch, tmp_path, "validate flag", ["--bits", str(value)], {})
    assert err == f"ofdmsim: config error: bits_floor must be >= 1, got {value}\n"


@pytest.mark.parametrize("key", ["master_seed", *COUNT_FLAGS, "modulation_order", "tdl_len"])
def test_a_count_written_minus_zero_is_a_float(capsys, monkeypatch, tmp_path, key):
    # an integral JSON float is an int, except -0.0, which keeps its sign
    err = rejected(capsys, monkeypatch, tmp_path, "config file", [],
                   {"channel": "tdl", key: -0.0})
    assert err == f"ofdmsim: config error: {key}: expected an integer, got -0.0\n"


def test_an_integral_json_float_is_an_int_whatever_its_key(capsys, monkeypatch, tmp_path):
    err = rejected(capsys, monkeypatch, tmp_path, "config file", [], {"use_equalizer": 1.0})
    assert err == "ofdmsim: config error: use_equalizer: expected true or false, got 1\n"

"""End-to-end tests of the command-line interface (subprocess level)."""

import csv
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from ofdmsim.metrics import CSV_COLUMNS

SMALL_CONFIG = {
    "fft_sizes": [64, 128],
    "cp_fractions": ["1/4", "1/16"],
    "ebno_points_db": [0, 6],
    "channel": "awgn",
    "master_seed": 99,
    "max_bits_per_cell": 24_000,
    "target_errors": 30,
    "bit_budget": 3000,
}


def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "ofdmsim", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


class TestSweepCommand:
    def test_writes_csv_and_plots(self, config_path, tmp_path):
        out = tmp_path / "results.csv"
        plots = tmp_path / "plots"
        result = run_cli(
            "sweep", "--config", str(config_path), "--out", str(out),
            "--plots", str(plots), "--json-out", str(tmp_path / "results.json"),
        )
        assert result.returncode == 0, result.stderr
        assert "effective config" in result.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 2 * 2
        svgs = sorted(p.name for p in plots.iterdir())
        assert svgs == ["ber_fft128.svg", "ber_fft64.svg"]
        for p in plots.iterdir():
            ET.parse(p)

    def test_byte_identical_across_worker_counts(self, config_path, tmp_path):
        outputs = []
        for workers, name in (("1", "a.csv"), ("3", "b.csv")):
            out = tmp_path / name
            result = run_cli(
                "sweep", "--config", str(config_path), "--out", str(out), "--workers", workers,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_flag_overrides_beat_config_file(self, config_path, tmp_path):
        out = tmp_path / "results.csv"
        result = run_cli(
            "sweep", "--config", str(config_path), "--out", str(out),
            "--fft-sizes", "64", "--ebno", "6",
        )
        assert result.returncode == 0, result.stderr
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 1 * 2 * 1
        assert all(line.startswith("64,") for line in lines[1:])

    def test_missing_config_exits_2(self, tmp_path):
        result = run_cli("sweep", "--config", str(tmp_path / "absent.json"))
        assert result.returncode == 2
        assert "absent.json" in result.stderr

    def test_invalid_cp_exits_2(self, config_path, tmp_path):
        result = run_cli(
            "sweep", "--config", str(config_path),
            "--out", str(tmp_path / "x.csv"), "--cp-fractions", "1/3",
        )
        assert result.returncode == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"fft_size": [64]}))
        result = run_cli("sweep", "--config", str(path))
        assert result.returncode == 2
        assert "fft_size" in result.stderr

    def test_unwritable_output_exits_3(self, config_path, tmp_path):
        result = run_cli(
            "sweep", "--config", str(config_path),
            "--out", str(tmp_path / "missing_dir" / "x.csv"),
        )
        assert result.returncode == 3

    def test_unknown_flag_is_a_hard_error(self, config_path):
        result = run_cli("sweep", "--config", str(config_path), "--frobnicate")
        assert result.returncode == 2

    def test_help_lists_the_flags(self):
        result = run_cli("sweep", "--help")
        assert result.returncode == 0
        for flag in ("--config", "--seed", "--cp-fractions", "--no-equalizer",
                     "--report-snr", "--workers", "--plots"):
            assert flag in result.stdout

    def test_report_snr_goes_to_stderr(self, config_path, tmp_path):
        result = run_cli(
            "sweep", "--config", str(config_path),
            "--out", str(tmp_path / "r.csv"), "--report-snr",
        )
        assert result.returncode == 0
        assert "sample_snr_db=" in result.stderr

    def test_report_snr_lines_are_pinned(self, config_path, tmp_path):
        # taken before the prefix length came from the grid's own configs
        result = run_cli(
            "sweep", "--config", str(config_path), "--out", str(tmp_path / "r.csv"),
            "--report-snr", "--account-cp-overhead",
        )
        assert result.returncode == 0, result.stderr
        lines = [line for line in result.stderr.splitlines() if "sample_snr_db=" in line]
        assert lines == [
            "fft=64 cp=1/4 ebno_db=0 sample_snr_db=3.8021",
            "fft=64 cp=1/4 ebno_db=6 sample_snr_db=9.8021",
            "fft=64 cp=1/16 ebno_db=0 sample_snr_db=4.5079",
            "fft=64 cp=1/16 ebno_db=6 sample_snr_db=10.5079",
            "fft=128 cp=1/4 ebno_db=0 sample_snr_db=3.8021",
            "fft=128 cp=1/4 ebno_db=6 sample_snr_db=9.8021",
            "fft=128 cp=1/16 ebno_db=0 sample_snr_db=4.5079",
            "fft=128 cp=1/16 ebno_db=6 sample_snr_db=10.5079",
        ]

    def test_report_snr_is_inf_at_the_noiseless_point(self, capsys, tmp_path):
        import ofdmsim.cli as cli

        argv = ["sweep", "--fft-sizes", "64", "--cp-fractions", "1/4", "--ebno", "0,inf",
                "--max-bits", "3000", "--report-snr", "--out", str(tmp_path / "r.csv")]
        assert cli.main(argv) == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if "sample_snr_db=" in line]
        assert lines == ["fft=64 cp=1/4 ebno_db=0 sample_snr_db=4.7712",
                         "fft=64 cp=1/4 ebno_db=inf sample_snr_db=inf"]

    def test_workers_variable_is_ignored(self, monkeypatch, tmp_path):
        # the worker count comes from --workers alone, never from the environment
        import ofdmsim.cli as cli

        argv = ["sweep", "--fft-sizes", "64", "--cp-fractions", "1/4", "--ebno", "0,6",
                "--max-bits", "3000"]
        monkeypatch.delenv("OFDMSIM_WORKERS", raising=False)
        assert cli.main([*argv, "--out", str(tmp_path / "a.csv")]) == 0
        monkeypatch.setenv("OFDMSIM_WORKERS", "0")
        assert cli.main([*argv, "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestSingleCommand:
    def test_emits_one_json_record(self):
        result = run_cli(
            "single", "--fft", "512", "--cp", "1/4", "--channel", "awgn",
            "--ebno", "10", "--seed", "7", "--max-bits", "30000",
            "--target-errors", "20", "--bit-budget", "3000",
        )
        assert result.returncode == 0, result.stderr
        record = json.loads(result.stdout)
        assert set(record) == set(CSV_COLUMNS) | {"equalizer"}
        assert record["fft_size"] == 512
        assert record["cp_fraction"] == "1/4"
        assert record["seed"] == 7
        assert record["equalizer"] == "zf"

    def test_report_snr_adds_the_key(self):
        result = run_cli(
            "single", "--fft", "64", "--cp", "0", "--channel", "awgn",
            "--ebno", "10", "--max-bits", "6000", "--target-errors", "5",
            "--bit-budget", "3000", "--report-snr",
        )
        assert result.returncode == 0, result.stderr
        record = json.loads(result.stdout)
        # Es=1, b=3: per-sample SNR is Eb/No + 10*log10(3)
        assert record["sample_snr_db"] == pytest.approx(10 + 10 * np.log10(3), abs=1e-9)

    def test_report_snr_value_is_pinned(self):
        # taken before the noise variance read b, N and L from the config
        result = run_cli(
            "single", "--fft", "64", "--cp", "1/4", "--ebno", "10", "--max-bits", "6000",
            "--target-errors", "5", "--bit-budget", "3000", "--report-snr",
            "--account-cp-overhead",
        )
        assert result.returncode == 0, result.stderr
        assert '"sample_snr_db": 13.80211241711606' in result.stdout.splitlines()[-2]

    def test_report_snr_is_infinity_at_the_noiseless_point(self, capsys):
        import ofdmsim.cli as cli

        argv = ["single", "--fft", "64", "--cp", "1/4", "--ebno", "inf", "--max-bits", "3000",
                "--report-snr"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert '"sample_snr_db": Infinity' in out
        assert json.loads(out)["sample_snr_db"] == float("inf")

    def test_channel_defaults_to_awgn(self):
        result = run_cli("single", "--fft", "64", "--cp", "1/4", "--ebno", "10",
                         "--max-bits", "3000", "--bit-budget", "3000")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["channel"] == "awgn"

    def test_non_integer_cp_exits_2(self):
        result = run_cli("single", "--fft", "64", "--cp", "1/3",
                         "--channel", "awgn", "--ebno", "10")
        assert result.returncode == 2

    def test_no_equalizer_is_echoed(self):
        result = run_cli(
            "single", "--fft", "64", "--cp", "1/4", "--channel", "flat",
            "--ebno", "10", "--no-equalizer", "--max-bits", "12000",
            "--target-errors", "10", "--bit-budget", "3000",
        )
        assert result.returncode == 0, result.stderr
        record = json.loads(result.stdout)
        assert record["equalizer"] == "none"
        assert record["channel"].endswith("/noeq")

    def test_tdl_taps_are_normalized(self):
        result = run_cli(
            "single", "--fft", "64", "--cp", "1/4", "--channel", "tdl",
            "--tdl-taps", "2,1,1", "--ebno", "300", "--max-bits", "6000",
            "--target-errors", "1", "--bit-budget", "3000",
        )
        assert result.returncode == 0, result.stderr
        record = json.loads(result.stdout)
        assert record["channel"] == "tdl:0.5;0.25;0.25"
        assert record["bit_errors"] == 0


class TestErrorBoundary:
    """User input errors exit 2; a ValueError from inside the simulator does not."""

    def test_malformed_list_flag_exits_2(self, config_path, tmp_path):
        result = run_cli("sweep", "--config", str(config_path),
                         "--out", str(tmp_path / "x.csv"), "--fft-sizes", "64,abc")
        assert result.returncode == 2
        assert "config error: fft_sizes: cannot parse '64,abc'" in result.stderr

    def test_malformed_config_value_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"fft_sizes": 64}))
        result = run_cli("sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 2
        assert "config error" in result.stderr

    @pytest.mark.parametrize("key,value", [
        ("modulation_order", 8.9), ("target_errors", 1.7), ("fft_sizes", [64.7]),
        ("max_bits_per_cell", "24000"), ("bit_budget", True), ("tdl_len", 8.5),
        ("use_equalizer", "false"), ("use_equalizer", 0), ("account_cp_overhead", "no"),
        ("ebno_points_db", ["6"]), ("tdl_decay_db", "1.0"), ("tdl_taps", ["0.5", 1]),
    ])
    def test_config_values_are_not_truncated_or_coerced(self, capsys, tmp_path, key, value):
        import ofdmsim.cli as cli

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL_CONFIG, "channel": "tdl", key: value}))
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_floats_and_json_booleans_are_accepted(self, capsys, tmp_path):
        import ofdmsim.cli as cli

        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            **SMALL_CONFIG, "fft_sizes": [64.0], "cp_fractions": ["1/4"], "ebno_points_db": [30],
            "channel": "tdl", "tdl_len": 3.0, "max_bits_per_cell": 6e3, "target_errors": 1e1,
            "use_equalizer": False, "account_cp_overhead": True,
        }))
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 0
        echo = next(line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("effective config: "))
        effective = json.loads(echo.removeprefix("effective config: "))
        assert effective["fft_sizes"] == [64]
        assert effective["channel"].count(";") == 2  # three taps
        assert (effective["max_bits_per_cell"], effective["target_errors"]) == (6000, 10)
        assert effective["use_equalizer"] is False
        assert effective["account_cp_overhead"] is True

    def test_an_ebno_of_minus_zero_is_kept(self, capsys, tmp_path):
        # a JSON float with no fraction is read as an int, but -0.0 keeps its sign
        import ofdmsim.cli as cli

        path = tmp_path / "grid.json"
        path.write_text('{"fft_sizes": [64], "cp_fractions": [0.25], "ebno_points_db": [-0.0, 1e1],'
                        ' "max_bits_per_cell": 3e3}')
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "a.csv")]) == 0
        assert cli.main(["sweep", "--fft-sizes", "64", "--cp-fractions", "1/4", "--ebno=-0,10",
                         "--max-bits", "3000", "--out", str(tmp_path / "b.csv")]) == 0
        echoes = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("effective config: ")]
        assert echoes[0] == echoes[1] and '"ebno_points_db": [-0.0, 10.0]' in echoes[0]
        written = (tmp_path / "a.csv").read_text()
        assert written == (tmp_path / "b.csv").read_text()
        assert written.splitlines()[1].startswith("64,1/4,awgn,-0,")

    # the count is the flag's alone: OFDMSIM_WORKERS does not rescue a bad one
    @pytest.mark.parametrize("flag,variable", [("0", None), ("-2", None), ("0", "2")])
    def test_worker_count_below_one_exits_2(self, monkeypatch, capsys, tmp_path, flag,
                                             variable):
        import ofdmsim.cli as cli

        monkeypatch.delenv("OFDMSIM_WORKERS", raising=False)
        if variable is not None:
            monkeypatch.setenv("OFDMSIM_WORKERS", variable)
        out = tmp_path / "x.csv"
        argv = ["sweep", "--fft-sizes", "64", "--cp-fractions", "1/4", "--ebno", "30",
                "--out", str(out), "--workers", flag]
        assert cli.main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_tdl_taps_exit_2_in_single(self):
        result = run_cli("single", "--fft", "64", "--cp", "1/4", "--channel", "tdl",
                         "--tdl-taps", "1,x", "--ebno", "10")
        assert result.returncode == 2
        assert "config error: tdl_taps: cannot parse '1,x'" in result.stderr

    @pytest.mark.parametrize("text,reason", [
        ("1e400", "1e400 is beyond the range of a float, about +-1.8e308"),
        ("abc", "could not convert string to float: 'abc'"),
    ])
    def test_unreadable_tdl_decay_is_one_config_error(self, capsys, tmp_path, text, reason):
        # read as the other number flags are: one line naming the setting
        import ofdmsim.cli as cli

        out = tmp_path / "x.csv"
        for command in (["single", "--fft", "64", "--cp", "1/4"],
                        ["sweep", "--fft-sizes", "64", "--cp-fractions", "1/4", "--out", str(out)]):
            assert cli.main([*command, "--ebno", "10", "--channel", "tdl",
                             "--tdl-decay-db", text]) == 2
            assert capsys.readouterr().err.splitlines() == [
                f"ofdmsim: config error: tdl_decay_db: cannot parse '{text}': {reason}"]
        assert not out.exists()

    def test_delay_line_flags_with_another_channel_exit_2_in_single(self, capsys):
        import ofdmsim.cli as cli

        argv = ["single", "--fft", "64", "--cp", "1/4", "--ebno", "10", "--channel", "flat",
                "--tdl-taps", "1,2", "--tdl-len", "3"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "config error: channel flat takes no delay-line settings, got tdl_taps, tdl_len" \
            in captured.err
        assert "bits_sent" not in captured.out

    @pytest.mark.parametrize("channel", ["awgn", "flat"])
    def test_delay_line_key_with_another_channel_exits_2_in_sweep(self, capsys, tmp_path,
                                                                 channel):
        import ofdmsim.cli as cli

        path, out = tmp_path / "grid.json", tmp_path / "x.csv"
        path.write_text(json.dumps({**SMALL_CONFIG, "channel": channel, "tdl_decay_db": 2.0}))
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        expected = f"channel {channel} takes no delay-line settings, got tdl_decay_db"
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_psk_order_above_256_exits_2_in_single(self, capsys, tmp_path, monkeypatch):
        import ofdmsim.cli as cli

        monkeypatch.chdir(tmp_path)
        argv = ["single", "--fft", "64", "--cp", "1/4", "--ebno", "10", "--mod-order", "512"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "config error: modulation order must be a power of two in 2..256" in captured.err
        assert "bits_sent" not in captured.out
        assert not any(tmp_path.iterdir())

    def test_negative_stop_rule_exits_2_in_single(self):
        result = run_cli("single", "--fft", "64", "--cp", "1/4", "--ebno", "10",
                         "--target-errors", "-1")
        assert result.returncode == 2
        assert "target_errors" in result.stderr

    @pytest.mark.parametrize("flag", ["--max-bits", "--target-errors", "--mod-order",
                                      "--bit-budget"])
    @pytest.mark.parametrize("command", ["single", "sweep"])
    def test_zero_flag_exits_2(self, tmp_path, command, flag):
        # a 0 is a given value, never "use the default"
        cell = (["--fft", "64", "--cp", "1/4"] if command == "single" else
                ["--fft-sizes", "64", "--cp-fractions", "1/4", "--out", str(tmp_path / "x.csv")])
        result = run_cli(command, *cell, "--ebno", "30", flag, "0")
        assert result.returncode == 2, result.stdout
        assert "bits_sent" not in result.stdout
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["single", "--fft", "1", "--cp", "0", "--ebno", "10"],
        ["sweep", "--fft-sizes", "32", "--cp-fractions", "1/4", "--ebno", "10"],
        ["sweep", "--fft-sizes", "64,1024", "--cp-fractions", "1/4", "--ebno", "10"],
    ])
    def test_fft_size_outside_the_grid_sizes_exits_2(self, capsys, monkeypatch, tmp_path, argv):
        # the chain takes any power of two, a grid only the sizes it sweeps
        import ofdmsim.cli as cli

        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        assert "fft_size must be one of" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # no results.csv

    def test_malformed_records_file_exits_2(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(["x"] * len(CSV_COLUMNS)) + "\n")
        result = run_cli("plot", "--records", str(path), "--out-dir", str(tmp_path / "charts"))
        assert result.returncode == 2
        assert "malformed" in result.stderr

    def test_missing_records_file_is_one_io_error_line(self, capsys, tmp_path):
        import ofdmsim.cli as cli

        path = tmp_path / "absent.csv"
        assert cli.main(["plot", "--records", str(path), "--out-dir", str(tmp_path / "c")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"ofdmsim: io error: failed to read records from {path}: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("name,text", [
        ("short.csv", ",".join(CSV_COLUMNS) + "\n64,1/4\n"),  # a row shorter than the header
        ("object.json", '{"a": 1}'),
        ("numbers.json", "[1]"),
    ], ids=["short-csv-row", "json-object", "json-list-of-numbers"])
    def test_records_file_of_the_wrong_shape_exits_2(self, capsys, tmp_path, name, text):
        import ofdmsim.cli as cli

        path = tmp_path / name
        path.write_text(text)
        assert cli.main(["plot", "--records", str(path), "--out-dir", str(tmp_path / "c")]) == 2
        assert "malformed" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("flag,values", [
        ("--fft-sizes", "64,128,64"), ("--cp-fractions", "1/4,2/8"), ("--ebno", "0,6,0"),
    ])
    def test_repeated_axis_value_exits_2(self, capsys, tmp_path, flag, values):
        # a repeat would run the same point twice under two cell ids
        import ofdmsim.cli as cli

        out = tmp_path / "x.csv"
        assert cli.main(["sweep", "--fft-sizes", "64", "--cp-fractions", "1/4", "--ebno", "0",
                         "--max-bits", "3000", "--out", str(out), flag, values]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,target", [
        (["single", "--fft", "64", "--cp", "1/4", "--ebno", "10"], "run_cell"),
        (["sweep", "--fft-sizes", "64", "--cp-fractions", "1/4", "--ebno", "10"], "run_grid"),
    ])
    def test_internal_value_error_is_not_a_config_error(self, monkeypatch, capsys, tmp_path,
                                                        command, target):
        import ofdmsim.cli as cli

        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, target, broken)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="broadcast"):
            cli.main(command)
        assert "config error" not in capsys.readouterr().err


class TestNonFiniteInputs:
    """NaN and -inf are configuration errors; +inf is the noiseless point."""

    SWEEP_CELL = ["--fft-sizes", "64", "--cp-fractions", "1/4"]
    SINGLE_CELL = ["--fft", "64", "--cp", "1/4"]

    @staticmethod
    def _exits_2(capsys, argv, out=None):
        import ofdmsim.cli as cli

        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert "bits_sent" not in captured.out
        assert out is None or not out.exists()

    @pytest.mark.parametrize("ebno", ["nan", "-inf", "-Infinity", "4000", "-4000", "-3100",
                                      "1e400"])
    def test_ebno_flag(self, capsys, tmp_path, ebno):
        self._exits_2(capsys, ["single", *self.SINGLE_CELL, f"--ebno={ebno}"])
        out = tmp_path / "x.csv"
        self._exits_2(capsys, ["sweep", *self.SWEEP_CELL, f"--ebno=6,{ebno}", "--out", str(out)],
                      out)

    @pytest.mark.parametrize("flags", [
        ["--tdl-decay-db", "nan"], ["--tdl-decay-db", "inf"],
        ["--tdl-taps", "nan,1"], ["--tdl-taps", "inf,1"],
    ])
    def test_tap_flags(self, capsys, tmp_path, flags):
        self._exits_2(capsys, ["single", *self.SINGLE_CELL, "--ebno", "10",
                               "--channel", "tdl", *flags])
        out = tmp_path / "x.csv"
        self._exits_2(capsys, ["sweep", *self.SWEEP_CELL, "--ebno", "10", "--channel", "tdl",
                               *flags, "--out", str(out)], out)

    @pytest.mark.parametrize("key,value", [
        ("ebno_points_db", [6, float("nan")]), ("ebno_points_db", [float("-inf")]),
        ("tdl_decay_db", float("nan")), ("tdl_taps", [float("nan"), 1]),
        ("tdl_taps", [0.5, float("inf")]),
        ("ebno_points_db", [4000]), ("ebno_points_db", [-4000]), ("ebno_points_db", [-3100]),
    ])
    def test_config_file(self, capsys, tmp_path, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL_CONFIG, "channel": "tdl", key: value}))
        out = tmp_path / "x.csv"
        self._exits_2(capsys, ["sweep", "--config", str(path), "--out", str(out)], out)

    @pytest.mark.parametrize("key,value", [
        ("ebno_points_db", [6, 10**400]), ("tdl_decay_db", -(10**400)), ("tdl_taps", [10**400, 1]),
    ], ids=["ebno_points_db", "tdl_decay_db", "tdl_taps"])
    def test_config_number_beyond_float_range(self, capsys, tmp_path, key, value):
        # an integer too large for a float is one config error naming its key
        import ofdmsim.cli as cli

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL_CONFIG, "channel": "tdl", key: value}))
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"ofdmsim: config error: {key} must be within the range of a float, "
                       "about +-1.8e308"]
        assert not out.exists()

    @pytest.mark.parametrize("text", ["1e400", "-1e400"])
    def test_config_float_beyond_float_range(self, capsys, tmp_path, text):
        # float() reads such text as +-inf; only Infinity is the noiseless point
        import ofdmsim.cli as cli

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(SMALL_CONFIG).replace('"ebno_points_db": [0, 6]',
                                                         f'"ebno_points_db": [0, {text}]'))
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"ofdmsim: config error: {text} is beyond the range of a float, about +-1.8e308"]
        assert not out.exists()

    @pytest.mark.parametrize("ebno", ["300", "1000", "-1000"])
    def test_large_ebno_inside_the_limit_runs(self, capsys, tmp_path, ebno):
        import ofdmsim.cli as cli

        assert cli.main(["single", *self.SINGLE_CELL, f"--ebno={ebno}", "--max-bits", "999"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert abs(record["ber"] - (0.0 if float(ebno) > 0 else 0.5)) < 0.2  # no noise, or all
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", *self.SWEEP_CELL, f"--ebno={ebno}", "--max-bits", "999",
                         "--out", str(out)]) == 0
        with out.open() as fh:
            assert len(list(csv.DictReader(fh))) == 1

    @pytest.mark.parametrize("ebno", ["inf", "+inf", "Infinity"])
    def test_plus_inf_is_noiseless(self, capsys, tmp_path, ebno):
        import ofdmsim.cli as cli

        argv = ["single", *self.SINGLE_CELL, "--ebno", ebno, "--channel", "tdl",
                "--tdl-len", "5", "--max-bits", "3000"]
        assert cli.main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["bit_errors"], record["bits_sent"]) == (0, 3000)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({**SMALL_CONFIG, "ebno_points_db": [float("inf")]}))
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {(row["ebno_db"], row["bit_errors"]) for row in rows} == {("inf", "0")}


class TestNegativeValues:
    """A flag's value that begins with - needs no =: a word that begins with
    a - and a digit, a . or inf is a value, whatever argparse's own test."""

    COMMANDS = {"single": ["single", "--fft", "64", "--cp", "1/4", "--max-bits", "3000"],
                "sweep": ["sweep", "--fft-sizes", "64", "--cp-fractions", "1/4",
                          "--max-bits", "3000"]}

    def _main(self, capsys, tmp_path, command, flags):
        """(exit code, stdout, stderr lines, output file) of ``command`` with ``flags``."""
        import ofdmsim.cli as cli

        out = tmp_path / "x.csv"
        argv = [*self.COMMANDS[command], *flags]
        code = cli.main([*argv, "--out", str(out)] if command == "sweep" else argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err.splitlines(), out

    @pytest.mark.parametrize("command,flags", [
        ("sweep", ["--ebno", "-10,0"]), ("sweep", ["--ebno", "-1e1"]),
        ("single", ["--ebno", "-1e1"]), ("single", ["--ebno", "-.5e0"]),
        ("single", ["--ebno", "10", "--channel", "tdl", "--tdl-decay-db", "-2e0"]),
        ("sweep", ["--ebno", "10", "--channel", "tdl", "--tdl-decay-db", "-2e0"]),
    ])
    def test_a_separate_value_reads_as_the_equals_form(self, capsys, tmp_path, command, flags):
        code, stdout, err, out = self._main(capsys, tmp_path, command, flags)
        records = out.read_bytes() if command == "sweep" else None
        joined = [*flags[:-2], f"{flags[-2]}={flags[-1]}"]
        assert (code, stdout, err) == self._main(capsys, tmp_path, command, joined)[:3]
        assert code == 0
        assert records is None or records == out.read_bytes()

    def test_minus_ten_comma_zero_is_two_points(self, capsys, tmp_path):
        code, _, err, _ = self._main(capsys, tmp_path, "sweep", ["--ebno", "-10,0"])
        assert code == 0
        echo = json.loads(err[0].removeprefix("effective config: "))
        assert echo["ebno_points_db"] == [-10.0, 0.0]

    @pytest.mark.parametrize("command", ["single", "sweep"])
    @pytest.mark.parametrize("flags,message", [
        (["--ebno", "-inf"], "ebno_points_db must be within +-1000 dB or +inf, got -inf"),
        (["--ebno", "-INF"], "ebno_points_db must be within +-1000 dB or +inf, got -inf"),
        (["--ebno", "10", "--channel", "tdl", "--tdl-taps", "-1,2"],
         "tdl_taps must be nonnegative with a positive finite sum, got [-1.0, 2.0]"),
    ])
    def test_a_rejected_negative_value_is_one_config_error(self, capsys, tmp_path, command,
                                                           flags, message):
        code, stdout, err, out = self._main(capsys, tmp_path, command, flags)
        assert (code, stdout, err) == (2, "", [f"ofdmsim: config error: {message}"])
        assert not out.exists()


class TestOutputsCheckedFirst:
    """A sweep whose outputs cannot be written fails before any cell runs."""

    ARGV = ["sweep", "--fft-sizes", "64", "--cp-fractions", "1/4", "--ebno", "0,10",
            "--max-bits", "3000"]

    @pytest.fixture
    def no_cell_runs(self, monkeypatch):
        import ofdmsim.cli as cli

        def run_grid(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "run_grid", run_grid)

    @staticmethod
    def _io_error(capsys, argv, path):
        import ofdmsim.cli as cli

        assert cli.main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("effective config: ") and len(err) == 2
        assert err[1].startswith("ofdmsim: io error: ") and str(path) in err[1]

    @pytest.mark.parametrize("flag", ["--out", "--json-out", "--plots"])
    def test_a_missing_directory_runs_no_cell(self, capsys, tmp_path, no_cell_runs, flag):
        blocker = tmp_path / "a_file"
        blocker.write_text("not a directory")
        path = blocker / "x.csv" if flag != "--plots" else blocker / "charts"
        out = tmp_path / "out.csv"
        argv = [*self.ARGV, "--out", str(out), flag, str(path)]
        self._io_error(capsys, argv, path)
        assert not out.exists() or flag == "--out"

    def test_an_output_that_is_a_directory_runs_no_cell(self, capsys, tmp_path, no_cell_runs):
        self._io_error(capsys, [*self.ARGV, "--out", str(tmp_path)], tmp_path)

    def test_the_check_truncates_no_existing_file(self, capsys, tmp_path, no_cell_runs):
        out = tmp_path / "kept.csv"
        out.write_text("an earlier sweep\n")
        missing = tmp_path / "missing" / "x.json"
        self._io_error(capsys, [*self.ARGV, "--out", str(out), "--json-out", str(missing)],
                       missing)
        assert out.read_text() == "an earlier sweep\n"

    def test_the_chart_directory_is_made_before_the_run(self, monkeypatch, tmp_path):
        import ofdmsim.cli as cli

        run_grid, plots, seen = cli.run_grid, tmp_path / "charts" / "awgn", []

        def check(*args, **kwargs):
            seen.append(plots.is_dir())
            return run_grid(*args, **kwargs)

        monkeypatch.setattr(cli, "run_grid", check)
        out = tmp_path / "x.csv"
        assert cli.main([*self.ARGV, "--out", str(out), "--plots", str(plots)]) == 0
        assert seen == [True] and out.exists()


class TestSettingNames:
    """A setting has one name: each setting flag's dest is its config-file key."""

    BASE = {"fft_sizes": [64], "cp_fractions": ["1/4"], "ebno_points_db": [6],
            "channel": "tdl", "max_bits_per_cell": 3000}
    # (flags, the same setting as a config-file entry), one per setting key
    FLAGS = [
        (["--fft-sizes", "128"], {"fft_sizes": [128]}),
        (["--cp-fractions", "1/16,1/2"], {"cp_fractions": ["1/16", "1/2"]}),
        (["--ebno", "0,inf"], {"ebno_points_db": [0, float("inf")]}),
        (["--seed", "5"], {"master_seed": 5}),
        (["--channel", "flat"], {"channel": "flat"}),
        (["--tdl-taps", "2,1"], {"tdl_taps": [2, 1]}),
        (["--tdl-len", "3"], {"tdl_len": 3}),
        (["--tdl-decay-db", "2.5"], {"tdl_decay_db": 2.5}),
        (["--account-cp-overhead"], {"account_cp_overhead": True}),
        (["--mod-order", "4"], {"modulation_order": 4}),
        (["--max-bits", "6000"], {"max_bits_per_cell": 6000}),
        (["--target-errors", "5"], {"target_errors": 5}),
        (["--bit-budget", "1500"], {"bit_budget": 1500}),
        (["--no-equalizer"], {"use_equalizer": False}),
    ]

    @staticmethod
    def _echo(capsys) -> str:
        return next(line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("effective config: {"))

    def _sweep(self, capsys, tmp_path, name, settings, flags=()):
        """(effective-config echo, CSV bytes) of a sweep of ``settings`` plus ``flags``."""
        import ofdmsim.cli as cli

        config, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        config.write_text(json.dumps(settings))
        assert cli.main(["sweep", "--config", str(config), "--out", str(out), *flags]) == 0
        return self._echo(capsys), out.read_bytes()

    def test_every_setting_key_has_a_flag(self):
        import ofdmsim.cli as cli

        assert sorted(key for _, entry in self.FLAGS for key in entry) == sorted(cli._GRID_KEYS)

    @pytest.mark.parametrize("command", ["sweep", "single"])
    def test_channel_choices_are_the_channel_kinds(self, command):
        import argparse

        import ofdmsim.cli as cli
        from ofdmsim.channel import KINDS

        commands = next(action for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        channel = next(action for action in commands.choices[command]._actions
                       if action.dest == "channel")
        assert tuple(channel.choices) == KINDS

    @pytest.mark.parametrize("flags,entry", FLAGS, ids=[flags[0] for flags, _ in FLAGS])
    def test_flag_is_the_config_key(self, capsys, tmp_path, flags, entry):
        by_flag = self._sweep(capsys, tmp_path, "flag", self.BASE, flags)
        assert by_flag == self._sweep(capsys, tmp_path, "key", {**self.BASE, **entry})
        base_echo, _ = self._sweep(capsys, tmp_path, "base", self.BASE)
        assert by_flag[0] != base_echo  # the flag took effect

    def test_single_echoes_the_sweep_config(self, capsys, tmp_path):
        import ofdmsim.cli as cli

        settings = ["--channel", "tdl", "--tdl-taps", "2,1", "--seed", "5", "--mod-order", "4",
                    "--max-bits", "3000", "--target-errors", "5", "--bit-budget", "1500",
                    "--no-equalizer", "--account-cp-overhead"]
        assert cli.main(["single", "--fft", "128", "--cp", "1/16", "--ebno", "6", *settings]) == 0
        single = self._echo(capsys)
        assert cli.main(["sweep", "--fft-sizes", "128", "--cp-fractions", "1/16", "--ebno", "6",
                         "--out", str(tmp_path / "x.csv"), *settings]) == 0
        assert single == self._echo(capsys)


class TestValidateCommand:
    def test_default_output_is_pinned(self, capsys):
        # taken before the raw-modem baseline became validate's N=1 cell
        import ofdmsim.cli as cli

        golden = (Path(__file__).parent / "data" / "validate_default_stdout.txt").read_text()
        assert cli.main(["validate"]) == 0
        assert capsys.readouterr().out == golden

    def test_miscalibrated_noise_fails(self, capsys, monkeypatch):
        # a build whose chain adds twice the calibrated noise variance
        import ofdmsim.cli as cli
        import ofdmsim.sweep as sweep

        calibrated = sweep.ebno_to_noise_variance
        monkeypatch.setattr(sweep, "ebno_to_noise_variance",
                            lambda *args: 2.0 * calibrated(*args))
        assert cli.main(["validate", "--bits", "60000"]) == 1
        out = capsys.readouterr().out
        assert "FAIL    awgn-theory" in out
        assert "validation FAILED" in out

    def test_low_bits_floor_still_passes(self, capsys):
        # each theory point grows until it can collect about 1 200 errors; a
        # cap of 30x the floor left the 12 dB point with ~380 and failed it
        import ofdmsim.cli as cli

        assert cli.main(["validate", "--seed", "7", "--bits", "200000"]) == 0
        out = capsys.readouterr().out
        assert "M=8 Eb/No=12dB bits=18999999 " in out
        assert "validation PASSED" in out

    def test_healthy_build_passes(self):
        result = run_cli("validate", "--bits", "400000")
        assert result.returncode == 0, result.stdout
        assert "validation PASSED" in result.stdout
        # one row per theory point plus the transparency and identity rows
        assert result.stdout.count("awgn-theory") == 3
        assert result.stdout.count("ofdm-transparency") == 6


class TestPlotCommand:
    def test_regenerates_charts_from_csv(self, config_path, tmp_path):
        out = tmp_path / "results.csv"
        swept = tmp_path / "swept"
        assert run_cli("sweep", "--config", str(config_path), "--out", str(out),
                       "--plots", str(swept)).returncode == 0
        result = run_cli("plot", "--records", str(out), "--out-dir", str(tmp_path / "charts"))
        assert result.returncode == 0, result.stderr
        names = sorted(p.name for p in (tmp_path / "charts").iterdir())
        assert names == ["ber_fft128.svg", "ber_fft64.svg"]
        for name in names:  # the charts of the sweep's own records, byte for byte
            assert (tmp_path / "charts" / name).read_bytes() == (swept / name).read_bytes()

    def test_regenerates_charts_from_json(self, capsys, config_path, tmp_path):
        # a records file ending in .json is read as JSON
        import ofdmsim.cli as cli

        records = tmp_path / "results.json"
        assert cli.main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "r.csv"),
                         "--json-out", str(records), "--plots", str(tmp_path / "swept")]) == 0
        assert cli.main(["plot", "--records", str(records), "--out-dir",
                         str(tmp_path / "charts")]) == 0
        for swept in (tmp_path / "swept").iterdir():
            assert (tmp_path / "charts" / swept.name).read_bytes() == swept.read_bytes()

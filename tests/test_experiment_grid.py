"""End-to-end tests of scripts/run_experiment_grid.py (subprocess level)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ofdmsim

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "run_experiment_grid.py"
# the same package this test imported, whatever the caller's environment
SRC = str(Path(ofdmsim.__file__).resolve().parents[1])
FAST = ["--max-bits", "999", "--target-errors", "1", "--seed", "5"]


def run(argv, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=300)


def test_every_channel_matches_ofdmsim_sweep(tmp_path):
    out_dir = tmp_path / "grid"
    result = run([str(SCRIPT), "--out-dir", str(out_dir), *FAST])
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in out_dir.glob("*.csv")) == [
        "ber_awgn.csv", "ber_flat.csv", "ber_tdl.csv"]
    assert len(list(out_dir.glob("*/*.svg"))) == 12
    # the script and the CLI share the SweepGrid defaults, so with the same
    # flags they write the same records
    for channel in ("awgn", "flat", "tdl"):
        out = tmp_path / f"{channel}.csv"
        sweep = run(["-m", "ofdmsim", "sweep", "--channel", channel, *FAST, "--out", str(out)])
        assert sweep.returncode == 0, sweep.stderr
        assert (out_dir / f"ber_{channel}.csv").read_bytes() == out.read_bytes()


def test_default_channels_are_the_channel_kinds(monkeypatch):
    import runpy

    from ofdmsim.channel import KINDS

    main = runpy.run_path(str(SCRIPT))["main"]
    seen = []
    # stop at the sweep: record the channel list it was given
    monkeypatch.setitem(main.__globals__, "run", lambda args: seen.append(args.channels) or 0)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT)])
    assert main() == 0
    assert seen == [",".join(KINDS)]


@pytest.mark.parametrize("argv,env_extra", [
    (["--workers", "0"], None),
    (["--max-bits", "0"], None),
    (["--target-errors", "-1"], None),
    (["--channels", "awgn,rician"], None),
    # the count is the flag's alone: the variable does not rescue a bad one
    (["--workers", "0"], {"OFDMSIM_WORKERS": "2"}),
])
def test_bad_settings_exit_2_with_one_line(tmp_path, argv, env_extra):
    out_dir = tmp_path / "grid"
    result = run([str(SCRIPT), "--out-dir", str(out_dir), *argv], env_extra)
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert "config error" in result.stderr
    assert not out_dir.exists()


@pytest.mark.parametrize("blocker", ["out_dir", "csv"])
def test_io_errors_exit_3_with_one_line(tmp_path, blocker):
    # ofdmsim sweep reports these the same way: one io error line, exit 3
    out_dir = tmp_path / "grid"
    if blocker == "out_dir":
        out_dir.write_text("a file, not a directory")
    else:
        (out_dir / "ber_awgn.csv").mkdir(parents=True)
    result = run([str(SCRIPT), "--out-dir", str(out_dir), "--channels", "awgn", *FAST])
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if "io error" in line]
    assert len(errors) == 1 and str(out_dir) in errors[0]


def test_every_channel_output_is_checked_before_the_first_sweep(monkeypatch, capsys, tmp_path):
    # before, the AWGN and flat grids ran and were written, then the TDL CSV failed
    import runpy

    import ofdmsim.cli as cli

    def run_grid(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "run_grid", run_grid)
    out_dir = tmp_path / "grid"
    (out_dir / "ber_tdl.csv").mkdir(parents=True)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--out-dir", str(out_dir), *FAST])
    assert runpy.run_path(str(SCRIPT))["main"]() == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "io error" in err[0] and "ber_tdl.csv" in err[0]
    # no other channel's CSV, and no chart directory: the CSVs are checked first
    assert [path.name for path in out_dir.iterdir()] == ["ber_tdl.csv"]


def test_failed_cells_exit_1_and_keep_the_completed_records(monkeypatch, capsys, tmp_path):
    import runpy

    import ofdmsim.sweep as sweep_mod

    original = sweep_mod.run_cell

    def flaky(config, spec, ebno_db, seed, cell_id, **kwargs):
        if cell_id == 1:
            raise RuntimeError("injected")
        return original(config, spec, ebno_db, seed, cell_id, **kwargs)

    monkeypatch.setattr(sweep_mod, "run_cell", flaky)
    out_dir = tmp_path / "grid"
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--out-dir", str(out_dir),
                                      "--channels", "awgn,flat", *FAST])
    script = runpy.run_path(str(SCRIPT))
    assert script["main"]() == 1
    assert "cell 1: injected" in capsys.readouterr().err
    rows = (out_dir / "ber_awgn.csv").read_text().splitlines()
    assert len(rows) == 1 + 175  # the header and every cell but the failed one
    assert not (out_dir / "ber_flat.csv").exists()  # the run stops at the failure

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
    env.pop("OFDMSIM_WORKERS", None)
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


@pytest.mark.parametrize("argv,env_extra", [
    (["--workers", "0"], None),
    (["--max-bits", "0"], None),
    (["--target-errors", "-1"], None),
    (["--channels", "awgn,rician"], None),
    ([], {"OFDMSIM_WORKERS": "0"}),
])
def test_bad_settings_exit_2_with_one_line(tmp_path, argv, env_extra):
    out_dir = tmp_path / "grid"
    result = run([str(SCRIPT), "--out-dir", str(out_dir), *argv], env_extra)
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert "config error" in result.stderr
    assert not out_dir.exists()

"""Set-up probe: a fresh interpreter up to the point where the first cell could run.

Run as ``python3 bench/setup_probe.py '<grid config JSON>'``.  It imports
numpy and ofdmsim from the checkout's ``src/``, builds and validates the
grid (the ``Fraction`` checks of every (FFT, CP) pair), creates the first
cell's random stream and prints ``ready``.  The benchmark times this from
process start to that line.

``build_grid`` also turns a benchmark grid config into a ``SweepGrid`` for
the benchmark itself, so both measure the same grid.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def import_ofdmsim():
    """Import ofdmsim from the checkout's ``src/``; exit 2 if it is not there."""
    if not (SRC / "ofdmsim" / "__init__.py").is_file():
        print(f"benchmark: no ofdmsim package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import ofdmsim

    if Path(ofdmsim.__file__).resolve().parent != SRC / "ofdmsim":
        print(f"benchmark: imported ofdmsim from {ofdmsim.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return ofdmsim


def build_grid(cfg):
    """SweepGrid from a config dict; keys not given keep the SweepGrid defaults."""
    from ofdmsim.channel import ChannelSpec, exponential_pdp
    from ofdmsim.sweep import SweepGrid

    cfg = dict(cfg)
    kind = cfg.pop("channel")
    taps = None
    if kind == "tdl":
        taps = tuple(exponential_pdp(cfg.pop("tdl_len"), cfg.pop("tdl_decay_db")))
    if "cp_fractions" in cfg:
        cfg["cp_fractions"] = tuple(cfg["cp_fractions"])  # "1/4" strings
    return SweepGrid(channel=ChannelSpec(kind=kind, taps=taps), **cfg)


def main(argv):
    import json

    import_ofdmsim()
    from ofdmsim.bitsource import make_stream

    grid = build_grid(json.loads(argv[1]))
    make_stream(grid.master_seed, 0)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

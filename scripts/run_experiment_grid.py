#!/usr/bin/env python3
"""Run the full cyclic-prefix x FFT-size experiment grid and plot waterfalls.

Sweeps CP in {1/2, 1/4, 1/16, 1/32} and FFT size in {64, 128, 256, 512}
over Eb/No 0..20 dB (step 2) with 8-PSK, once per channel model (AWGN,
flat block fading, 9-tap exponential multipath), writing one CSV and one
set of SVG charts per channel under the output directory.  Each channel
runs as ``ofdmsim sweep --channel <name>`` would, and failures are reported
the same way: exit 2 for a bad setting, 3 for an I/O error, and 1 when
cells failed (that channel's completed records are still written).

Typical use:

    python scripts/run_experiment_grid.py --out-dir results/ --workers 8
"""

import argparse
import sys
import time
from pathlib import Path

from ofdmsim.cli import EXIT_OK, build_grid, exit_code, run_sweep
from ofdmsim.errors import IoError
from ofdmsim.sweep import resolve_workers


def run(args: argparse.Namespace) -> int:
    """Check every setting, then sweep the channels in turn."""
    workers = resolve_workers(args.workers)
    names = [name.strip() for name in args.channels.split(",")]
    # build_grid reads the setting keys among the flags' dests
    grids = [build_grid({**vars(args), "channel": name}) for name in names]

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out_dir}: {exc}") from exc
    for name, grid in zip(names, grids):
        print(f"[{name}] running {grid.n_cells} cells ...", file=sys.stderr)
        start = time.perf_counter()
        code = run_sweep(grid, workers, str(out_dir / f"ber_{name}.csv"), None,
                         str(out_dir / name))
        if code != EXIT_OK:
            return code
        print(f"[{name}] {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return EXIT_OK


def main() -> int:
    # a setting flag that is not given leaves no attribute, so its grid value
    # is the SweepGrid default, as in ofdmsim sweep
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     argument_default=argparse.SUPPRESS)
    parser.add_argument("--out-dir", default="results", help="output directory")
    parser.add_argument("--seed", dest="master_seed", type=int)
    parser.add_argument("--channels", default="awgn,flat,tdl",
                        help="comma list from {awgn,flat,tdl}")
    parser.add_argument("--max-bits", dest="max_bits_per_cell", type=int)
    parser.add_argument("--target-errors", type=int)
    parser.add_argument("--bit-budget", type=int)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (OFDMSIM_WORKERS overrides)")
    args = parser.parse_args()
    return exit_code(lambda: run(args), parser.prog)


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Run the full cyclic-prefix x FFT-size experiment grid and plot waterfalls.

Sweeps CP in {1/2, 1/4, 1/16, 1/32} and FFT size in {64, 128, 256, 512}
over Eb/No 0..20 dB (step 2) with 8-PSK, once per channel model (AWGN,
flat block fading, 9-tap exponential multipath), writing one CSV and one
set of SVG charts per channel under the output directory.  Each channel
runs as ``ofdmsim sweep --channel <name>`` would, and failures are reported
the same way: exit 2 for a bad setting, 3 for an I/O error, and 1 when
cells failed (that channel's completed records are still written).  Every
channel's outputs are checked before the first sweep, so a path that cannot
be written costs no sweep.

Typical use:

    python scripts/run_experiment_grid.py --out-dir results/ --workers 8
"""

import argparse
import sys
import time
from pathlib import Path

from ofdmsim.channel import KINDS
from ofdmsim.cli import (EXIT_OK, Parser, add_run_flags, build_grid, check_outputs, exit_code,
                         read_flags, run_sweep)
from ofdmsim.errors import IoError
from ofdmsim.sweep import check_workers


def run(args: argparse.Namespace) -> int:
    """Check every setting and every channel's outputs, then sweep the
    channels in turn."""
    workers = check_workers(args.workers)
    names = [name.strip() for name in args.channels.split(",")]
    # build_grid reads the setting keys among the flags' dests
    grids = [build_grid({**vars(args), "channel": name}) for name in names]

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out_dir}: {exc}") from exc
    csvs = [str(out_dir / f"ber_{name}.csv") for name in names]
    charts = [str(out_dir / name) for name in names]
    check_outputs(csvs, charts)
    for name, grid, csv_path, chart_dir in zip(names, grids, csvs, charts):
        print(f"[{name}] running {grid.n_cells} cells ...", file=sys.stderr)
        start = time.perf_counter()
        code = run_sweep(grid, workers, csv_path, None, chart_dir)
        if code != EXIT_OK:
            return code
        print(f"[{name}] {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return EXIT_OK


def main() -> int:
    # a setting flag that is not given leaves no attribute, so its grid value
    # is the SweepGrid default, as in ofdmsim sweep
    parser = Parser(description=__doc__.splitlines()[0], argument_default=argparse.SUPPRESS)
    parser.add_argument("--out-dir", default="results", help="output directory")
    parser.add_argument("--channels", default=",".join(KINDS),
                        help=f"comma list from {{{','.join(KINDS)}}}")
    add_run_flags(parser)
    parser.add_argument("--workers", default=1, help="worker processes (default 1; output-neutral)")
    args = parser.parse_args()
    return exit_code(lambda: run(read_flags(args)), parser.prog)


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Run the full cyclic-prefix x FFT-size experiment grid and plot waterfalls.

Sweeps CP in {1/2, 1/4, 1/16, 1/32} and FFT size in {64, 128, 256, 512}
over Eb/No 0..20 dB (step 2) with 8-PSK, once per channel model (AWGN,
flat block fading, 9-tap exponential multipath), writing one CSV and one
set of SVG charts per channel under the output directory.

Typical use:

    python scripts/run_experiment_grid.py --out-dir results/ --workers 8
"""

import argparse
import sys
import time
from pathlib import Path

from ofdmsim.channel import DEFAULT_TDL_DECAY_DB, DEFAULT_TDL_LEN, ChannelSpec, exponential_pdp
from ofdmsim.sweep import SweepGrid, emit_plot, resolve_workers, run_grid, write_records

CHANNELS = {
    "awgn": ChannelSpec(kind="awgn"),
    "flat": ChannelSpec(kind="flat"),
    "tdl": ChannelSpec(
        kind="tdl", taps=tuple(exponential_pdp(DEFAULT_TDL_LEN, DEFAULT_TDL_DECAY_DB))
    ),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=SweepGrid.master_seed)
    parser.add_argument("--channels", default="awgn,flat,tdl",
                        help="comma list from {awgn,flat,tdl}")
    parser.add_argument("--max-bits", type=int, default=SweepGrid.max_bits_per_cell)
    parser.add_argument("--target-errors", type=int, default=SweepGrid.target_errors)
    parser.add_argument("--bit-budget", type=int, default=SweepGrid.bit_budget)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (OFDMSIM_WORKERS overrides)")
    args = parser.parse_args()

    try:
        names = [name.strip() for name in args.channels.split(",")]
        unknown = [name for name in names if name not in CHANNELS]
        if unknown:
            raise ValueError(f"unknown channel(s): {', '.join(unknown)}")
        workers = resolve_workers(args.workers)
        grids = [(name, SweepGrid(
            channel=CHANNELS[name],
            master_seed=args.seed,
            max_bits_per_cell=args.max_bits,
            target_errors=args.target_errors,
            bit_budget=args.bit_budget,
        )) for name in names]
    except ValueError as exc:  # a ConfigError too: reported as `ofdmsim sweep` does
        print(f"{parser.prog}: config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, grid in grids:
        print(f"[{name}] running {grid.n_cells} cells ...", file=sys.stderr)
        start = time.perf_counter()
        records = run_grid(grid, workers=workers)
        elapsed = time.perf_counter() - start
        csv_path = out_dir / f"ber_{name}.csv"
        write_records(records, str(csv_path))
        charts = emit_plot(records, str(out_dir / name))
        print(f"[{name}] {elapsed:.1f}s -> {csv_path} + {len(charts)} charts",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

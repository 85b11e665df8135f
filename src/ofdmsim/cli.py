"""Command-line entry point: sweep, single, validate, and plot commands."""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Any, Optional, Sequence

from .bitsource import DEFAULT_MASTER_SEED
from .channel import ChannelSpec, ebno_to_noise_variance, exponential_pdp
from .errors import ConfigError, IoError
from .framing import OfdmConfig
from .sweep import (
    DEFAULT_CP_FRACTIONS,
    DEFAULT_EBNO_POINTS_DB,
    DEFAULT_FFT_SIZES,
    SweepFailure,
    SweepGrid,
    emit_plot,
    read_records,
    run_cell,
    run_grid,
    write_records,
)
from .validate import format_table, run_validation

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_IO_FAILURE = 3

#: Default multipath profile when a TDL channel is requested without taps.
DEFAULT_TDL_LEN = 9
DEFAULT_TDL_DECAY_DB = 1.0


def _parse_list(text: str, conv) -> tuple:
    try:
        return tuple(conv(part) for part in text.split(",") if part.strip())
    except (ValueError, ZeroDivisionError) as exc:  # e.g. "abc" or "1/0"
        raise ConfigError(f"cannot parse {text!r}: {exc}") from exc


def _build_channel(settings: dict[str, Any]) -> ChannelSpec:
    kind = settings.get("channel", "awgn")
    overhead = bool(settings.get("account_cp_overhead", False))
    if kind != "tdl":
        return ChannelSpec(kind=kind, account_cp_overhead=overhead)
    if settings.get("tdl_taps") is not None:
        powers = [float(p) for p in settings["tdl_taps"]]
        total = sum(powers)
        if total <= 0:
            raise ConfigError("tdl_taps must contain positive power")
        taps = tuple(p / total for p in powers)
    else:
        taps = tuple(
            exponential_pdp(
                int(settings.get("tdl_len", DEFAULT_TDL_LEN)),
                float(settings.get("tdl_decay_db", DEFAULT_TDL_DECAY_DB)),
            )
        )
    return ChannelSpec(kind="tdl", taps=taps, account_cp_overhead=overhead)


_GRID_KEYS = (
    "fft_sizes", "cp_fractions", "ebno_points_db", "modulation_order",
    "channel", "tdl_taps", "tdl_len", "tdl_decay_db", "account_cp_overhead",
    "master_seed", "max_bits_per_cell", "target_errors", "bit_budget",
    "use_equalizer",
)


def _load_config_file(path: Optional[str]) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(_GRID_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys in {path}: {', '.join(unknown)}")
    return data


def _resolve_grid(args: argparse.Namespace) -> SweepGrid:
    settings = _load_config_file(args.config)
    overrides: dict[str, Any] = {}
    if args.fft_sizes is not None:
        overrides["fft_sizes"] = _parse_list(args.fft_sizes, int)
    if args.cp_fractions is not None:
        overrides["cp_fractions"] = _parse_list(args.cp_fractions, Fraction)
    if args.ebno is not None:
        overrides["ebno_points_db"] = _parse_list(args.ebno, float)
    if args.channel is not None:
        overrides["channel"] = args.channel
    if args.tdl_taps is not None:
        overrides["tdl_taps"] = list(_parse_list(args.tdl_taps, float))
    if args.tdl_len is not None:
        overrides["tdl_len"] = args.tdl_len
    if args.tdl_decay_db is not None:
        overrides["tdl_decay_db"] = args.tdl_decay_db
    if args.account_cp_overhead:
        overrides["account_cp_overhead"] = True
    if args.mod_order is not None:
        overrides["modulation_order"] = args.mod_order
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.max_bits is not None:
        overrides["max_bits_per_cell"] = args.max_bits
    if args.target_errors is not None:
        overrides["target_errors"] = args.target_errors
    if args.bit_budget is not None:
        overrides["bit_budget"] = args.bit_budget
    if args.no_equalizer:
        overrides["use_equalizer"] = False
    settings.update(overrides)

    try:
        grid = SweepGrid(
            fft_sizes=tuple(settings.get("fft_sizes", DEFAULT_FFT_SIZES)),
            cp_fractions=tuple(
                Fraction(str(g)) for g in settings.get("cp_fractions", DEFAULT_CP_FRACTIONS)
            ),
            ebno_points_db=tuple(settings.get("ebno_points_db", DEFAULT_EBNO_POINTS_DB)),
            channel=_build_channel(settings),
            modulation_order=int(settings.get("modulation_order", 8)),
            master_seed=int(settings.get("master_seed", DEFAULT_MASTER_SEED)),
            max_bits_per_cell=int(settings.get("max_bits_per_cell", 2_000_000)),
            target_errors=int(settings.get("target_errors", 100)),
            bit_budget=int(settings.get("bit_budget", 1000)),
            use_equalizer=bool(settings.get("use_equalizer", True)),
        )
    except (TypeError, ValueError, ZeroDivisionError) as exc:  # malformed config values
        raise ConfigError(str(exc)) from exc
    return grid


def _echo_grid(grid: SweepGrid) -> None:
    effective = {
        "fft_sizes": list(grid.fft_sizes),
        "cp_fractions": [str(g) for g in grid.cp_fractions],
        "ebno_points_db": list(grid.ebno_points_db),
        "channel": grid.channel.summary(),
        "account_cp_overhead": grid.channel.account_cp_overhead,
        "modulation_order": grid.modulation_order,
        "master_seed": grid.master_seed,
        "max_bits_per_cell": grid.max_bits_per_cell,
        "target_errors": grid.target_errors,
        "bit_budget": grid.bit_budget,
        "use_equalizer": grid.use_equalizer,
        "cells": grid.n_cells,
    }
    print(f"effective config: {json.dumps(effective)}", file=sys.stderr)


def _sample_snr_db(ebno_db: float, order: int, fft_size: int, cp_len: int,
                   overhead: bool) -> float:
    sigma2 = ebno_to_noise_variance(ebno_db, order, fft_size, cp_len, overhead)
    return 10.0 * math.log10(1.0 / sigma2)


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = _resolve_grid(args)
    _echo_grid(grid)
    if args.report_snr:
        for n in grid.fft_sizes:
            for g in grid.cp_fractions:
                cp_len = int(g * n)
                for ebno in grid.ebno_points_db:
                    snr = _sample_snr_db(ebno, grid.modulation_order, n, cp_len,
                                         grid.channel.account_cp_overhead)
                    print(f"fft={n} cp={g} ebno_db={ebno:g} sample_snr_db={snr:.4f}",
                          file=sys.stderr)
    try:
        records = run_grid(grid, workers=args.workers)
    except SweepFailure as exc:
        # keep what finished, then report the failed cells (2/3 stay reserved
        # for config and IO errors)
        write_records(exc.records, args.out, "csv")
        print(f"ofdmsim: sweep incomplete: {exc}", file=sys.stderr)
        return 1
    write_records(records, args.out, "csv")
    if args.json_out:
        write_records(records, args.json_out, "json")
    if args.plots:
        emit_plot(records, args.plots)
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_single(args: argparse.Namespace) -> int:
    settings: dict[str, Any] = {
        "channel": args.channel or "awgn",
        "account_cp_overhead": args.account_cp_overhead,
    }
    if args.tdl_taps is not None:
        settings["tdl_taps"] = list(_parse_list(args.tdl_taps, float))
    if args.tdl_len is not None:
        settings["tdl_len"] = args.tdl_len
    if args.tdl_decay_db is not None:
        settings["tdl_decay_db"] = args.tdl_decay_db
    try:
        config = OfdmConfig(
            fft_size=args.fft,
            cp_fraction=Fraction(args.cp),
            modulation_order=args.mod_order or 8,
            bit_budget=args.bit_budget or 1000,
        )
        spec = _build_channel(settings)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc
    target_errors = args.target_errors or 100
    max_bits = args.max_bits or 2_000_000
    if target_errors < 1 or max_bits < 1:
        raise ConfigError("--target-errors and --max-bits must be >= 1")
    seed = args.seed if args.seed is not None else DEFAULT_MASTER_SEED
    print(
        f"effective config: fft={config.fft_size} cp={config.cp_fraction} "
        f"M={config.modulation_order} channel={spec.summary()} ebno={args.ebno} "
        f"seed={seed} cell={args.cell_id}",
        file=sys.stderr,
    )
    record = run_cell(
        config, spec, args.ebno, seed, args.cell_id,
        target_errors=target_errors, max_bits=max_bits,
        use_equalizer=not args.no_equalizer,
    )
    payload = record.row()
    payload["equalizer"] = record.equalizer
    if args.report_snr:
        payload["sample_snr_db"] = _sample_snr_db(
            args.ebno, config.modulation_order, config.fft_size, config.cp_len,
            spec.account_cp_overhead,
        )
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.bits < 1:
        raise ConfigError(f"--bits must be >= 1, got {args.bits}")
    seed = args.seed if args.seed is not None else DEFAULT_MASTER_SEED
    rows, all_passed = run_validation(
        seed=seed, bits_floor=args.bits, noise_scale=args.noise_scale
    )
    print(format_table(rows))
    print(f"validation {'PASSED' if all_passed else 'FAILED'}")
    return EXIT_OK if all_passed else EXIT_VALIDATION_FAILED


def cmd_plot(args: argparse.Namespace) -> int:
    try:
        rows = read_records(args.records, args.format)
    except (KeyError, ValueError) as exc:  # missing column or unparsable value
        raise ConfigError(f"records file {args.records} is malformed: {exc!r}") from exc
    if not rows:
        raise ConfigError(f"records file {args.records} holds no records")
    paths = emit_plot(rows, args.out_dir)
    print(f"wrote {len(paths)} chart(s) to {args.out_dir}", file=sys.stderr)
    return EXIT_OK


def _add_channel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--channel", choices=("awgn", "flat", "tdl"), default=None,
                        help="channel model (default awgn)")
    parser.add_argument("--tdl-taps", default=None,
                        help="comma-separated TDL tap powers (normalized to sum 1)")
    parser.add_argument("--tdl-len", type=int, default=None,
                        help="TDL profile length (with --tdl-decay-db)")
    parser.add_argument("--tdl-decay-db", type=float, default=None,
                        help="TDL exponential decay per tap, dB")
    parser.add_argument("--account-cp-overhead", action="store_true",
                        help="charge the CP overhead against Eb/No")
    parser.add_argument("--mod-order", type=int, default=None,
                        help="PSK order M (default 8)")
    parser.add_argument("--max-bits", type=int, default=None,
                        help="per-cell bit ceiling (default 2000000)")
    parser.add_argument("--target-errors", type=int, default=None,
                        help="per-cell early-stop error count (default 100)")
    parser.add_argument("--bit-budget", type=int, default=None,
                        help="bits per Monte Carlo repetition (default 1000)")
    parser.add_argument("--no-equalizer", action="store_true",
                        help="bypass zero-forcing (reproduces the equalizer-less receiver)")
    parser.add_argument("--report-snr", action="store_true",
                        help="also report the per-sample SNR implied by each Eb/No point")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdmsim",
        description="Deterministic OFDM cyclic-prefix sweep simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a BER sweep grid")
    p_sweep.add_argument("--config", default=None, help="JSON grid config file")
    p_sweep.add_argument("--out", default="results.csv", help="CSV output path")
    p_sweep.add_argument("--json-out", default=None, help="also write JSON records here")
    p_sweep.add_argument("--plots", default=None, help="directory for SVG waterfall charts")
    p_sweep.add_argument("--seed", type=int, default=None, help="master seed")
    p_sweep.add_argument("--fft-sizes", default=None, help="comma list, e.g. 64,128,256,512")
    p_sweep.add_argument("--cp-fractions", default=None, help="comma list, e.g. 1/2,1/4,1/16,1/32")
    p_sweep.add_argument("--ebno", default=None, help="comma list of Eb/No points in dB")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="worker processes (OFDMSIM_WORKERS overrides; output-neutral)")
    _add_channel_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_single = sub.add_parser("single", help="run one cell and print its record as JSON")
    p_single.add_argument("--fft", type=int, required=True, help="FFT size")
    p_single.add_argument("--cp", required=True, help="CP fraction, e.g. 1/4")
    p_single.add_argument("--ebno", type=float, required=True, help="Eb/No in dB")
    p_single.add_argument("--seed", type=int, default=None, help="master seed")
    p_single.add_argument("--cell-id", type=int, default=0, help="substream cell id")
    _add_channel_flags(p_single)
    p_single.set_defaults(func=cmd_single)

    p_val = sub.add_parser("validate", help="check the simulator against analytic references")
    p_val.add_argument("--seed", type=int, default=None, help="master seed")
    p_val.add_argument("--bits", type=int, default=1_000_000,
                       help="minimum bits per theory point (default 1000000)")
    p_val.add_argument("--noise-scale", type=float, default=1.0,
                       help="noise variance multiplier (diagnostics hook; 1.0 = calibrated)")
    p_val.set_defaults(func=cmd_validate)

    p_plot = sub.add_parser("plot", help="regenerate SVG charts from a records file")
    p_plot.add_argument("--records", required=True, help="CSV or JSON records file")
    p_plot.add_argument("--out-dir", required=True, help="output directory for SVGs")
    p_plot.add_argument("--format", choices=("csv", "json"), default=None,
                        help="records format (default: by file extension)")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"ofdmsim: config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except IoError as exc:
        print(f"ofdmsim: io error: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())

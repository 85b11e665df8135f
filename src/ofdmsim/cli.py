"""Command-line entry point: sweep, single, validate, and plot commands.

argparse only splits the words.  :func:`read_flags` reads the text of each
value flag with its reader in :data:`_READERS`, for every command and the
experiment script, so text that a reader cannot read is one config error
naming the setting, as a value that the grid rejects is."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional, Sequence

from .bitsource import check_key
from .channel import (
    DEFAULT_TDL_DECAY_DB,
    DEFAULT_TDL_LEN,
    KINDS,
    TDL,
    ChannelSpec,
    ebno_to_noise_variance,
    exponential_pdp,
)
from .errors import ConfigError, IoError
from .framing import OfdmConfig, as_axis, as_number
from .metrics import BerRecord
from .sweep import (
    SweepFailure,
    SweepGrid,
    check_workers,
    emit_plot,
    read_records,
    records_format,
    run_cell,
    run_grid,
    write_records,
)
from .validate import BITS_FLOOR, format_table, run_validation

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_IO_FAILURE = 3


def _float(text: str) -> float:
    """``float(text)``, except that a finite number beyond the range of a
    float, which ``float`` reads as +-inf, is a :class:`ConfigError`: only
    text that spells inf ("inf", "+inf", "infinity", ...) is infinite."""
    value = float(text)
    if math.isinf(value) and text.strip().lstrip("+-").lower() not in ("inf", "infinity"):
        raise ConfigError(f"{text.strip()} is beyond the range of a float, about +-1.8e308")
    return value


def _parse(key: str, text: str, conv: Callable[[str], Any]) -> Any:
    """``conv(text)`` for the setting ``key``; text it cannot read is a
    :class:`ConfigError` naming the setting."""
    try:
        return conv(text)
    except (ValueError, ZeroDivisionError) as exc:  # e.g. "abc", "1/0" or "1e400"
        raise ConfigError(f"{key}: cannot parse {text!r}: {exc}") from exc


def _comma_list(conv: Callable[[str], Any]) -> Callable[[str], tuple]:
    """A reader of a comma list of what ``conv`` reads; empty items are skipped."""
    return lambda text: tuple(conv(part) for part in text.split(",") if part.strip())


#: Each value flag's text reader, by the flag's dest: a setting flag's dest is
#: its setting key, and workers, cell_id, seed and bits_floor name a command's
#: own flags (the last two are validate's).
_READERS: dict[str, Callable[[str], Any]] = dict.fromkeys(
    ("master_seed", "max_bits_per_cell", "target_errors", "bit_budget", "tdl_len",
     "modulation_order", "workers", "cell_id", "seed", "bits_floor"), int) | {
    "tdl_decay_db": _float, "fft_sizes": _comma_list(int), "cp_fractions": _comma_list(Fraction),
    "ebno_points_db": _comma_list(_float), "tdl_taps": _comma_list(_float)}


def read_flags(args: argparse.Namespace) -> argparse.Namespace:
    """``args``, with the text of each given value flag read by its reader; a
    default, which is not text, is kept as it is."""
    for key, text in vars(args).items():
        if key in _READERS and isinstance(text, str):
            setattr(args, key, _parse(key, text, _READERS[key]))
    return args


#: The delay-line settings, which only the tdl channel takes.
_TDL_KEYS = ("tdl_taps", "tdl_len", "tdl_decay_db")
#: The channel's settings; every other setting key is a SweepGrid field.
_CHANNEL_KEYS = ("channel", *_TDL_KEYS, "account_cp_overhead")
#: Every setting key: the keys a config file may hold, and the dests of the
#: setting flags.
_GRID_KEYS = (*(f.name for f in dataclasses.fields(SweepGrid) if f.name != "channel"),
              *_CHANNEL_KEYS)


def _json_float(text: str) -> Any:
    """A JSON float of a config file, as an int if it has no fractional part
    (2e6, 64.0), whatever its key.  -0.0 stays a float, so an Eb/No of -0.0
    is recorded as -0, as ``--ebno=-0`` is.  A number beyond the range of a
    float is a :class:`ConfigError`, not inf (``Infinity`` is inf)."""
    value = _float(text)
    return int(value) if value.is_integer() and (value or text[0] != "-") else value


def _build_channel(settings: dict[str, Any]) -> ChannelSpec:
    """The channel of the settings; a setting not given takes its default."""
    default = SweepGrid.channel
    kind = settings.get("channel", default.kind)
    overhead = settings.get("account_cp_overhead", default.account_cp_overhead)
    if kind != TDL:
        spec = ChannelSpec(kind=kind, account_cp_overhead=overhead)
        stray = [key for key in _TDL_KEYS if key in settings]
        if stray:
            raise ConfigError(f"channel {kind} takes no delay-line settings, "
                              f"got {', '.join(stray)}")
        return spec
    # a profile setting given with tdl_taps is judged, though the taps win
    taps = exponential_pdp(settings.get("tdl_len", DEFAULT_TDL_LEN),
                           settings.get("tdl_decay_db", DEFAULT_TDL_DECAY_DB))
    if settings.get("tdl_taps") is not None:
        powers = [as_number("tdl_taps", p) for p in as_axis("tdl_taps", settings["tdl_taps"])]
        total = sum(powers)
        # false for a NaN, and for a sum that overflows
        if not (all(p >= 0.0 for p in powers) and 0.0 < total < math.inf):
            raise ConfigError("tdl_taps must be nonnegative with a positive finite sum, "
                              f"got {powers}")
        taps = [p / total for p in powers]
    return ChannelSpec(kind=TDL, taps=taps, account_cp_overhead=overhead)


def _load_config_file(path: Optional[str]) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_float=_json_float)
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


def build_grid(settings: dict[str, Any]) -> SweepGrid:
    """The grid for resolved settings, a dict that may hold other keys too: the
    one validation path of every command.  The types judge each value as
    given, and a value they reject is a :class:`ConfigError`."""
    given = {key: settings[key] for key in _GRID_KEYS if key in settings}
    fields = {key: value for key, value in given.items() if key not in _CHANNEL_KEYS}
    try:
        return SweepGrid(channel=_build_channel(given), **fields)
    except (TypeError, ValueError) as exc:  # a value a type rejects
        raise ConfigError(str(exc)) from exc


def _echo_grid(grid: SweepGrid) -> None:
    effective = {f.name: getattr(grid, f.name) for f in dataclasses.fields(grid)}
    effective.update(cp_fractions=[str(g) for g in grid.cp_fractions],
                     channel=grid.channel.summary(),
                     account_cp_overhead=grid.channel.account_cp_overhead,
                     cells=grid.n_cells)
    print(f"effective config: {json.dumps(effective)}", file=sys.stderr)


def _sample_snr_db(ebno_db: float, config: OfdmConfig, spec: ChannelSpec) -> float:
    """Per-sample SNR of an Eb/No point: +inf at the noiseless point."""
    sigma2 = ebno_to_noise_variance(ebno_db, config, spec)
    return 10.0 * math.log10(1.0 / sigma2) if sigma2 > 0.0 else math.inf


def cmd_sweep(args: argparse.Namespace) -> int:
    # a setting flag's dest is its key, and a flag not given leaves no attribute
    grid = build_grid({**_load_config_file(args.config), **vars(args)})
    workers = check_workers(args.workers)  # before the echo: one stderr line
    _check_record_names(args.out, args.json_out)
    _echo_grid(grid)
    if args.report_snr:
        for _, config, spec, ebno in grid.cells():
            snr = _sample_snr_db(ebno, config, spec)
            print(f"fft={config.fft_size} cp={config.cp_fraction} ebno_db={ebno:g} "
                  f"sample_snr_db={snr:.4f}", file=sys.stderr)
    check_outputs((args.out, args.json_out), (args.plots,))
    return run_sweep(grid, workers, args.out, args.json_out, args.plots)


def _check_record_names(out: str, json_out: Optional[str]) -> None:
    """A :class:`ConfigError` naming the flag unless each records path has the
    name of its format, as ``ofdmsim plot`` reads it (:func:`records_format`):
    the CSV's ``--out`` may not end in .json, and ``--json-out`` must."""
    if records_format(out) != "csv":
        raise ConfigError(f"--out: the CSV records path must not end in .json, got {out}")
    if json_out and records_format(json_out) != "json":
        raise ConfigError(f"--json-out: the JSON records path must end in .json, got {json_out}")


def check_outputs(records: Iterable[Optional[str]], charts: Iterable[Optional[str]]) -> None:
    """Check that each records path can be written, then make each chart
    directory (a None is skipped), before any cell runs, so that a path that
    cannot be written costs no sweep.  A failure is the :class:`IoError` a
    write would raise.  A file is opened to append, so an existing one keeps
    its contents, and one the check makes is removed again."""
    for path in filter(None, records):
        existed = os.path.lexists(path)
        try:
            with open(path, "a", encoding="utf-8"):
                pass
            if not existed:
                os.remove(path)
        except OSError as exc:
            raise IoError(f"failed to write records to {path}: {exc}") from exc
    for directory in filter(None, charts):
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise IoError(f"failed to write plot under {directory}: {exc}") from exc


def run_sweep(grid: SweepGrid, workers: int, out: str,
              json_out: Optional[str], plots: Optional[str]) -> int:
    """Run ``grid``, write its CSV (and JSON and charts when given a path),
    and return the exit code: 1 if cells failed, after writing the rest.
    The caller checks these paths with :func:`check_outputs` first."""
    try:
        records = run_grid(grid, workers=workers)
    except SweepFailure as exc:
        # keep what finished, then report the failed cells (2/3 stay reserved
        # for config and IO errors)
        write_records(exc.records, out, "csv")
        print(f"ofdmsim: sweep incomplete: {exc}", file=sys.stderr)
        return 1
    write_records(records, out, "csv")
    if json_out:
        write_records(records, json_out, "json")
    if plots:
        emit_plot(records, plots)
    print(f"wrote {len(records)} records to {out}", file=sys.stderr)
    return EXIT_OK


def cmd_single(args: argparse.Namespace) -> int:
    grid = build_grid({**vars(args), "fft_sizes": [_parse("fft_sizes", args.fft, int)],
                       "cp_fractions": [args.cp],
                       "ebno_points_db": [_parse("ebno_points_db", args.ebno, _float)]})
    cell_id = check_key("cell_id", args.cell_id)  # before the echo: one stderr line
    _echo_grid(grid)
    _, config, spec, ebno = next(grid.cells())
    record = run_cell(
        config, spec, ebno, grid.master_seed, cell_id,
        target_errors=grid.target_errors, max_bits=grid.max_bits_per_cell,
        use_equalizer=grid.use_equalizer,
    )
    payload = record.row()
    payload["equalizer"] = "zf" if grid.use_equalizer else "none"
    if args.report_snr:
        payload["sample_snr_db"] = _sample_snr_db(ebno, config, spec)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    # a flag not given leaves no attribute, so run_validation's default holds
    given = {key: getattr(args, key) for key in ("seed", "bits_floor") if hasattr(args, key)}
    rows, all_passed = run_validation(**given)
    print(format_table(rows))
    print(f"validation {'PASSED' if all_passed else 'FAILED'}")
    return EXIT_OK if all_passed else EXIT_VALIDATION_FAILED


def cmd_plot(args: argparse.Namespace) -> int:
    try:
        rows = read_records(args.records)
    except (KeyError, TypeError, ValueError) as exc:  # missing column, value or row
        raise ConfigError(f"records file {args.records} is malformed: {exc!r}") from exc
    if not rows:
        raise ConfigError(f"records file {args.records} holds no records")
    paths = emit_plot([BerRecord(**row) for row in rows], args.out_dir)
    print(f"wrote {len(paths)} chart(s) to {args.out_dir}", file=sys.stderr)
    return EXIT_OK


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The run flags, the seed and the per-cell counts, of every command that
    runs a grid.  Each dest is a setting key: :func:`read_flags` reads the
    text as an integer, and the grid judges the value."""
    parser.add_argument("--seed", dest="master_seed", help="master seed")
    parser.add_argument("--max-bits", dest="max_bits_per_cell",
                        help=f"per-cell bit ceiling (default {SweepGrid.max_bits_per_cell})")
    parser.add_argument("--target-errors",
                        help=f"per-cell early-stop error count (default {SweepGrid.target_errors})")
    parser.add_argument("--bit-budget",
                        help="bits per Monte Carlo repetition, rounded down to whole PSK "
                             f"symbols (default {SweepGrid.bit_budget})")


def _add_channel_flags(parser: argparse.ArgumentParser) -> None:
    """The setting flags that sweep and single share; each dest is a setting key."""
    parser.add_argument("--channel", choices=KINDS,
                        help=f"channel model (default {SweepGrid.channel.kind})")
    parser.add_argument("--tdl-taps", help="comma-separated TDL tap powers (normalized to sum 1)")
    parser.add_argument("--tdl-len", help="TDL profile length (with --tdl-decay-db)")
    parser.add_argument("--tdl-decay-db", help="TDL exponential decay per tap, dB")
    parser.add_argument("--account-cp-overhead", action="store_true",
                        help="charge the CP overhead against Eb/No")
    parser.add_argument("--mod-order", dest="modulation_order",
                        help=f"PSK order M (default {SweepGrid.modulation_order})")
    add_run_flags(parser)
    parser.add_argument("--no-equalizer", dest="use_equalizer", action="store_false",
                        help="bypass zero-forcing (reproduces the equalizer-less receiver)")
    parser.add_argument("--report-snr", action="store_true", default=False,
                        help="also report the per-sample SNR implied by each Eb/No point")


#: A word that begins as a negative number does (``-10,0``, ``-1e1``,
#: ``-.5``, ``-inf``, ``-nan``): every ofdmsim option begins with ``--``, so it
#: is a value.
_NEGATIVE_VALUE = re.compile(r"-(?:[0-9.]|inf|nan)", re.IGNORECASE)


class Parser(argparse.ArgumentParser):
    """An argument parser that takes a word matching :data:`_NEGATIVE_VALUE`
    as a flag's value, never as an option, on every Python version: argparse's
    own negative-number test differs between versions (3.11's takes only
    ``-12`` and ``-1.5``).  Subcommand parsers, and the experiment script's
    parser, are of the same class."""

    def _parse_optional(self, arg_string: str) -> Any:
        if _NEGATIVE_VALUE.match(arg_string):
            return None  # a value
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="ofdmsim",
        description="Deterministic OFDM cyclic-prefix sweep simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a setting flag that is not given leaves no attribute (argument_default),
    # so the config file, then the SweepGrid field, supplies the value
    p_sweep = sub.add_parser("sweep", help="run a BER sweep grid",
                             argument_default=argparse.SUPPRESS)
    p_sweep.add_argument("--config", default=None, help="JSON grid config file")
    p_sweep.add_argument("--out", default="results.csv", help="CSV output path")
    p_sweep.add_argument("--json-out", default=None, help="also write JSON records here")
    p_sweep.add_argument("--plots", default=None, help="directory for SVG waterfall charts")
    p_sweep.add_argument("--fft-sizes", help="comma list, e.g. 64,128,256,512")
    p_sweep.add_argument("--cp-fractions", help="comma list, e.g. 1/2,1/4,1/16,1/32")
    p_sweep.add_argument("--ebno", dest="ebno_points_db", help="comma list of Eb/No points in dB")
    p_sweep.add_argument("--workers", default=1,
                         help="worker processes (default 1; output-neutral)")
    _add_channel_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_single = sub.add_parser("single", help="run one cell and print its record as JSON",
                              argument_default=argparse.SUPPRESS)
    p_single.add_argument("--fft", required=True, help="FFT size")
    p_single.add_argument("--cp", required=True, help="CP fraction, e.g. 1/4")
    p_single.add_argument("--ebno", required=True, help="Eb/No in dB")
    p_single.add_argument("--cell-id", default=0, help="substream cell id")
    _add_channel_flags(p_single)
    p_single.set_defaults(func=cmd_single)

    p_val = sub.add_parser("validate", help="check the simulator against analytic references",
                           argument_default=argparse.SUPPRESS)
    p_val.add_argument("--seed", help="master seed")
    p_val.add_argument("--bits", dest="bits_floor",
                       help=f"minimum bits per theory point (default {BITS_FLOOR})")
    p_val.set_defaults(func=cmd_validate)

    p_plot = sub.add_parser("plot", help="regenerate SVG charts from a records file")
    p_plot.add_argument("--records", required=True,
                        help="records file: JSON if its name ends in .json, else CSV")
    p_plot.add_argument("--out-dir", required=True, help="output directory for SVGs")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def exit_code(command: Callable[[], int], prog: str) -> int:
    """Run ``command``; a config or I/O error becomes one stderr line and its exit code."""
    try:
        return command()
    except ConfigError as exc:
        print(f"{prog}: config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except IoError as exc:
        print(f"{prog}: io error: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return exit_code(lambda: args.func(read_flags(args)), parser.prog)


if __name__ == "__main__":
    raise SystemExit(main())

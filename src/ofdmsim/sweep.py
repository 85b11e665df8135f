"""Experiment grid execution: Monte Carlo cells, persistence, and plots.

A sweep cell is identified by ``(master_seed, cell_id)`` and owns a private
random substream, so cells may run on any number of worker processes and
the output records are byte-identical regardless of scheduling.

Per-repetition draw order inside a cell (fixed for reproducibility):
information bits, then channel gains, then noise samples.

Repetitions run in chunks.  The draws of every repetition in a chunk are
made first, each repetition's in the order above, into (k, ...) arrays;
then the chain runs once on the whole chunk, row by row.  The cell stops at
the first repetition whose running totals reach ``target_errors`` or
``max_bits``, and the draws of the chunk's later repetitions are
discarded.  Because the stream is private to the cell, those extra draws
touch nothing else, and a record does not depend on how the repetitions
were chunked.  The first chunk is one repetition; each later chunk holds
the repetitions the error rate so far predicts are still needed, at most
as many as have already run (so with no errors yet the total doubles) and
at most ``_CHUNK_SAMPLES`` time-domain samples.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator, Optional

import numpy as np

from .bitsource import DEFAULT_MASTER_SEED, draw_bits, make_stream
from .channel import (
    AWGN,
    ChannelSpec,
    apply_channel,
    complex_gaussian,
    ebno_to_noise_variance,
    realize_channel,
)
from .equalizer import channel_freq_response, zero_forcing
from .errors import ConfigError, IoError, SizeError
from .framing import OfdmConfig, remove_cyclic_prefix
from .metrics import CSV_COLUMNS, BerRecord, as_row, make_record
from .psk import count_psk_errors, map_psk
from .svgplot import emit_plot  # re-exported: plotting is part of the sweep surface
from .transform import unitary_dft, unitary_idft

# Kept importable from this module although the chain does not call them:
# the benchmark's trace (bench/run.py) wraps these names in this namespace.
from .framing import add_cyclic_prefix, serial_to_parallel  # noqa: F401
from .metrics import count_bit_errors  # noqa: F401
from .psk import demap_psk  # noqa: F401

#: FFT sizes a grid may sweep (``OfdmConfig`` takes any power of two).
SUPPORTED_FFT_SIZES = (64, 128, 256, 512)

#: Largest |Eb/No| of a finite grid point: the noise variance stays within
#: about 1e-101..1e99, where its conversion neither overflows nor underflows.
EBNO_LIMIT_DB = 1000.0

#: Most time-domain samples one chunk of repetitions may hold, which keeps a
#: chunk's arrays under about 1 MB; a longer repetition runs as a chunk alone.
_CHUNK_SAMPLES = 16_384


@dataclass(frozen=True)
class SweepGrid:
    """Cross product of OFDM configs x Eb/No points under one channel model.

    Cell ids are the lexicographic index over (fft_size, cp_fraction,
    ebno_db), with Eb/No varying fastest.  The field defaults are the
    defaults of every entry point (the CLI, the experiment script and
    ``run_cell``); the cyclic-prefix set is the reference experiment grid's.
    """

    fft_sizes: tuple[int, ...] = (64, 128, 256, 512)
    cp_fractions: tuple[Fraction, ...] = (
        Fraction(1, 2), Fraction(1, 4), Fraction(1, 16), Fraction(1, 32),
    )
    ebno_points_db: tuple[float, ...] = tuple(float(e) for e in range(0, 21, 2))
    channel: ChannelSpec = ChannelSpec(kind="awgn")
    modulation_order: int = 8
    master_seed: int = DEFAULT_MASTER_SEED
    max_bits_per_cell: int = 2_000_000
    target_errors: int = 100
    bit_budget: int = 1000
    use_equalizer: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "fft_sizes", tuple(int(n) for n in self.fft_sizes))
        object.__setattr__(
            self, "cp_fractions", tuple(Fraction(g) for g in self.cp_fractions)
        )
        object.__setattr__(
            self, "ebno_points_db", tuple(float(e) for e in self.ebno_points_db)
        )
        if not (self.fft_sizes and self.cp_fractions and self.ebno_points_db):
            raise ValueError("grid axes must be nonempty")
        # false for NaN too; +inf is the noiseless point
        if not all(abs(e) <= EBNO_LIMIT_DB or e == math.inf for e in self.ebno_points_db):
            raise ValueError(f"Eb/No points must be within +-{EBNO_LIMIT_DB:g} dB or +inf, "
                             f"got {self.ebno_points_db}")
        if self.max_bits_per_cell < 1 or self.target_errors < 1:
            raise ValueError("per-cell budgets must be >= 1")
        for n in self.fft_sizes:
            if n not in SUPPORTED_FFT_SIZES:
                raise SizeError(f"fft_size must be one of {SUPPORTED_FFT_SIZES}, got {n}")
            for g in self.cp_fractions:
                self._config(n, g)  # reject invalid (N, G) combinations up front

    def _config(self, fft_size: int, cp_fraction: Fraction) -> OfdmConfig:
        return OfdmConfig(
            fft_size=fft_size,
            cp_fraction=cp_fraction,
            modulation_order=self.modulation_order,
            bit_budget=self.bit_budget,
        )

    @property
    def n_cells(self) -> int:
        return len(self.fft_sizes) * len(self.cp_fractions) * len(self.ebno_points_db)

    def cells(self) -> Iterable[tuple[int, OfdmConfig, ChannelSpec, float]]:
        """Yield (cell_id, config, channel, ebno_db) in cell_id order."""
        cell_id = 0
        for n in self.fft_sizes:
            for g in self.cp_fractions:
                config = self._config(n, g)
                for ebno in self.ebno_points_db:
                    yield cell_id, config, self.channel, ebno
                    cell_id += 1


class SweepFailure(RuntimeError):
    """Raised when some cells failed; completed records are preserved."""

    def __init__(self, failures: list[tuple[int, str]], records: list[BerRecord]):
        self.failures = failures
        self.records = records
        detail = "; ".join(f"cell {cid}: {msg}" for cid, msg in failures)
        super().__init__(f"{len(failures)} cell(s) failed ({detail})")


class _Workspace:
    """Arrays for a chunk of up to ``capacity`` repetitions of ``n_bits`` bits.

    One workspace serves every chunk of a cell with that repetition size:
    the draws go into it and the chain works in it in place, so a chunk
    allocates nothing in proportion to its size.
    """

    def __init__(self, config: OfdmConfig, n_bits: int, capacity: int, noisy: bool):
        n_fft, cp_len = config.fft_size, config.cp_len
        self.n_bits = n_bits
        self.used = n_bits // config.bits_per_symbol
        self.n_frames = -(-self.used // n_fft)
        self.capacity = capacity
        frames = (capacity, self.n_frames)
        self.bits = np.empty((capacity, n_bits), dtype=np.uint8)
        # subcarrier grid: the mapped symbols, later the DFT output
        self.grid = np.empty(frames + (n_fft,), dtype=np.complex128)
        self.tx = np.empty(frames + (n_fft + cp_len,), dtype=np.complex128)
        self.noise = np.empty_like(self.tx) if noisy else None


def _run_chain_once(
    work: _Workspace,
    k: int,
    config: OfdmConfig,
    realizations: list,
    use_equalizer: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The full transmit/channel/receive chain for a chunk of k repetitions.

    Works on the first k rows of ``work``: the bits and the noise are drawn
    into it beforehand, and ``realizations`` holds the k channel draws of a
    fading cell (none for AWGN).  Every step works row by row, so a chunk
    gives the same result as its repetitions one at a time.

    Returns per-repetition (bit errors, zero-forcing clamps).
    """
    n_fft, cp_len, order = config.fft_size, config.cp_len, config.modulation_order
    bits, grid, tx = work.bits[:k], work.grid[:k], work.tx[:k]

    slots = grid.reshape(k, -1)
    slots[:, work.used:] = 0.0  # zero padding of the last OFDM symbol
    map_psk(bits, order, out=slots[:, :work.used])
    unitary_idft(grid, axis=-1, out=tx[..., cp_len:])
    tx[..., :cp_len] = tx[..., n_fft:]  # cyclic prefix: copy of the symbol tail

    for frames, real in zip(tx, realizations):
        apply_channel(frames, real)
    rx = tx if work.noise is None else np.add(work.noise[:k], tx, out=work.noise[:k])
    freq = unitary_dft(remove_cyclic_prefix(rx, n_fft, cp_len), axis=-1, out=grid)

    clamps = np.zeros(k, dtype=np.int64)
    if use_equalizer:
        # per repetition: a record counts only the kept ones' clamps
        for r, real in enumerate(realizations):
            freq[r], clamps[r] = zero_forcing(freq[r], channel_freq_response(real, n_fft))

    errors = count_psk_errors(freq.reshape(k, -1)[:, :work.used], bits, order)
    return errors, clamps


def run_cell(
    config: OfdmConfig,
    channel: ChannelSpec,
    ebno_db: float,
    seed: int,
    cell_id: int,
    *,
    target_errors: int = SweepGrid.target_errors,
    max_bits: int = SweepGrid.max_bits_per_cell,
    use_equalizer: bool = True,
    noise_scale: float = 1.0,
) -> BerRecord:
    """Measure one grid cell's BER.

    Repetitions of ``config.bit_budget`` bits run through the full chain,
    each under a fresh channel realization, until ``target_errors`` bit
    errors have accumulated or ``max_bits`` bits have been sent.
    ``noise_scale`` multiplies the calibrated noise variance (diagnostics
    hook; leave at 1.0 for honest measurements).

    Repetitions run in chunks (see the module docstring); the record is the
    one a repetition-at-a-time loop would give.
    """
    if target_errors < 1 or max_bits < 1:
        raise ValueError("target_errors and max_bits must be >= 1")
    stream = make_stream(seed, cell_id)
    b, n_fft, cp_len = config.bits_per_symbol, config.fft_size, config.cp_len
    budget = config.bit_budget
    sigma2 = noise_scale * ebno_to_noise_variance(
        ebno_db, config.modulation_order, n_fft, cp_len, channel.account_cp_overhead,
    )
    fading = channel.kind != AWGN
    work: Optional[_Workspace] = None
    bits_sent = bit_errors = zf_clamps = reps = 0
    chunk = 1
    while True:
        remaining = max_bits - bits_sent
        n_bits = max(b, (min(budget, remaining) // b) * b)
        if work is None or work.n_bits != n_bits:
            samples = -(-(n_bits // b) // n_fft) * (n_fft + cp_len)
            capacity = max(1, _CHUNK_SAMPLES // samples)
            work = _Workspace(config, n_bits, capacity, noisy=sigma2 > 0.0)
        # only repetitions of the same size share a chunk
        same_size = (remaining - budget) // n_bits + 1 if remaining >= budget else 1
        k = min(chunk, same_size, work.capacity)

        realizations = []
        for r in range(k):  # per-repetition draw order: bits, channel, noise
            work.bits[r] = draw_bits(stream, n_bits)
            if fading:
                realizations.append(realize_channel(channel, stream, work.n_frames))
            if work.noise is not None:
                noise = work.noise[r]
                complex_gaussian(stream, noise.size, sigma2, out=noise)

        errors, clamps = _run_chain_once(work, k, config, realizations, use_equalizer)
        for rep_errors, rep_clamps in zip(errors.tolist(), clamps.tolist()):
            bits_sent += n_bits
            bit_errors += rep_errors
            zf_clamps += rep_clamps
            reps += 1
            if bit_errors >= target_errors or bits_sent >= max_bits:
                # draws of the chunk's later repetitions are discarded
                summary = channel.summary() + ("" if use_equalizer else "/noeq")
                return make_record(
                    config, summary, ebno_db, bits_sent, bit_errors, zf_clamps, seed,
                    cell_id, equalizer="zf" if use_equalizer else "none",
                )
        # next chunk: the repetitions the error rate so far predicts are still
        # needed, but at most as many as have run, so the total at most doubles
        chunk = reps
        if bit_errors:
            chunk = min(chunk, -(-(target_errors - bit_errors) * reps // bit_errors))


_CellTask = tuple[OfdmConfig, ChannelSpec, float, int, int, int, int, bool]
_CellResult = tuple[int, Optional[BerRecord], Optional[str]]


def _cell_result(task: _CellTask) -> _CellResult:
    """Run one cell: (cell_id, record, None), or (cell_id, None, message) if it raised."""
    config, spec, ebno_db, seed, cell_id, target_errors, max_bits, use_equalizer = task
    try:
        record = run_cell(
            config, spec, ebno_db, seed, cell_id,
            target_errors=target_errors, max_bits=max_bits, use_equalizer=use_equalizer,
        )
    except Exception as exc:  # any cell failure; the other cells still run
        return cell_id, None, str(exc)
    return cell_id, record, None


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: the OFDMSIM_WORKERS env var overrides everything.

    A count below 1, given or from the variable, is a :class:`ConfigError`.
    """
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    env = os.environ.get("OFDMSIM_WORKERS")
    if not env:
        return workers or 1
    try:
        count = int(env)
    except ValueError:
        raise ConfigError(f"OFDMSIM_WORKERS must be an integer, got {env!r}") from None
    if count < 1:
        raise ConfigError(f"OFDMSIM_WORKERS must be >= 1, got {env!r}")
    return count


def _results(tasks: list[_CellTask], n_workers: int) -> Iterator[_CellResult]:
    """Each task's :func:`_cell_result`, in task order."""
    if n_workers == 1:
        yield from map(_cell_result, tasks)
        return
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        # a fixed chunk size: about four chunks per worker balance the load,
        # and each costs one round trip instead of one per cell
        yield from pool.map(_cell_result, tasks, chunksize=max(1, len(tasks) // (4 * n_workers)))


def run_grid(grid: SweepGrid, workers: Optional[int] = None) -> list[BerRecord]:
    """Run every cell of the grid; output is sorted by cell_id.

    Cells are independent; with ``workers > 1`` they run on a process pool
    of at most one worker per cell, sent to it in batches of about a quarter
    of each worker's share.  Worker count never changes any record.  If
    cells fail, the completed records are kept on the raised
    :class:`SweepFailure`; a worker that dies fails every cell whose result
    had not come back.
    """
    tasks = [
        (config, spec, ebno_db, grid.master_seed, cell_id,
         grid.target_errors, grid.max_bits_per_cell, grid.use_equalizer)
        for cell_id, config, spec, ebno_db in grid.cells()
    ]
    n_workers = min(resolve_workers(workers), len(tasks))
    records: list[BerRecord] = []
    failures: list[tuple[int, str]] = []
    try:
        for cell_id, record, message in _results(tasks, n_workers):
            if message is None:
                records.append(record)
            else:
                failures.append((cell_id, message))
    except BrokenProcessPool as exc:  # results come in task order: the rest are lost
        failures += [(task[4], str(exc)) for task in tasks[len(records) + len(failures):]]
    if failures:
        raise SweepFailure(failures, records)
    return records


_INT_COLUMNS = ("fft_size", "bits_sent", "bit_errors", "zf_clamps", "seed", "cell_id")
_FLOAT_COLUMNS = ("ebno_db", "ber", "ci_low", "ci_high")


def _format_cell(column: str, value: Any) -> str:
    if column in _FLOAT_COLUMNS:
        return f"{float(value):.17g}"
    return str(value)


def write_records(records: Iterable[Any], path: str, fmt: str = "csv") -> None:
    """Persist records as CSV or JSON with the fixed column schema.

    Floats carry 17 significant digits, so a write/read round trip is
    value-exact; cp_fraction is always the rational string (e.g. "1/4").
    """
    rows = [as_row(r) for r in records]
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    try:
        if fmt == "csv":
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(CSV_COLUMNS)
                for row in rows:
                    writer.writerow([_format_cell(c, row[c]) for c in CSV_COLUMNS])
        else:
            typed = [
                {c: float(f"{row[c]:.17g}") if c in _FLOAT_COLUMNS else row[c]
                 for c in CSV_COLUMNS}
                for row in rows
            ]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(typed, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise IoError(f"failed to write records to {path}: {exc}") from exc


def read_records(path: str, fmt: Optional[str] = None) -> list[dict[str, Any]]:
    """Read records back as typed row dicts (inverse of write_records)."""
    if fmt is None:
        fmt = "json" if str(path).endswith(".json") else "csv"
    try:
        if fmt == "csv":
            with open(path, newline="", encoding="utf-8") as fh:
                raw_rows = list(csv.DictReader(fh))
        else:
            with open(path, encoding="utf-8") as fh:
                raw_rows = json.load(fh)
    except OSError as exc:
        raise IoError(f"failed to read records from {path}: {exc}") from exc
    rows = []
    for raw in raw_rows:
        row: dict[str, Any] = {}
        for column in CSV_COLUMNS:
            value = raw[column]
            if column in _INT_COLUMNS:
                row[column] = int(value)
            elif column in _FLOAT_COLUMNS:
                row[column] = float(value)
            else:
                row[column] = str(value)
        rows.append(row)
    return rows

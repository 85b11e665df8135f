"""Experiment grid execution: Monte Carlo cells, persistence, and plots.

A sweep cell is identified by ``(master_seed, cell_id)`` and owns a private
random substream, so cells may run on any number of worker processes and
the output records are byte-identical regardless of scheduling.

Per-repetition draw order inside a cell (fixed for reproducibility):
information bits, then the fading channel (AWGN has none), then noise.
The noiseless (+inf Eb/No) point takes the same noise step as every other:
its zero-variance noise draws nothing and adds -0.0, which leaves each
sample as it was (:func:`~ofdmsim.channel.complex_gaussian`).

Repetitions run in chunks of windows.  A window is the OFDM symbols that
fit in ``_CHUNK_SAMPLES`` time-domain samples.  A repetition that fits in
a window shares a chunk with as many others of its size as the window
holds: the draws of every repetition in the chunk are made first, each
repetition's in the order above, into (k, ...) arrays (the fading
channels too, into the chunk's channel state, a row per repetition, not
an object per repetition); then the chain runs once on the whole chunk.
Every step after the draws takes the chunk at once -- the bits are
packed into PSK labels once, one channel call applies the channel and
returns the response it formed (the delay-line responses by one FFT of
the stacked taps), which the equalizer divides by, and flat gains and
the zero-forcing division are one broadcast operation each -- and gives
each element the same floating-point operation on the same operands as a
repetition on its own; only the delay-line convolution runs per
repetition.  Zero-forcing clamps are attributed to their repetitions from
the response.  An AWGN window asks its noise first: if the DFT of its kept
noise stays, on every subcarrier, inside a disk about the PSK point that
the point's decision sector contains
(:func:`~ofdmsim.psk.noise_keeps_decisions`), every count is 0 and the rest
of the chain does not run.  A longer repetition runs alone, window by
window: its channel is drawn once, then each window's bits and noise are
drawn and the chain runs on that window, the delay line carrying its
last samples into the next (and padding a signal shorter than its taps, so
that each sum is the one a convolution over the whole repetition makes).
Every repetition
draws its bits the same way, a window's at a time, from its bit source:
the cell's stream, or for a longer repetition the bits split off the
cell's stream where they would be drawn all at once
(:func:`~ofdmsim.bitsource.split_bits`), so the stream goes on to the
channel and the noise as if all of them had been drawn.  A window holds
whole bit-words (:data:`~ofdmsim.bitsource.WORD_BITS`), so the windows'
draws from the split give the bits of one draw.  The draws are the
repetition's own, in its order, and each window gives its elements what
the whole repetition would, so a record does not depend on the windows;
a cell's memory is about one window, and no draw is larger.  A repetition
size is planned once, in the workspace that serves it (``_Workspace``):
its windows, each with the PSK symbols sent in it, whether it runs alone,
and whether the receiver equalizes; the draws and the chain read that
plan.

The cell stops at the first repetition whose running totals reach
``target_errors`` or ``max_bits``, and the draws of the chunk's later
repetitions are discarded.  Because the stream is private to the cell,
those extra draws touch nothing else, and a record does not depend on how
the repetitions were chunked.  The first chunk is one repetition; each
later chunk holds the repetitions the error rate so far predicts are still
needed, at most as many as have already run (so with no errors yet the
total doubles), at most as many as one window holds, and only as many as
keep the repetition's size, which holds while that many bits remain.

The Eb/No cells of one (N, CP) config can run as a group, in lockstep.
Each round, every cell that has not stopped draws its next chunk exactly as
above, from its own stream and with its own noise variance; the round's
rows of one repetition size, a +inf cell's with the rest, are stacked and
run in passes of the chain of up to a window's capacity each; and as each
pass returns, its rows add to their own cells' totals, each cell applying
its own stop rule to its own rows (those after its stop, in this pass or a
later one of the round, are discarded).  Rows of different cells get the
operations they get alone, as rows of one cell do, so a group gives each
cell its own record, and a single cell is the group of one.  ``run_grid``
runs groups on a process pool of its own, longest first, one group per
task; with one worker it runs the cells one at a time.  The package
imports the numpy modules the chain uses (``numpy.random``,
``numpy.fft``) when it is imported, so fork-started workers begin with
them loaded.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Optional, Sequence, get_type_hints

import numpy as np

from .bitsource import (DEFAULT_MASTER_SEED, WORD_BITS, RngStream, check_key, draw_bits,
                        make_stream, split_bits)
from .channel import (
    AWGN,
    ChannelSpec,
    ChannelState,
    apply_channel,
    complex_gaussian,
    ebno_to_noise_variance,
    realize_channel,
)
from .equalizer import clamped, zero_forcing
from .errors import ConfigError, IoError, SizeError
from .framing import (OfdmConfig, as_axis, as_fraction, as_integer, as_number, as_switch,
                      remove_cyclic_prefix)
from .metrics import CSV_COLUMNS, BerRecord, make_record
from .psk import count_psk_errors, map_psk, noise_keeps_decisions, pack_labels
from .svgplot import emit_plot  # re-exported: plotting is part of the sweep surface
from .transform import unitary_dft, unitary_idft

# Kept importable from this module although the chain does not call them:
# the benchmark's trace (bench/run.py) wraps these names in this namespace.
from .channel import channel_freq_response  # noqa: F401
from .framing import add_cyclic_prefix, serial_to_parallel  # noqa: F401
from .metrics import count_bit_errors  # noqa: F401
from .psk import demap_psk  # noqa: F401

#: FFT sizes a grid may sweep (``OfdmConfig`` takes any power of two).
SUPPORTED_FFT_SIZES = (64, 128, 256, 512)

#: Largest |Eb/No| of a finite grid point: the noise variance stays within
#: about 1e-101..1e99, where its conversion neither overflows nor underflows.
EBNO_LIMIT_DB = 1000.0


def check_ebno(name: str, value: Any) -> float:
    """The Eb/No setting ``name``, in dB, as a float: a real number
    (:func:`~ofdmsim.framing.as_number`; a str or a bool is a ``TypeError``)
    within +-:data:`EBNO_LIMIT_DB`, or +inf, the noiseless point.  NaN, -inf
    and a finite value beyond the limit are a :class:`ConfigError` (a
    ``ValueError``) naming the setting and the value."""
    ebno_db = as_number(name, value)
    if not (abs(ebno_db) <= EBNO_LIMIT_DB or ebno_db == math.inf):  # NaN passes neither
        raise ConfigError(f"{name} must be within +-{EBNO_LIMIT_DB:g} dB or +inf, "
                          f"got {ebno_db}")
    return ebno_db


#: Most time-domain samples a window holds, which keeps the chain's arrays
#: under about 1 MB: a window is floor(_CHUNK_SAMPLES / (N+L)) OFDM symbols,
#: rounded down to whole bit-words (see _Workspace), a chunk is as many
#: whole repetitions as fit in one window, and a longer repetition runs
#: alone, one window at a time.
_CHUNK_SAMPLES = 16_384

_Cell = tuple[int, OfdmConfig, ChannelSpec, float]


@dataclass(frozen=True)
class SweepGrid:
    """Cross product of OFDM configs x Eb/No points under one channel model.

    Cell ids are the lexicographic index over (fft_size, cp_fraction,
    ebno_db), with Eb/No varying fastest.  The field defaults are the
    defaults of every entry point (the CLI, the experiment script and
    ``run_cell``); the cyclic-prefix set is the reference experiment grid's.
    Each field is judged when the grid is built, and a value of the wrong
    type is a ``TypeError`` naming the field: an axis is a list, a tuple or
    a 1-D numpy array, never a str or a scalar; the integer fields and FFT
    sizes take a numpy integer but not a float or a bool, and keep it as an
    int; a CP fraction is a rational, a float or its text, not a bool
    (:func:`~ofdmsim.framing.as_fraction`: a float means its decimal text,
    so 0.1 is 1/10); an Eb/No point is judged by :func:`check_ebno` and kept
    as a float; ``use_equalizer`` is a bool or a numpy bool, kept as a bool;
    and ``channel`` is a :class:`ChannelSpec`, which judges its own fields.
    ``master_seed`` is a stream key, in 0..2^64-1.  An empty axis, or one
    that repeats a value, is a ``ValueError`` naming it.
    """

    fft_sizes: tuple[int, ...] = (64, 128, 256, 512)
    cp_fractions: tuple[Fraction, ...] = (
        Fraction(1, 2), Fraction(1, 4), Fraction(1, 16), Fraction(1, 32),
    )
    ebno_points_db: tuple[float, ...] = tuple(float(e) for e in range(0, 21, 2))
    channel: ChannelSpec = ChannelSpec(kind=AWGN)
    modulation_order: int = 8
    master_seed: int = DEFAULT_MASTER_SEED
    max_bits_per_cell: int = 2_000_000
    target_errors: int = 100
    bit_budget: int = 1000
    use_equalizer: bool = True

    def __post_init__(self) -> None:
        for name, item in (("fft_sizes", as_integer), ("cp_fractions", as_fraction),
                           ("ebno_points_db", check_ebno)):
            axis = tuple(item(name, value) for value in as_axis(name, getattr(self, name)))
            if not axis:
                raise ValueError(f"{name} must not be empty")
            # a repeated value would run the same point twice under two cell ids
            if len(set(axis)) < len(axis):
                raise ValueError(f"{name} must not repeat a value, got "
                                 f"{', '.join(str(v) for v in axis)}")
            object.__setattr__(self, name, axis)
        # OfdmConfig judges which orders and budgets are valid; the grid keeps ints
        for name in ("modulation_order", "bit_budget"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        object.__setattr__(self, "master_seed", check_key("master_seed", self.master_seed))
        for name in ("max_bits_per_cell", "target_errors"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name), minimum=1))
        object.__setattr__(self, "use_equalizer", as_switch("use_equalizer", self.use_equalizer))
        if not isinstance(self.channel, ChannelSpec):
            raise TypeError(f"channel: expected a ChannelSpec, got {self.channel!r}")
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

    def cells(self) -> Iterable[_Cell]:
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
    """One group's plan and arrays for repetitions of ``n_bits`` bits of ``config``.

    The plan is made once, when the workspace is built: ``windows`` lists a
    repetition's windows in order, each as (its OFDM symbols, a slice of at
    most a window's frame count, and the PSK symbols the repetition sends
    in them); ``long`` is whether there is more than one, so that the
    repetition runs alone; and ``equalize`` is whether the receiver divides
    by the channel, ZF asked for and the channel fading.  A window's frame
    count is a multiple of WORD_BITS / gcd(WORD_BITS, N log2 M) (and never
    less), so every window but a repetition's last holds whole bit-words.

    The arrays hold one window of up to ``capacity`` repetitions.  Each row
    holds one repetition's bits of one window, one byte each, and the
    window's OFDM symbols, with their noise (``noise``, which every cell
    draws, a noiseless one its zero-variance -0.0).  A repetition that fits
    in a window has all of its bits and symbols there, and a chunk fills up
    to ``capacity`` rows.  A fading cell's channels are drawn into
    ``channel``, the chunk's :class:`~ofdmsim.channel.ChannelState`, a row
    per repetition (``None`` for AWGN).  One workspace serves every chunk of
    a group with that repetition size, whatever the cells' noise variances:
    the draws go into it and the chain works in it in place, so a chunk
    allocates nothing in proportion to its size, and a cell's memory is
    about one window, plus about 200 bytes of plan a window (20 kB for a
    2 Mbit single-carrier BPSK repetition, of 123 windows).
    """

    def __init__(self, config: OfdmConfig, channel: ChannelSpec, n_bits: int,
                 use_equalizer: bool):
        n_fft, cp_len, b = config.fft_size, config.cp_len, config.bits_per_symbol
        self.config = config
        self.n_bits = n_bits
        n_frames = _frames(config, n_bits)
        step = WORD_BITS // math.gcd(WORD_BITS, n_fft * b)
        window = _CHUNK_SAMPLES // (n_fft + cp_len)
        window = max(step, window - window % step)
        frames = min(window, n_frames)
        self.capacity = window // frames
        used = n_bits // b
        self.windows = [(slice(start, min(start + frames, n_frames)),
                         min(used - start * n_fft, frames * n_fft))
                        for start in range(0, n_frames, frames)]
        self.long = len(self.windows) > 1
        self.equalize = use_equalizer and channel.kind != AWGN
        shape = (self.capacity, frames)
        self.bits = np.empty((self.capacity, min(n_bits, frames * n_fft * b)), np.uint8)
        # the subcarrier grid holds the mapped symbols, later the DFT output
        self.grid = np.empty(shape + (n_fft,), np.complex128)
        self.tx = np.empty(shape + (n_fft + cp_len,), np.complex128)
        self.noise = np.empty(shape + (n_fft + cp_len,), np.complex128)
        self.channel = (None if channel.kind == AWGN
                        else ChannelState(channel, self.capacity, n_frames))


def _run_chain_once(work: _Workspace, k: int, window: slice,
                    used: int) -> tuple[np.ndarray, np.ndarray]:
    """The full transmit/channel/receive chain on one window of k repetitions.

    Works on OFDM symbols ``window`` of the first k rows of ``work``, which
    send ``used`` PSK symbols there (an entry of ``work.windows``): the
    bits, the channels of a fading cell and the window's noise are drawn
    into it beforehand.  The noise is always added; a noiseless row's
    -0.0 leaves its samples as they were.  The receiver divides by the
    channel where the plan says to (``work.equalize``).  Each step takes the
    whole chunk, and gives every element the operation it would get in its
    repetition alone, so a chunk gives the same result as its repetitions
    one at a time, and a repetition's windows the same as the whole
    repetition at once.

    An AWGN window (the plan applies no channel: ``work.channel`` is None)
    first transforms its kept noise into the subcarrier grid, which is
    scratch until the mapper fills it, and asks
    :func:`~ofdmsim.psk.noise_keeps_decisions` once, on the whole (k,
    frames, N) block, padding included: the receiver sees each sent symbol
    plus that noise, up to rounding.  If it holds, the window's counts are
    0 with no mapping, IDFT, receive DFT or decision, exactly the counts the
    chain gives (see there why); if not, the chain runs as it would without
    the test.  A fading window always runs the chain: it errs too often for
    the test to pay.

    Returns per-repetition (bit errors, zero-forcing clamps) of the window;
    the chunk's clamps are attributed to their rows from the response.
    """
    config = work.config
    n_fft, cp_len, order = config.fft_size, config.cp_len, config.modulation_order
    count = window.stop - window.start
    clamps = np.zeros(k, dtype=np.int64)
    # several rows only when the window holds whole repetitions, so these
    # views are contiguous and their reshapes write through
    grid, tx = work.grid[:k, :count], work.tx[:k, :count]
    if work.channel is None and noise_keeps_decisions(
            unitary_dft(work.noise[:k, :count, cp_len:], out=grid), order):
        return np.zeros(k, np.uint64), clamps
    # a row holds a whole repetition's bits, or a long one's bits of this window
    bits = work.bits[:k, :used * config.bits_per_symbol]

    slots = grid.reshape(k, -1)
    slots[:, used:] = 0.0  # zero padding of the repetition's last OFDM symbol
    labels = pack_labels(bits, order)
    map_psk(labels, order, out=slots[:, :used])
    unitary_idft(grid, out=tx[..., cp_len:])
    tx[..., :cp_len] = tx[..., n_fft:]  # cyclic prefix: copy of the symbol tail

    if work.channel is not None:  # the window's response, which ZF divides by
        response = apply_channel(tx, work.channel, n_fft, window)
    rx = np.add(work.noise[:k, :count], tx, out=work.noise[:k, :count])
    freq = unitary_dft(remove_cyclic_prefix(rx, n_fft, cp_len), out=grid)

    if work.equalize and zero_forcing(freq, response)[1]:  # equalizes freq in place
        # per repetition: a record counts only the kept ones' clamps
        bad = np.broadcast_to(clamped(response), freq.shape)
        clamps = np.count_nonzero(bad, axis=(1, 2))

    return count_psk_errors(freq.reshape(k, -1)[:, :used], labels, order), clamps


def _repetition_bits(config: OfdmConfig, remaining: int) -> int:
    """Bits of the next repetition of a cell that may still send ``remaining``:
    the bit budget, or only the bits still allowed near the cap, rounded down
    to a multiple of log2 M, and never fewer than log2 M."""
    b = config.bits_per_symbol
    return max(b, (min(config.bit_budget, remaining) // b) * b)


def _frames(config: OfdmConfig, n_bits: int) -> int:
    """OFDM symbols of a repetition of ``n_bits`` bits: its whole PSK symbols
    over N subcarriers, the last OFDM symbol zero-padded."""
    return -(-(n_bits // config.bits_per_symbol) // config.fft_size)


@dataclass(eq=False)
class _CellRun:
    """One cell of a group: its private stream, its noise variance, and its
    running totals, to which each of its rows adds as its batch returns,
    until it stops with its record."""

    cell_id: int
    ebno_db: float
    stream: RngStream
    sigma2: float
    bits_sent: int = 0
    bit_errors: int = 0
    zf_clamps: int = 0
    reps: int = 0
    chunk: int = 1  # repetitions in its next chunk, before the size and window caps
    record: Optional[BerRecord] = None


def _run_rows(work: _Workspace, rows: list[_CellRun]) -> tuple[np.ndarray, np.ndarray]:
    """Draw one repetition into each row of ``work``, row r from the stream of
    ``rows[r]``, and run the chain on them, window by window of the
    workspace's plan.

    Before the first window each row picks its bit source: the cell's
    stream, or for a long repetition, which runs alone in one row, the bits
    :func:`~ofdmsim.bitsource.split_bits` splits off it.  Each window, each
    repetition draws the window's bits from its source, then its channel
    (first window only, into its row of the workspace's channel state),
    then the window's noise at its cell's variance, as it would alone: a
    noiseless cell's draws nothing and fills its row with -0.0.  Returns
    per-row (bit errors, zero-forcing clamps).
    """
    sources = [split_bits(cell.stream, work.n_bits) if work.long else cell.stream
               for cell in rows]
    errors = clamps = 0
    for window, used in work.windows:  # one, unless the repetition runs alone
        frames = window.stop - window.start
        count = used * work.config.bits_per_symbol
        for r, (cell, source) in enumerate(zip(rows, sources)):
            draw_bits(source, count, out=work.bits[r, :count])
            if not window.start and work.channel is not None:
                realize_channel(work.channel, r, cell.stream)
            noise = work.noise[r, :frames]
            complex_gaussian(cell.stream, noise.size, cell.sigma2, out=noise)
        window_errors, window_clamps = _run_chain_once(work, len(rows), window, used)
        errors += window_errors
        clamps += window_clamps
    return errors, clamps


def _run_group(
    config: OfdmConfig,
    channel: ChannelSpec,
    points: Sequence[tuple[int, float]],
    seed: int,
    *,
    target_errors: int,
    max_bits: int,
    use_equalizer: bool,
) -> list[BerRecord]:
    """Measure the cells ``points``, (cell_id, ebno_db) pairs of one config, in lockstep.

    Each round, every cell that has not stopped draws its next chunk as it
    would alone; the round's rows of one repetition size, whatever their
    noise variance, are stacked, up to a window's capacity, into one chain
    call.  As each call returns, its rows add to their cells' totals in
    order, and a cell stops at the row that meets its stop rule; its later
    rows, in this batch or a later one of the stack, are the discarded
    draws.  A row gets the operations it gets alone, so the records, in the
    order of ``points``, are the ones :func:`run_cell` gives each cell.  The
    values come judged, by :func:`run_cell` or by the grid.
    """
    cells = [_CellRun(cell_id, ebno_db, make_stream(seed, cell_id),
                      ebno_to_noise_variance(ebno_db, config, channel))
             for cell_id, ebno_db in points]
    summary = channel.summary() + ("" if use_equalizer else "/noeq")
    works: dict[int, _Workspace] = {}
    live = cells
    while live:
        sizes = [_repetition_bits(config, max_bits - cell.bits_sent) for cell in live]
        # the round's workspaces: kept from the last round where the size is the same
        works = {n_bits: works.get(n_bits) or _Workspace(config, channel, n_bits, use_equalizer)
                 for n_bits in dict.fromkeys(sizes)}
        stacks: dict[int, list[_CellRun]] = {n_bits: [] for n_bits in works}
        for cell, n_bits in zip(live, sizes):
            # a repetition keeps its size while at least that many bits remain
            same_size = max(1, (max_bits - cell.bits_sent) // n_bits)
            stacks[n_bits] += [cell] * min(cell.chunk, same_size, works[n_bits].capacity)

        for n_bits, stack in stacks.items():
            work = works[n_bits]
            for start in range(0, len(stack), work.capacity):
                rows = stack[start:start + work.capacity]
                errors, clamps = _run_rows(work, rows)
                for cell, rep_errors, rep_clamps in zip(rows, errors.tolist(), clamps.tolist()):
                    if cell.record is not None:
                        continue  # a row after its cell's stop: its draws are discarded
                    cell.bits_sent += n_bits
                    cell.bit_errors += rep_errors
                    cell.zf_clamps += rep_clamps
                    cell.reps += 1
                    if cell.bit_errors >= target_errors or cell.bits_sent >= max_bits:
                        cell.record = make_record(config, summary, cell.ebno_db, cell.bits_sent,
                                                  cell.bit_errors, cell.zf_clamps, seed,
                                                  cell.cell_id)

        live = [cell for cell in live if cell.record is None]
        for cell in live:
            # next chunk: the repetitions the error rate so far predicts are
            # still needed, but at most as many as have run, so the total at
            # most doubles
            cell.chunk = cell.reps
            if cell.bit_errors:
                cell.chunk = min(cell.reps, -(-(target_errors - cell.bit_errors) * cell.reps
                                              // cell.bit_errors))
    return [cell.record for cell in cells]


def run_cell(
    config: OfdmConfig,
    channel: ChannelSpec,
    ebno_db: float,
    seed: int,
    cell_id: int,
    *,
    target_errors: int = SweepGrid.target_errors,
    max_bits: int = SweepGrid.max_bits_per_cell,
    use_equalizer: bool = SweepGrid.use_equalizer,
) -> BerRecord:
    """Measure one grid cell's BER.

    Repetitions run through the full chain, each under a fresh channel
    realization, until ``target_errors`` bit errors have accumulated or
    ``max_bits`` bits have been sent.  A repetition sends
    ``config.bit_budget`` bits rounded down to a multiple of log2 M, and
    never fewer than log2 M (999 bits for the default 8-PSK).  Near the cap
    a repetition sends only the bits still allowed, rounded the same way,
    so the final repetition of a capped cell is rounded up to log2 M bits,
    and the cell sends the first multiple of log2 M at or above
    ``max_bits``: 2 000 001 bits for a default cell.

    Repetitions run in chunks, and a long one in windows (see the module
    docstring); the record is the one a repetition-at-a-time loop would
    give.  A cell is the lockstep group of one.

    Each value is judged as a grid's is, before any draw: ``ebno_db`` by
    :func:`check_ebno` (kept as a float), ``target_errors`` and
    ``max_bits`` as integers of at least 1, ``use_equalizer`` as a switch
    (a bool or a numpy bool), and ``seed`` and ``cell_id`` as the stream
    keys of :func:`~ofdmsim.bitsource.make_stream`.  A value of the wrong
    type is a ``TypeError``, and one out of range a :class:`ConfigError`;
    each names its setting.
    """
    return _run_group(config, channel, [(cell_id, check_ebno("ebno_db", ebno_db))], seed,
                      target_errors=as_integer("target_errors", target_errors, minimum=1),
                      max_bits=as_integer("max_bits", max_bits, minimum=1),
                      use_equalizer=as_switch("use_equalizer", use_equalizer))[0]


_CellResult = tuple[int, Optional[BerRecord], Optional[str]]


def _cell_result(grid: SweepGrid, cell: _Cell) -> _CellResult:
    """One cell of ``grid``: (cell_id, record, None), or (cell_id, None, message) if it raised."""
    cell_id, config, spec, ebno_db = cell
    try:
        record = run_cell(config, spec, ebno_db, grid.master_seed, cell_id,
                          target_errors=grid.target_errors, max_bits=grid.max_bits_per_cell,
                          use_equalizer=grid.use_equalizer)
    except Exception as exc:  # any cell failure; the other cells still run
        return cell_id, None, str(exc)
    return cell_id, record, None


def _group_result(grid: SweepGrid, group: list[_Cell]) -> list[_CellResult]:
    """The :func:`_cell_result` of each cell of one config's group, run in lockstep.

    If the group raises, its cells run again one at a time, as groups of
    one, so that only a cell that raises fails.
    """
    _, config, spec, _ = group[0]
    try:
        records = _run_group(config, spec, [(cell_id, ebno) for cell_id, _, _, ebno in group],
                             grid.master_seed, target_errors=grid.target_errors,
                             max_bits=grid.max_bits_per_cell, use_equalizer=grid.use_equalizer)
    except Exception:  # find which cell failed
        return [_cell_result(grid, cell) for cell in group]
    return [(cell_id, record, None) for (cell_id, *_), record in zip(group, records)]


def check_workers(workers: int) -> int:
    """``workers`` as an int, judged as a grid's counts are (a numpy integer is
    kept as an int, and a float or a bool is a ``TypeError`` naming it), or a
    :class:`ConfigError` if it is below 1."""
    return as_integer("workers", workers, minimum=1)


def _tasks(grid: SweepGrid, cells: list[_Cell], workers: int) -> list[list[_Cell]]:
    """The pool's tasks, each a lockstep group of one config's cells, longest first.

    A task is a config's cells, unless there are fewer configs than
    workers: then each config's cells are dealt, in turn, into enough
    groups to give every worker a task.  The tasks are ranked by the
    samples of one repetition of each of their cells.
    """
    groups = [list(group) for _, group in itertools.groupby(cells, key=operator.itemgetter(1))]
    parts = -(-workers // len(groups))
    tasks = [group[i::parts] for group in groups for i in range(min(parts, len(group)))]

    def samples(task: list[_Cell]) -> int:  # (N+L) * frames of each cell's first repetition
        config = task[0][1]
        n_bits = _repetition_bits(config, grid.max_bits_per_cell)
        return len(task) * (config.fft_size + config.cp_len) * _frames(config, n_bits)

    tasks.sort(key=samples, reverse=True)
    return tasks


def _pool_results(grid: SweepGrid, cells: list[_Cell], workers: int) -> list[_CellResult]:
    """Each cell's result, its lockstep group run on a process pool, one group per task.

    The pool has at most one worker per task.  A worker that dies fails
    every cell whose group had not come back.  The pool's modules load here,
    so that a run without one never loads them, and before the pool forks,
    so that its workers start with them.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    tasks = _tasks(grid, cells, workers)
    results: list[_CellResult] = []
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = [pool.submit(_group_result, grid, task) for task in tasks]
        for task, future in zip(tasks, futures):
            try:
                results += future.result()
            except BrokenProcessPool as exc:
                results += [(cell_id, None, str(exc)) for cell_id, *_ in task]
    return results


def run_grid(grid: SweepGrid, workers: int = 1) -> list[BerRecord]:
    """Run every cell of the grid; output is sorted by cell_id.

    Cells are independent.  With ``workers`` 1 they run one at a time, in
    cell order.  With more, the Eb/No cells of each (N, CP) config form a
    group that runs in lockstep (split further when there are fewer configs
    than workers), and the groups run on a process pool of this call, of at
    most one worker per group.  The count is the caller's alone (an
    integer; a count below 1 is a :class:`ConfigError`), and it never
    changes any record.  If cells fail, the completed records are kept on
    the raised :class:`SweepFailure`; a worker that dies fails every cell
    whose group had not come back.
    """
    n_workers = check_workers(workers)
    cells = list(grid.cells())
    if n_workers == 1:
        results = [_cell_result(grid, cell) for cell in cells]
    else:
        results = sorted(_pool_results(grid, cells, n_workers), key=operator.itemgetter(0))
    records = [record for _, record, message in results if message is None]
    failures = [(cell_id, message) for cell_id, _, message in results if message is not None]
    if failures:
        raise SweepFailure(failures, records)
    return records


#: Each record column's type, from :class:`BerRecord`'s annotations.
_COLUMN_TYPES = get_type_hints(BerRecord)


def _typed(row: dict[str, Any]) -> dict[str, Any]:
    """A record's columns, in :data:`CSV_COLUMNS` order, each as its column type."""
    return {c: _COLUMN_TYPES[c](row[c]) for c in CSV_COLUMNS}


def _format_cell(value: Any) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def write_records(records: Iterable[BerRecord], path: str, fmt: str = "csv") -> None:
    """Persist :class:`BerRecord` records as CSV or JSON with the fixed column schema.

    Each column is written as its column type (an int Eb/No of a record
    built by hand as a float).  Floats carry 17 significant
    digits, so a write/read round trip is value-exact; cp_fraction is
    always the rational string (e.g. "1/4").
    """
    rows = [_typed(r.row()) for r in records]
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    try:
        if fmt == "csv":
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(CSV_COLUMNS)
                for row in rows:
                    writer.writerow([_format_cell(value) for value in row.values()])
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(rows, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise IoError(f"failed to write records to {path}: {exc}") from exc


def records_format(path: str) -> str:
    """The format a records file's name gives it: "json" if the name ends in
    .json, else "csv"."""
    return "json" if str(path).endswith(".json") else "csv"


def read_records(path: str) -> list[dict[str, Any]]:
    """Read records back as typed row dicts (inverse of write_records), in the
    format the file's name gives it (:func:`records_format`)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            raw_rows = json.load(fh) if records_format(path) == "json" else csv.DictReader(fh)
            return [_typed(raw) for raw in raw_rows]
    except OSError as exc:
        raise IoError(f"failed to read records from {path}: {exc}") from exc

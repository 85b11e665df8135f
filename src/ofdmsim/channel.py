"""Channel models: AWGN, flat block fading, and tapped-delay-line multipath.

Conventions
-----------
Unit mean symbol energy (Es = 1) is assumed throughout, which the unitary
transforms preserve sample-by-sample.  ``ebno_to_noise_variance`` converts
an Eb/No point into the total complex noise variance per sample::

    sigma^2 = 1 / (b * 10^(ebno_db/10)),   b = log2(M)

optionally scaled by (N+L)/N when the cyclic-prefix overhead is charged
against the energy budget.  Each real/imaginary noise component carries
sigma^2 / 2.

Fading gains are normalized to unit mean power: a flat gain is
``(g1 + i*g2)/sqrt(2)`` (Rayleigh magnitude, E|h|^2 = 1) and delay-line tap
``l`` is ``(g1 + i*g2) * sqrt(p_l / 2)`` for a power-delay profile summing
to one.

This module decides which channels exist (:data:`KINDS`) and is the only
code that draws or applies one.  Channels are fading-only: an AWGN cell
has no channel step, and its only impairment is the noise.  The chain
works on a chunk of repetitions at once, and its fading channels are one
:class:`ChannelState`, stacked arrays with a row per repetition:
:func:`realize_channel` draws one repetition's whole channel into its row
(one flat gain per OFDM symbol, or one set of delay-line taps,
quasi-static over the repetition's burst of symbols).  The chain makes one
channel call per window of OFDM symbols (or per whole repetition):
:func:`apply_channel` applies the chunk's channels for the window in place
to its ``(k, frames, N+L)`` block and returns the response it formed with
:func:`channel_freq_response` from the stacked rows, which a flat channel
multiplies by and the receiver equalizes with.  Noise is drawn
separately, only through :func:`complex_gaussian`, which gives the
noiseless point zero-variance noise that adds nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bitsource import RngStream
from .framing import OfdmConfig, as_axis, as_integer, as_number, as_switch

AWGN = "awgn"
FLAT = "flat"
TDL = "tdl"

#: Every channel kind a :class:`ChannelSpec` may name.
KINDS = (AWGN, FLAT, TDL)

#: Default multipath profile: an exponential power-delay profile of this
#: many taps, decaying this many dB per tap (see :func:`exponential_pdp`).
DEFAULT_TDL_LEN = 9
DEFAULT_TDL_DECAY_DB = 1.0


@dataclass(frozen=True)
class ChannelSpec:
    """Which channel to simulate and how to calibrate its noise.

    ``kind`` is one of :data:`KINDS`, a str.  ``taps`` is the power-delay
    profile for the tapped delay line (must sum to 1): a list, a tuple or a
    1-D numpy array of real tap powers, kept as a tuple of floats; the
    channel memory is ``len(taps) - 1``.  ``account_cp_overhead`` is a bool
    or a numpy bool, kept as a bool.  A value of the wrong type is a
    ``TypeError`` naming the setting as a config file does (``channel``,
    ``tdl_taps``, ``account_cp_overhead``).
    """

    kind: str
    taps: Optional[Sequence[float]] = None
    account_cp_overhead: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str):
            raise TypeError(f"channel: expected a string, got {self.kind!r}")
        if self.kind not in KINDS:
            raise ValueError(f"channel kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "account_cp_overhead",
                           as_switch("account_cp_overhead", self.account_cp_overhead))
        if self.kind == TDL:
            taps = () if self.taps is None else tuple(
                as_number("tdl_taps", p) for p in as_axis("tdl_taps", self.taps))
            if not taps:
                raise ValueError("tdl channel requires a power-delay profile")
            if not all(0.0 <= p < math.inf for p in taps):
                raise ValueError(f"tap powers must be finite and nonnegative, got {taps}")
            if abs(sum(taps) - 1.0) > 1e-12:
                raise ValueError(f"tap powers must sum to 1, got {sum(taps)!r}")
            object.__setattr__(self, "taps", taps)
        elif self.taps is not None:
            raise ValueError(f"{self.kind} channel takes no taps")

    def summary(self) -> str:
        """Compact one-token description used in output records."""
        if self.kind == TDL:
            powers = ";".join(f"{p:.6g}" for p in self.taps)
            return f"tdl:{powers}"
        return self.kind


class ChannelState:
    """The fading channels of a chunk of up to ``rows`` repetitions of
    ``n_frames`` OFDM symbols each, one repetition's per row (AWGN has none).

    :func:`realize_channel` draws row r, repetition r's channel: for
    :data:`FLAT`, row r of ``gains``, a ``(rows, n_frames)`` array with the
    gain of each OFDM symbol; for :data:`TDL`, row r of ``taps``, a
    ``(rows, L+1)`` array of delay-line taps, each row scaled by
    ``amplitudes``, the sqrt(p_l) of the profile, computed once here and not
    per row.  ``n_frames`` only sizes ``gains``: how a repetition splits
    into windows is the caller's plan, not the state's.  ``carry`` is the
    delay line's contents after the last :func:`apply_channel` call: a
    ``(k, L)`` array of the last pre-channel samples that call's k rows
    passed through (fewer if fewer have passed since the repetition's first
    window), or ``None`` before any call.  Only the next window of the same
    repetition reads it; a window that starts a repetition ignores it.  An
    AWGN spec has no state: a ``ValueError``.
    """

    def __init__(self, spec: ChannelSpec, rows: int, n_frames: int):
        if spec.kind not in (FLAT, TDL):
            raise ValueError(f"{spec.kind} has no channel realization")
        self.kind = spec.kind
        self.gains = self.taps = self.amplitudes = self.carry = None
        if spec.kind == FLAT:
            self.gains = np.empty((rows, n_frames), dtype=np.complex128)
        else:
            self.amplitudes = np.sqrt(np.asarray(spec.taps, dtype=np.float64))
            self.taps = np.empty((rows, self.amplitudes.size), dtype=np.complex128)


def ebno_to_noise_variance(ebno_db: float, config: OfdmConfig, spec: ChannelSpec) -> float:
    """Total complex noise variance per sample of ``config`` at an Eb/No point under ``spec``."""
    sigma2 = 1.0 / (config.bits_per_symbol * 10.0 ** (ebno_db / 10.0))
    if spec.account_cp_overhead:
        sigma2 *= (config.fft_size + config.cp_len) / config.fft_size
    return sigma2


def exponential_pdp(length: int, decay_db_per_tap: float) -> np.ndarray:
    """Exponentially decaying power-delay profile, normalized to sum 1.

    ``length`` and ``decay_db_per_tap`` are the ``tdl_len`` and
    ``tdl_decay_db`` settings, an integer and a real number (numpy's too,
    but not a bool or a str; anything else is a ``TypeError``), and a
    ``ValueError`` names the one at fault: a length below 1, a non-finite
    decay, or a decay so steeply negative that the profile overflows
    float64.
    """
    length = as_integer("tdl_len", length, minimum=1)
    decay_db_per_tap = as_number("tdl_decay_db", decay_db_per_tap)
    if not math.isfinite(decay_db_per_tap):
        raise ValueError(f"tdl_decay_db must be finite, got {decay_db_per_tap}")
    with np.errstate(over="ignore"):  # an overflowed profile is rejected below
        powers = 10.0 ** (-decay_db_per_tap * np.arange(length) / 10.0)
        total = powers.sum()
    if not math.isfinite(total):
        raise ValueError(f"tdl_decay_db {decay_db_per_tap} overflows float64 "
                         f"over {length} taps")
    return powers / total


def complex_gaussian(
    stream: RngStream, count: int, variance: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """i.i.d. circular complex Gaussians of total variance ``variance`` each.

    Consecutive standard normals of ``stream.rng`` form the (real,
    imaginary) pairs: they are drawn into the complex array's float view
    and scaled in place.  ``out``, a C-contiguous complex128 array of
    ``count`` elements in any shape, receives them; the values are the
    ones the allocating form returns.  A variance of 0 (the noiseless
    point) draws nothing from the stream and writes -0.0 to both parts,
    through the float view (``complex(-0.0)`` has a +0.0 imaginary part):
    -0.0 is the IEEE 754 additive identity, so ``x + out`` is ``x`` bit for
    bit, signed zeros included, and noiseless noise is added like any other.
    """
    if out is None:
        out = np.empty(count, dtype=np.complex128)
    elif out.size != count:
        raise ValueError(f"out holds {out.size} values, not {count}")
    g = out.view(np.float64)
    if not variance:
        g.fill(-0.0)
        return out
    stream.rng.standard_normal(out=g)
    g *= math.sqrt(variance / 2.0)
    return out


def realize_channel(state: ChannelState, row: int, stream: RngStream) -> ChannelState:
    """Draw one fading repetition's channel into row ``row`` of ``state``; returns ``state``.

    Flat fading draws one gain per OFDM symbol; the delay line draws one set
    of taps for the whole burst, tap l scaled by ``sqrt(p_l)``
    (``state.amplitudes``).  The draws and their operations
    are the ones of the repetition on its own, whichever row takes them.
    """
    if state.kind == FLAT:
        complex_gaussian(stream, state.gains.shape[1], 1.0, out=state.gains[row])
    else:
        taps = complex_gaussian(stream, state.taps.shape[1], 1.0, out=state.taps[row])
        taps *= state.amplitudes
    return state


def apply_channel(
    frames: np.ndarray,
    state: ChannelState,
    fft_size: int,
    window: slice = slice(None),
) -> np.ndarray:
    """Pass OFDM symbols ``window`` of a chunk of repetitions through their channels, in place.

    ``frames`` is the chunk's ``(k, frames, N+L)`` block, and row r of it
    takes row r of ``state``.  A row holds the whole repetition by default,
    or one window of it, the windows passed in order.  Returns the window's
    response, the :func:`channel_freq_response` the receiver equalizes
    with.  A flat gain is its own response, so flat fading multiplies the
    chunk by the response in one broadcast multiply.  The delay line does
    not use the response, which holds only once the cyclic prefix is
    removed: it applies LINEAR convolution with the taps over a
    repetition's concatenated frames, truncated to their length, so the
    first taps of each frame see the spill-over from the preceding samples
    -- exactly the interference a sufficient cyclic prefix absorbs.  It
    runs row by row, each row one ``np.convolve``.  Every call keeps each
    row's last ``memory`` pre-channel samples (fewer if fewer have passed)
    in ``state.carry``.  The line starts silent at the repetition's first
    symbol (a ``window.start`` of 0 or None), whatever carry an earlier
    repetition left; a later window is convolved after the carry, and only
    the outputs after the carry are kept, which are the ones one
    convolution over the whole repetition gives, bit for bit: a signal
    shorter than the taps is zero-padded to their length first.  No noise
    is added.
    """
    if frames.size == 0:
        raise ValueError("frames must be nonempty")
    k = len(frames)
    held = len(state.gains if state.kind == FLAT else state.taps)
    if k > held:
        raise ValueError(f"{k} repetitions, but the channel state holds {held}")
    response = channel_freq_response(state, fft_size, window, k)
    if state.kind == FLAT:
        frames *= response
        return response
    carry = state.carry if window.start else None  # a repetition's first window starts silent
    before = 0 if carry is None else carry.shape[1]
    kept = min(state.taps.shape[1] - 1, before + frames[0].size)
    state.carry = np.empty((k, kept), dtype=np.complex128)
    for r, (row, taps) in enumerate(zip(frames, state.taps)):
        block = row.ravel()
        signal = np.concatenate((carry[r], block)) if before else block
        state.carry[r] = signal[signal.size - kept:]
        if signal.size < taps.size:  # else np.convolve swaps them and sums in another order
            signal = np.pad(signal, (0, taps.size - signal.size))
        row[...] = np.convolve(signal, taps)[before:before + block.size].reshape(row.shape)
    return response


def channel_freq_response(
    state: ChannelState, fft_size: int, window: slice = slice(None), rows: Optional[int] = None
) -> np.ndarray:
    """Subcarrier response of a chunk's channels, broadcastable over its ``(k, frames, N)`` grid.

    ``state`` and ``window`` are as in :func:`apply_channel`, which forms
    the response of its k rows with this function and returns it; ``rows``
    is k, all of the state's rows by default.  A flat gain is its own
    response: a ``(k, frames, 1)`` view of the state's gains, a gain per
    OFDM symbol, which :func:`apply_channel` applies as it is.  The delay
    line gives the plain (non-unitary) DFT of the zero-padded taps, one FFT
    of the chunk's ``(k, L+1)`` taps as a ``(k, 1, N)`` array -- that is
    the gain the payload subcarriers actually see when the cyclic prefix
    turns the delay line into a circular convolution, given the simulator's
    unitary transform pair.  AWGN has no state, so no response.
    """
    if state.kind == FLAT:
        return state.gains[:rows, window, None]
    return np.fft.fft(state.taps[:rows], n=fft_size)[:, None, :]

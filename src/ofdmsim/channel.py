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
code that draws or applies one.  Realizations are fading-only: an AWGN
cell has no channel step, and its only impairment is the noise.  One
:class:`ChannelRealization` is one fading repetition's whole channel, and
:func:`realize_channel` draws it (one flat gain per OFDM symbol, or one set
of delay-line taps, quasi-static over the repetition's burst of symbols).
The chain works on a chunk of repetitions at once, and makes one channel
call per window of OFDM symbols (or per whole repetition):
:func:`apply_channel` applies the chunk's realizations for the window in
place to its ``(k, frames, N+L)`` block and returns the response it
formed with :func:`channel_freq_response`, which a flat channel
multiplies by and the receiver equalizes with.  Noise is drawn
separately, only through :func:`complex_gaussian`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass
class ChannelRealization:
    """One fading repetition's channel draw (AWGN has none).

    ``kind`` is :data:`FLAT`, with ``gains`` the gain of each OFDM symbol,
    or :data:`TDL`, with ``taps`` the delay-line taps.  ``carry`` is the
    delay line's contents between windows of the repetition: the last
    ``len(taps) - 1`` pre-channel samples :func:`apply_channel` has passed
    through it (fewer if fewer have passed).
    """

    kind: str
    gains: Optional[np.ndarray] = None
    taps: Optional[np.ndarray] = None
    carry: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


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
    ones the allocating form returns.
    """
    if out is None:
        out = np.empty(count, dtype=np.complex128)
    elif out.size != count:
        raise ValueError(f"out holds {out.size} values, not {count}")
    g = out.view(np.float64)
    stream.rng.standard_normal(out=g)
    g *= math.sqrt(variance / 2.0)
    return out


def realize_channel(spec: ChannelSpec, stream: RngStream, n_frames: int) -> ChannelRealization:
    """Draw the fading channel of one repetition of ``n_frames`` OFDM symbols.

    Flat fading draws one gain per symbol; the delay line draws one set of
    taps for the whole burst.  AWGN has no channel step, so it has no
    realization: a ``ValueError``.
    """
    if spec.kind == FLAT:
        return ChannelRealization(kind=FLAT, gains=complex_gaussian(stream, n_frames, 1.0))
    if spec.kind != TDL:
        raise ValueError(f"{spec.kind} has no channel realization")
    powers = np.asarray(spec.taps, dtype=np.float64)
    taps = complex_gaussian(stream, powers.size, 1.0) * np.sqrt(powers)
    return ChannelRealization(kind=TDL, taps=taps)


def apply_channel(
    frames: np.ndarray,
    reals: Sequence[ChannelRealization],
    fft_size: int,
    window: slice = slice(None),
) -> np.ndarray:
    """Pass OFDM symbols ``window`` of a chunk of repetitions through their channels, in place.

    ``frames`` is the chunk's ``(k, frames, N+L)`` block and ``reals`` its
    k realizations, one per row, all of one kind.  A row holds the whole
    repetition by default, or one window of it, the windows passed in
    order.  Returns the window's response, the
    :func:`channel_freq_response` the receiver equalizes with.  A flat gain
    is its own response, so flat fading multiplies the chunk by the
    response in one broadcast multiply.  The delay line does not use the
    response, which holds only once the cyclic prefix is removed: it
    applies LINEAR convolution with the taps over a repetition's
    concatenated frames, truncated to their length, so the first taps of
    each frame see the spill-over from the preceding samples -- exactly the
    interference a sufficient cyclic prefix absorbs.  It runs row by row,
    each row one ``np.convolve``.  The line starts silent at the
    repetition's first symbol; a later window is convolved after the carry
    (the previous window's last ``memory`` pre-channel samples), and only
    the outputs after the carry are kept, which are the ones one convolution
    over the whole repetition gives.  No noise is added.
    """
    if frames.size == 0:
        raise ValueError("frames must be nonempty")
    if len(reals) != len(frames):
        raise ValueError(f"{len(reals)} realizations for {len(frames)} repetitions")
    response = channel_freq_response(reals, fft_size, window)
    if reals[0].kind == FLAT:
        frames *= response
        return response
    for row, real in zip(frames, reals):
        block = row.ravel()
        carry = real.carry if window.start else block[:0]
        signal = np.concatenate((carry, block)) if carry.size else block
        real.carry = signal[max(signal.size - (real.taps.size - 1), 0):].copy()
        out = np.convolve(signal, real.taps)[carry.size:signal.size]
        row[...] = out.reshape(row.shape)
    return response


def channel_freq_response(
    reals: Sequence[ChannelRealization], fft_size: int, window: slice = slice(None)
) -> np.ndarray:
    """Subcarrier response of a chunk's channels, broadcastable over its ``(k, frames, N)`` grid.

    ``reals`` and ``window`` are as in :func:`apply_channel`, which forms
    the response with this function and returns it.  A flat gain is its own
    response: a ``(k, frames, 1)`` array, a gain per OFDM symbol, which
    :func:`apply_channel` applies as it is.  The delay line
    gives the plain (non-unitary) DFT of the zero-padded taps, one FFT of
    the chunk's ``(k, L+1)`` taps as a ``(k, 1, N)`` array -- that is the
    gain the payload subcarriers actually see when the cyclic prefix turns
    the delay line into a circular convolution, given the simulator's
    unitary transform pair.  AWGN has no realization, so no response.
    """
    if reals[0].kind == FLAT:
        return np.array([real.gains[window] for real in reals])[..., None]
    return np.fft.fft(np.array([real.taps for real in reals]), n=fft_size)[:, None, :]

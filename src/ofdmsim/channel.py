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

This module is the only code that draws or applies a channel.  One
:class:`ChannelRealization` is one repetition's whole channel:
:func:`realize_channel` draws it (one flat gain per OFDM symbol, or one set
of delay-line taps, quasi-static over the repetition's burst of symbols),
:func:`apply_channel` applies it in place to that repetition's
``(frames, N+L)`` block, whole or a window of OFDM symbols at a time, and
:func:`channel_freq_response` gives the receiver its response for the same
window.  Noise is drawn separately, only through :func:`complex_gaussian`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bitsource import RngStream
from .framing import OfdmConfig

AWGN = "awgn"
FLAT = "flat"
TDL = "tdl"

_KINDS = (AWGN, FLAT, TDL)

#: Default multipath profile: an exponential power-delay profile of this
#: many taps, decaying this many dB per tap (see :func:`exponential_pdp`).
DEFAULT_TDL_LEN = 9
DEFAULT_TDL_DECAY_DB = 1.0


@dataclass(frozen=True)
class ChannelSpec:
    """Which channel to simulate and how to calibrate its noise.

    ``taps`` is the power-delay profile for the tapped delay line (must sum
    to 1); the channel memory is ``len(taps) - 1``.
    """

    kind: str
    taps: Optional[tuple[float, ...]] = None
    account_cp_overhead: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"channel kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == TDL:
            if not self.taps:
                raise ValueError("tdl channel requires a power-delay profile")
            taps = tuple(float(p) for p in self.taps)
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
    """One repetition's channel draw.

    ``gains`` holds the flat-fading gain of each OFDM symbol and ``taps``
    the delay-line taps; an AWGN realization carries neither.  ``carry`` is
    the delay line's contents between windows of the repetition: the last
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
    """Exponentially decaying power-delay profile, normalized to sum 1."""
    if length < 1 or not math.isfinite(decay_db_per_tap):
        raise ValueError(f"need a length >= 1 and a finite decay, got {length}, "
                         f"{decay_db_per_tap}")
    powers = 10.0 ** (-decay_db_per_tap * np.arange(length) / 10.0)
    return powers / powers.sum()


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
    g *= np.sqrt(variance / 2.0)
    return out


def realize_channel(spec: ChannelSpec, stream: RngStream, n_frames: int) -> ChannelRealization:
    """Draw the channel of one repetition of ``n_frames`` OFDM symbols.

    Flat fading draws one gain per symbol; the delay line draws one set of
    taps for the whole burst; AWGN draws nothing.
    """
    if spec.kind == AWGN:
        return ChannelRealization(kind=AWGN)
    if spec.kind == FLAT:
        return ChannelRealization(kind=FLAT, gains=complex_gaussian(stream, n_frames, 1.0))
    powers = np.asarray(spec.taps, dtype=np.float64)
    taps = complex_gaussian(stream, powers.size, 1.0) * np.sqrt(powers)
    return ChannelRealization(kind=TDL, taps=taps)


def apply_channel(
    frames: np.ndarray, real: ChannelRealization, window: slice = slice(None)
) -> np.ndarray:
    """Pass OFDM symbols ``window`` of one repetition through ``real``, in place.

    ``frames`` is their ``(frames, N+L)`` block: the whole repetition by
    default, or one window of it, the windows passed in order.  Flat fading
    scales each frame by its gain.  The delay line applies LINEAR
    convolution over the repetition's concatenated frames, truncated to
    their length, so the first taps of each frame see the spill-over from
    the preceding samples -- exactly the interference a sufficient cyclic
    prefix absorbs.  The line starts silent at the repetition's first
    symbol; a later window is convolved after the carry (the previous
    window's last ``memory`` pre-channel samples), and only the outputs
    after the carry are kept, which are the ones one convolution over the
    whole repetition gives.  No noise is added.  Returns ``frames``.
    """
    if frames.size == 0:
        raise ValueError("frames must be nonempty")
    if real.kind == FLAT:
        frames *= real.gains[window, None]
    elif real.kind == TDL:
        block = frames.ravel()
        carry = real.carry if window.start else block[:0]
        signal = np.concatenate((carry, block)) if carry.size else block
        real.carry = signal[max(signal.size - (real.taps.size - 1), 0):].copy()
        out = np.convolve(signal, real.taps)[carry.size:signal.size]
        frames[...] = out.reshape(frames.shape)
    return frames


def channel_freq_response(
    real: ChannelRealization, fft_size: int, window: slice = slice(None)
) -> np.ndarray:
    """Subcarrier response of one repetition's channel, broadcastable over its frames.

    ``window`` selects OFDM symbols as in :func:`apply_channel`.  A flat
    gain is its own response: one ``(frames, 1)`` column, a gain per OFDM
    symbol.  The delay line gives the plain (non-unitary) DFT of the
    zero-padded taps -- that is the gain the payload subcarriers actually
    see when the cyclic prefix turns the delay line into a circular
    convolution, given the simulator's unitary transform pair.  AWGN
    realizations yield the all-ones response.
    """
    if real.kind == AWGN:
        return np.ones(fft_size, dtype=np.complex128)
    if real.kind == FLAT:
        return real.gains[window, None]
    return np.fft.fft(real.taps, n=fft_size)

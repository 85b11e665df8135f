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
to one.  Gains are quasi-static: one realization applies to everything
passed into a single ``apply_channel`` call, and callers control the
redraw granularity (per OFDM symbol for flat fading, per repetition burst
for the delay line).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bitsource import RngStream, draw_gaussian

AWGN = "awgn"
FLAT = "flat"
TDL = "tdl"

_KINDS = (AWGN, FLAT, TDL)


@dataclass(frozen=True)
class ChannelSpec:
    """Which channel to simulate and how to calibrate its noise.

    ``taps`` is the power-delay profile for the tapped delay line (must sum
    to 1); the channel memory is ``len(taps) - 1``.  ``ebno_db`` is the
    per-information-bit SNR of the cell using this spec.
    """

    kind: str
    taps: Optional[tuple[float, ...]] = None
    ebno_db: float = 0.0
    account_cp_overhead: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"channel kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == TDL:
            if not self.taps:
                raise ValueError("tdl channel requires a power-delay profile")
            taps = tuple(float(p) for p in self.taps)
            if any(p < 0 for p in taps):
                raise ValueError(f"tap powers must be nonnegative, got {taps}")
            if abs(sum(taps) - 1.0) > 1e-12:
                raise ValueError(f"tap powers must sum to 1, got {sum(taps)!r}")
            object.__setattr__(self, "taps", taps)
        elif self.taps is not None:
            raise ValueError(f"{self.kind} channel takes no taps")

    @property
    def memory(self) -> int:
        """Index of the last tap (0 for memoryless channels)."""
        return len(self.taps) - 1 if self.kind == TDL else 0

    def summary(self) -> str:
        """Compact one-token description used in output records."""
        if self.kind == TDL:
            powers = ";".join(f"{p:.6g}" for p in self.taps)
            return f"tdl:{powers}"
        return self.kind


@dataclass(frozen=True)
class ChannelRealization:
    """One random draw of a channel: gains plus the calibrated noise power."""

    kind: str
    gain: Optional[complex] = None
    taps: Optional[np.ndarray] = None
    noise_variance: float = 0.0


def ebno_to_noise_variance(
    ebno_db: float, order: int, fft_size: int, cp_len: int, account_cp_overhead: bool
) -> float:
    """Total complex noise variance per sample for a given Eb/No point."""
    b = order.bit_length() - 1
    sigma2 = 1.0 / (b * 10.0 ** (ebno_db / 10.0))
    if account_cp_overhead:
        sigma2 *= (fft_size + cp_len) / fft_size
    return sigma2


def exponential_pdp(length: int, decay_db_per_tap: float) -> np.ndarray:
    """Exponentially decaying power-delay profile, normalized to sum 1."""
    if length < 1:
        raise ValueError(f"profile length must be >= 1, got {length}")
    powers = 10.0 ** (-decay_db_per_tap * np.arange(length) / 10.0)
    return powers / powers.sum()


def complex_gaussian(stream: RngStream, count: int, variance: float) -> np.ndarray:
    """i.i.d. circular complex Gaussians of total variance ``variance`` each.

    Consecutive standard normals form the (real, imaginary) pairs: they are
    scaled in place and viewed as complex, with no complex rebuild.
    """
    g = draw_gaussian(stream, 2 * count)
    g *= np.sqrt(variance / 2.0)
    return g.view(np.complex128)


def realize_channel(
    spec: ChannelSpec, stream: RngStream, noise_variance: float = 0.0
) -> ChannelRealization:
    """Draw one channel realization from ``stream``.

    The noise variance is supplied by the caller (computed from the cell's
    Eb/No via :func:`ebno_to_noise_variance`); it defaults to noiseless.
    """
    if spec.kind == AWGN:
        return ChannelRealization(kind=AWGN, noise_variance=noise_variance)
    if spec.kind == FLAT:
        h = complex_gaussian(stream, 1, 1.0)[0]
        return ChannelRealization(kind=FLAT, gain=complex(h), noise_variance=noise_variance)
    powers = np.asarray(spec.taps, dtype=np.float64)
    gains = complex_gaussian(stream, powers.size, 1.0) * np.sqrt(powers)
    return ChannelRealization(kind=TDL, taps=gains, noise_variance=noise_variance)


def apply_channel(
    signal: np.ndarray, real: ChannelRealization, stream: RngStream
) -> np.ndarray:
    """Pass a sample stream through one channel realization and add noise.

    The delay line applies LINEAR convolution truncated to the input
    length, so the first taps of each burst see the spill-over from the
    preceding samples -- exactly the interference a sufficient cyclic
    prefix absorbs.
    """
    signal = np.asarray(signal, dtype=np.complex128)
    if signal.size == 0:
        raise ValueError("signal must be nonempty")
    if real.kind == AWGN:
        out = signal.copy()
    elif real.kind == FLAT:
        out = real.gain * signal
    else:
        out = np.convolve(signal, real.taps)[: signal.size]
    if real.noise_variance > 0.0:
        out += complex_gaussian(stream, out.size, real.noise_variance)
    return out

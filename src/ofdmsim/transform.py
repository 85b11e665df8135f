"""Unitary DFT/IDFT on power-of-two blocks, plus a direct-sum test oracle.

Both directions carry the 1/sqrt(N) factor, so the transforms are unitary
and energy is preserved.  The fast path delegates to numpy's FFT; the
O(N^2) direct evaluation exists so tests never have to trust the fast
algorithm to check itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SizeError
from .psk import is_power_of_two

TIME = "time"
FREQUENCY = "frequency"


@dataclass(frozen=True)
class SpectralBlock:
    """A length-N sample block tagged with the domain it lives in."""

    samples: np.ndarray
    domain: str

    def __post_init__(self) -> None:
        if self.domain not in (TIME, FREQUENCY):
            raise ValueError(f"domain must be 'time' or 'frequency', got {self.domain!r}")
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise SizeError(f"block must be one-dimensional, got shape {samples.shape}")
        object.__setattr__(self, "samples", samples)

    @property
    def size(self) -> int:
        return self.samples.size


def _check_pow2(n: int) -> None:
    if not is_power_of_two(n):
        raise SizeError(f"transform size must be a power of two, got {n}")


def unitary_dft(x: np.ndarray, axis: int = -1, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward unitary DFT along ``axis``: X[k] = sum_n x[n] e^{-2pi i kn/N} / sqrt(N).

    ``out``, if given, receives the result.
    """
    _check_pow2(np.asarray(x).shape[axis])
    return np.fft.fft(x, axis=axis, norm="ortho", out=out)


def unitary_idft(x: np.ndarray, axis: int = -1, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Inverse unitary DFT along ``axis``: x[n] = sum_k X[k] e^{+2pi i kn/N} / sqrt(N).

    ``out``, if given, receives the result.
    """
    _check_pow2(np.asarray(x).shape[axis])
    return np.fft.ifft(x, axis=axis, norm="ortho", out=out)


def dft(time: SpectralBlock) -> SpectralBlock:
    """Transform a time-domain block to the frequency domain."""
    if time.domain != TIME:
        raise ValueError(f"dft expects a time-domain block, got {time.domain!r}")
    return SpectralBlock(unitary_dft(time.samples), FREQUENCY)


def idft(freq: SpectralBlock) -> SpectralBlock:
    """Transform a frequency-domain block to the time domain."""
    if freq.domain != FREQUENCY:
        raise ValueError(f"idft expects a frequency-domain block, got {freq.domain!r}")
    return SpectralBlock(unitary_idft(freq.samples), TIME)


def direct_transform(samples: np.ndarray, inverse: bool) -> np.ndarray:
    """Literal O(N^2) evaluation of the unitary transform sum (any N >= 1)."""
    samples = np.asarray(samples, dtype=np.complex128)
    n = samples.size
    if n < 1:
        raise SizeError("direct transform needs at least one sample")
    sign = 1.0 if inverse else -1.0
    idx = np.arange(n)
    kernel = np.exp(sign * 2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
    return kernel @ samples


def dft_direct(block: SpectralBlock, direction: str) -> SpectralBlock:
    """Direct-sum oracle: same formulas as dft/idft, no fast algorithm.

    ``direction`` is "forward" (time -> frequency) or "inverse".
    """
    if direction == "forward":
        return SpectralBlock(direct_transform(block.samples, inverse=False), FREQUENCY)
    if direction == "inverse":
        return SpectralBlock(direct_transform(block.samples, inverse=True), TIME)
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")

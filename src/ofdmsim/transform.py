"""Unitary DFT/IDFT on power-of-two blocks, plus a direct-sum test oracle.

Both directions carry the 1/sqrt(N) factor, so the transforms are unitary
and energy is preserved.  The fast path delegates to numpy's FFT; the
O(N^2) direct evaluation exists so tests never have to trust the fast
algorithm to check itself.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import SizeError
from .psk import is_power_of_two


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

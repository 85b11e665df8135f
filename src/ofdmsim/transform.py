"""Unitary DFT/IDFT along the last axis, plus a direct-sum test oracle.

Both directions carry the 1/sqrt(N) factor, so the transforms are unitary
and energy is preserved.  They take any length: which sizes a run may use
is :class:`~ofdmsim.framing.OfdmConfig`'s and
:class:`~ofdmsim.sweep.SweepGrid`'s policy.  The fast path delegates to
numpy's FFT; the O(N^2) direct evaluation exists so tests never have to
trust the fast algorithm to check itself.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import SizeError


def unitary_dft(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward unitary DFT: X[k] = sum_n x[n] e^{-2pi i kn/N} / sqrt(N).

    ``out``, if given, receives the result.
    """
    return np.fft.fft(x, norm="ortho", out=out)


def unitary_idft(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Inverse unitary DFT: x[n] = sum_k X[k] e^{+2pi i kn/N} / sqrt(N).

    ``out``, if given, receives the result.
    """
    return np.fft.ifft(x, norm="ortho", out=out)


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

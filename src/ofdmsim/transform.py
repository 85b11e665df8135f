"""Unitary DFT/IDFT along the last axis.

Both directions carry the 1/sqrt(N) factor, so the transforms are unitary
and energy is preserved.  They take any length: which sizes a run may use
is :class:`~ofdmsim.framing.OfdmConfig`'s and
:class:`~ofdmsim.sweep.SweepGrid`'s policy.  Both delegate to numpy's FFT;
the tests check them against an O(N^2) direct evaluation of the sums
(``tests/reference.py``), so they never trust the fast algorithm to check
itself.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import numpy.fft  # noqa: F401  -- loaded with the package, see ofdmsim.bitsource


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

"""One-tap zero-forcing equalization from genie channel knowledge."""

from __future__ import annotations

import numpy as np

#: Subcarriers with |H| below this are zeroed instead of inverted.
ZF_CLAMP_EPS = 1e-12


def clamped(response: np.ndarray) -> np.ndarray:
    """Where zero forcing zeroes a subcarrier instead of inverting it: |H| < ZF_CLAMP_EPS."""
    return np.abs(response) < ZF_CLAMP_EPS


def zero_forcing(rx_freq: np.ndarray, response: np.ndarray) -> tuple[np.ndarray, int]:
    """Divide received subcarriers by the channel response, in place.

    ``rx_freq``, a complex128 array, is overwritten and returned; ``response``
    broadcasts against it.  Subcarriers where :func:`clamped` holds are set
    to zero rather than inverted, and the number of clamped entries is
    returned so sweeps can report it.  Only a response with a clamp takes
    the masked division.
    """
    h = np.asarray(response, dtype=np.complex128)
    bad = clamped(h)
    if not bad.any():
        np.divide(rx_freq, h, out=rx_freq)
        return rx_freq, 0
    bad = np.broadcast_to(bad, rx_freq.shape)
    np.divide(rx_freq, h, out=rx_freq, where=~bad)
    rx_freq[bad] = 0.0
    return rx_freq, int(np.count_nonzero(bad))

"""One-tap zero-forcing equalization from genie channel knowledge."""

from __future__ import annotations

import numpy as np

#: Subcarriers with |H| below this are zeroed instead of inverted.
ZF_CLAMP_EPS = 1e-12


def zero_forcing(rx_freq: np.ndarray, response: np.ndarray) -> tuple[np.ndarray, int]:
    """Divide received subcarriers by the channel response.

    Subcarriers where |H| < ZF_CLAMP_EPS are set to zero rather than
    inverted; the number of clamped entries is returned so sweeps can
    report it.  ``response`` broadcasts against ``rx_freq``.
    """
    rx_freq = np.asarray(rx_freq, dtype=np.complex128)
    h = np.broadcast_to(np.asarray(response, dtype=np.complex128), rx_freq.shape)
    good = np.abs(h) >= ZF_CLAMP_EPS
    out = np.zeros_like(rx_freq)
    np.divide(rx_freq, h, out=out, where=good)
    return out, int(rx_freq.size - np.count_nonzero(good))

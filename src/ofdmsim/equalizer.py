"""One-tap zero-forcing equalization from genie channel knowledge."""

from __future__ import annotations

import numpy as np

from .channel import AWGN, FLAT, ChannelRealization

#: Subcarriers with |H| below this are zeroed instead of inverted.
ZF_CLAMP_EPS = 1e-12


def channel_freq_response(real: ChannelRealization, fft_size: int) -> np.ndarray:
    """Subcarrier response of one repetition's channel, broadcastable over its frames.

    A flat gain is its own response: one ``(frames, 1)`` column, a gain per
    OFDM symbol.  The delay line gives the plain (non-unitary) DFT of the
    zero-padded taps -- that is the gain the payload subcarriers actually
    see when the cyclic prefix turns the delay line into a circular
    convolution, given the simulator's unitary transform pair.  AWGN
    realizations yield the all-ones response.
    """
    if real.kind == AWGN:
        return np.ones(fft_size, dtype=np.complex128)
    if real.kind == FLAT:
        return real.gains[:, None]
    return np.fft.fft(real.taps, n=fft_size)


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

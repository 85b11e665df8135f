"""Reference implementations the tests check the simulator against.

They are written for clarity, not speed, and no simulator code calls them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ofdmsim.bitsource import draw_bits, make_stream
from ofdmsim.channel import (
    AWGN,
    ChannelSpec,
    ChannelState,
    apply_channel,
    complex_gaussian,
    ebno_to_noise_variance,
    exponential_pdp,
    realize_channel,
)
from ofdmsim.equalizer import zero_forcing
from ofdmsim.errors import SizeError
from ofdmsim.framing import add_cyclic_prefix, remove_cyclic_prefix, serial_to_parallel
from ofdmsim.metrics import count_bit_errors, make_record
from ofdmsim.psk import demap_psk, map_psk, pack_labels
from ofdmsim.transform import unitary_dft, unitary_idft


@functools.lru_cache(maxsize=None)
def _direct_kernel(n: int, inverse: bool) -> np.ndarray:
    """The N x N matrix of the unitary transform sum, built once per (N, direction)."""
    sign = 1.0 if inverse else -1.0
    idx = np.arange(n)
    kernel = np.exp(sign * 2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
    kernel.flags.writeable = False  # shared by every later call
    return kernel


def direct_transform(samples: np.ndarray, inverse: bool) -> np.ndarray:
    """Literal O(N^2) evaluation of the unitary transform sum (any N >= 1)."""
    samples = np.asarray(samples, dtype=np.complex128)
    n = samples.size
    if n < 1:
        raise SizeError("direct transform needs at least one sample")
    return _direct_kernel(n, inverse) @ samples


def channel_state(kind: str, values, n_frames: int = 1) -> ChannelState:
    """A channel state holding ``values``, one repetition's per row: flat
    gains, a gain per OFDM symbol, or delay-line taps (of a repetition of
    ``n_frames`` symbols)."""
    values = np.asarray(values, dtype=np.complex128)
    rows, width = values.shape
    if kind == "flat":
        state = ChannelState(ChannelSpec(kind="flat"), rows, width)
        state.gains[...] = values
    else:
        state = ChannelState(ChannelSpec(kind="tdl", taps=exponential_pdp(width, 0.0)), rows,
                             n_frames)
        state.taps[...] = values
    return state


def post_dft_deviation(n_fft: int, cp: int, memory: int, seed: int, n_frames: int) -> float:
    """Largest deviation of the received subcarriers from a per-subcarrier gain.

    ``n_frames`` noiseless 8-PSK OFDM symbols with a ``cp``-sample prefix
    pass through a random delay line of ``memory + 1`` taps (drawn from
    ``seed``); the result is the largest |Y_k - H_k X_k|, which a prefix at
    least ``memory`` long keeps at rounding level.
    """
    rng = np.random.default_rng(seed)
    taps = rng.standard_normal(memory + 1) + 1j * rng.standard_normal(memory + 1)
    taps /= np.linalg.norm(taps)
    bits = rng.integers(0, 2, size=3 * n_fft * n_frames, dtype=np.uint8)
    matrix, _ = serial_to_parallel(map_psk(pack_labels(bits, 8), 8), n_fft)
    tx = add_cyclic_prefix(unitary_idft(matrix), cp)
    apply_channel(tx[None], channel_state("tdl", [taps]), n_fft)  # in place
    rx_freq = unitary_dft(remove_cyclic_prefix(tx, n_fft, cp))
    expected = np.fft.fft(taps, n=n_fft)[None, :] * matrix
    return float(np.max(np.abs(rx_freq - expected)))


def cp_shortfall_matrices(n_fft: int, cp_len: int, taps) -> tuple[np.ndarray, np.ndarray]:
    """The delay line over a ``cp_len``-sample prefix as two N x N matrices.

    The kept samples of OFDM symbol t are ``A @ x_t + B @ x_{t-1}``, where
    x_t is its N time samples before the prefix is added: A is the part of
    the linear convolution that reads symbol t's own prefix and body, and B
    the spill from the previous symbol's tail (x_{-1} = 0, the line starts
    silent).  Tap l reads sample L + n - l of the symbol's N+L; a negative
    index reaches back into the previous symbol.  So B = 0 when
    ``cp_len >= len(taps) - 1``, and A is then circulant.  The memory must
    fit in one symbol.
    """
    taps = np.asarray(taps, dtype=np.complex128)
    if taps.size - 1 > n_fft + cp_len:
        raise ValueError("the delay line reaches past the previous OFDM symbol")
    own = np.zeros((n_fft, n_fft), dtype=np.complex128)
    spill = np.zeros((n_fft, n_fft), dtype=np.complex128)
    for n in range(n_fft):
        for lag, tap in enumerate(taps):
            sample = cp_len + n - lag  # of the N+L; sample m is body sample (m - L) mod N
            if sample >= 0:
                own[n, (sample - cp_len) % n_fft] += tap
            else:  # sample N + L + sample of the previous symbol
                spill[n, sample % n_fft] += tap
    return own, spill


def cp_shortfall_model(n_fft: int, cp_len: int, taps) -> tuple[np.ndarray, np.ndarray]:
    """G = F A F^H and K = F B F^H of :func:`cp_shortfall_matrices`, with F the
    unitary DFT: the received subcarriers of OFDM symbol t are
    ``G @ X_t + K @ X_{t-1}`` before noise and equalization."""
    forward = _direct_kernel(n_fft, False)
    inverse = _direct_kernel(n_fft, True)
    return tuple(forward @ m @ inverse for m in cp_shortfall_matrices(n_fft, cp_len, taps))


#: SNRs (symbol energy over complex noise variance) of the PSK error tables.
PSK_SNR_GRID = np.geomspace(1e-3, 1e5, 400)


@functools.lru_cache(maxsize=None)
def _psk_error_table(order: int) -> tuple[np.ndarray, np.ndarray]:
    """log E[e] + g s and log E[e^2] + g s on ``PSK_SNR_GRID``, e the bit
    errors of one M-PSK symbol with a uniform Gray label, at SNR g, and
    s = sin^2(pi/M), the exponent of the nearest boundary, which keeps both
    rows smooth in log g.

    The received phase theta, taken from the sent point, has the density
    (Proakis, *Digital Communications*, 5th ed., sec. 4.3, rewritten so that
    no factor overflows at large g)
    ``e^-g / 2 pi + (sqrt g cos theta / 2 sqrt pi) e^(-g sin^2 theta)
    (1 + erf(sqrt g cos theta))``.  It is summed at 4096 midpoints of the
    circle, whose cells tile each sector (4096 is a multiple of 2M), against
    the mean Hamming distance (and its square) between the labels of
    positions p and p + j, over p: the phase does not depend on the label.
    """
    cells = 4096
    positions = np.arange(order)
    gray = positions ^ (positions >> 1)
    apart = np.bitwise_count(gray[:, None] ^ gray[(positions[:, None] + positions) % order])
    width = 2 * np.pi / cells
    theta = -np.pi + (np.arange(cells) + 0.5) * width
    sector = np.rint(theta * order / (2 * np.pi)).astype(int) % order
    snr = PSK_SNR_GRID[:, None]
    x = np.sqrt(snr) * np.cos(theta)
    # 1 + erf(x) = erfc(-x), which keeps its precision where erf(x) nears -1
    tail = np.vectorize(math.erfc, otypes=[float])(-x)
    density = np.exp(-snr) / (2 * np.pi) + x / (2 * np.sqrt(np.pi)) * np.exp(
        -snr * np.sin(theta) ** 2) * tail
    exponent = PSK_SNR_GRID * math.sin(math.pi / order) ** 2
    return tuple(np.log(np.maximum(density @ (moment.mean(axis=0)[sector] * width), 1e-300))
                 + exponent for moment in (apart, apart ** 2))


def psk_error_moments(order: int, snr) -> tuple[np.ndarray, np.ndarray]:
    """Mean and second moment of one M-PSK symbol's bit errors at each SNR
    (symbol energy over complex noise variance, e.g. |H|^2 / sigma^2 after
    zero forcing), read from the order's table by ``np.interp`` in log SNR;
    an SNR off the grid takes its end row, below about 1e-300 they are 0."""
    snr = np.asarray(snr, dtype=float)
    exponent = snr * math.sin(math.pi / order) ** 2
    return tuple(np.exp(np.interp(np.log(snr), np.log(PSK_SNR_GRID), row) - exponent)
                 for row in _psk_error_table(order))


def reference_cell(config, channel, ebno_db, seed, cell_id, *, target_errors, max_bits,
                   use_equalizer=True):
    """run_cell one repetition at a time, from the public kernels only.

    The draws follow the documented per-repetition order: bits, then the
    fading channel (one flat gain per OFDM symbol, or one delay line), then
    noise.  AWGN has no channel step: nothing is drawn, applied or equalized.
    """
    stream = make_stream(seed, cell_id)
    n_fft, cp_len, order = config.fft_size, config.cp_len, config.modulation_order
    b = config.bits_per_symbol
    sigma2 = ebno_to_noise_variance(ebno_db, config, channel)
    fading = channel.kind != AWGN
    bits_sent = bit_errors = zf_clamps = 0
    while True:
        n_bits = max(b, (min(config.bit_budget, max_bits - bits_sent) // b) * b)
        tx_bits = draw_bits(stream, n_bits)
        matrix, used = serial_to_parallel(map_psk(pack_labels(tx_bits, order), order), n_fft)
        rx = add_cyclic_prefix(unitary_idft(matrix), cp_len)
        if fading:
            state = realize_channel(ChannelState(channel, 1, rx.shape[0]), 0, stream)
            response = apply_channel(rx[None], state, n_fft)  # in place
        if sigma2 > 0.0:
            rx = rx + complex_gaussian(stream, rx.size, sigma2).reshape(rx.shape)
        freq = unitary_dft(remove_cyclic_prefix(rx, n_fft, cp_len))
        if use_equalizer and fading:
            freq, clamps = zero_forcing(freq, response[0])
            zf_clamps += clamps
        errors, _ = count_bit_errors(tx_bits, demap_psk(freq.ravel()[:used], order))
        bits_sent += n_bits
        bit_errors += errors
        if bit_errors >= target_errors or bits_sent >= max_bits:
            break
    summary = channel.summary() + ("" if use_equalizer else "/noeq")
    return make_record(config, summary, ebno_db, bits_sent, bit_errors, zf_clamps, seed, cell_id)

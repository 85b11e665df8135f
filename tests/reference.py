"""Reference implementations the tests check the simulator against.

They are written for clarity, not speed, and no simulator code calls them.
"""

from __future__ import annotations

import functools

import numpy as np

from ofdmsim.bitsource import draw_bits, make_stream
from ofdmsim.channel import (
    AWGN,
    ChannelRealization,
    apply_channel,
    complex_gaussian,
    ebno_to_noise_variance,
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
    real = ChannelRealization(kind="tdl", taps=taps)
    apply_channel(tx[None], [real], n_fft)  # in place
    rx_freq = unitary_dft(remove_cyclic_prefix(tx, n_fft, cp))
    expected = np.fft.fft(taps, n=n_fft)[None, :] * matrix
    return float(np.max(np.abs(rx_freq - expected)))


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
            real = realize_channel(channel, stream, rx.shape[0])
            response = apply_channel(rx[None], [real], n_fft)  # in place
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

"""OFDM symbol assembly: serial/parallel reshaping and cyclic-prefix handling."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import CpLengthError, SizeError
from .psk import bits_per_symbol, is_power_of_two


@dataclass(frozen=True)
class OfdmConfig:
    """Physical-layer parameters for one sweep cell.

    ``fft_size`` is any power of two; N=1 with no prefix is plain
    single-carrier PSK, the chain with its framing bypassed.
    ``cp_fraction`` is an exact rational (accepts a string like "1/4");
    the cyclic prefix is ``cp_fraction * fft_size`` samples and must come
    out integer -- non-integer products are rejected, never rounded.
    ``bit_budget`` is the number of information bits processed per Monte
    Carlo repetition (one channel realization per repetition).  Every
    field is required: the defaults of a run are ``SweepGrid``'s.
    """

    fft_size: int
    cp_fraction: Fraction
    modulation_order: int
    bit_budget: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "cp_fraction", Fraction(self.cp_fraction))
        if not is_power_of_two(self.fft_size):
            raise SizeError(f"fft_size must be a power of two, got {self.fft_size}")
        if self.cp_fraction < 0:
            raise CpLengthError(f"cp_fraction must be >= 0, got {self.cp_fraction}")
        cp = self.cp_fraction * self.fft_size
        if cp.denominator != 1:
            raise CpLengthError(
                f"cp_fraction {self.cp_fraction} x fft_size {self.fft_size} "
                f"is not an integer number of samples"
            )
        if cp > self.fft_size:
            raise CpLengthError(f"cyclic prefix {cp} exceeds fft_size {self.fft_size}")
        bits_per_symbol(self.modulation_order)  # rejects an invalid order
        if self.bit_budget < 1:
            raise ValueError(f"bit_budget must be >= 1, got {self.bit_budget}")

    @cached_property
    def cp_len(self) -> int:
        return int(self.cp_fraction * self.fft_size)

    @property
    def bits_per_symbol(self) -> int:
        return bits_per_symbol(self.modulation_order)


def serial_to_parallel(symbols: np.ndarray, fft_size: int) -> tuple[np.ndarray, int]:
    """Reshape a symbol stream into OFDM rows of ``fft_size`` subcarriers.

    The final partial row is zero-padded; the returned used-slot count lets
    callers drop the pad positions before counting errors.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    used = symbols.size
    rows = -(-used // fft_size)  # ceil
    matrix = np.zeros(rows * fft_size, dtype=np.complex128)
    matrix[:used] = symbols
    return matrix.reshape(rows, fft_size), used


def add_cyclic_prefix(time_symbol: np.ndarray, cp_len: int) -> np.ndarray:
    """Prepend the last ``cp_len`` samples (along the last axis)."""
    time_symbol = np.asarray(time_symbol)
    n = time_symbol.shape[-1]
    if cp_len < 0 or cp_len > n:
        raise CpLengthError(f"cp length {cp_len} outside [0, {n}]")
    if cp_len == 0:
        return time_symbol.copy()
    return np.concatenate([time_symbol[..., -cp_len:], time_symbol], axis=-1)


def remove_cyclic_prefix(rx: np.ndarray, fft_size: int, cp_len: int) -> np.ndarray:
    """Drop the prefix, keeping samples cp_len .. cp_len+fft_size-1 (last axis)."""
    rx = np.asarray(rx)
    if rx.shape[-1] != fft_size + cp_len:
        raise SizeError(
            f"expected {fft_size + cp_len} samples per frame, got {rx.shape[-1]}"
        )
    return rx[..., cp_len:cp_len + fft_size]

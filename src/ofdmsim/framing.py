"""OFDM symbol assembly: serial/parallel reshaping and cyclic-prefix handling."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import CpLengthError, OrderError, SizeError
from .psk import is_power_of_two

SUPPORTED_FFT_SIZES = (64, 128, 256, 512)


@dataclass(frozen=True)
class OfdmConfig:
    """Physical-layer parameters for one sweep cell.

    ``cp_fraction`` is an exact rational (accepts a string like "1/4");
    the cyclic prefix is ``cp_fraction * fft_size`` samples and must come
    out integer -- non-integer products are rejected, never rounded.
    ``bit_budget`` is the number of information bits processed per Monte
    Carlo repetition (one channel realization per repetition).
    """

    fft_size: int
    cp_fraction: Fraction
    modulation_order: int = 8
    bit_budget: int = 1000

    def __post_init__(self) -> None:
        object.__setattr__(self, "cp_fraction", Fraction(self.cp_fraction))
        if self.fft_size not in SUPPORTED_FFT_SIZES:
            raise SizeError(
                f"fft_size must be one of {SUPPORTED_FFT_SIZES}, got {self.fft_size}"
            )
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
        if not (is_power_of_two(self.modulation_order) and self.modulation_order >= 2):
            raise OrderError(
                f"modulation_order must be a power of two >= 2, got {self.modulation_order}"
            )
        if self.bit_budget < 1:
            raise ValueError(f"bit_budget must be >= 1, got {self.bit_budget}")

    @cached_property
    def cp_len(self) -> int:
        return int(self.cp_fraction * self.fft_size)

    @property
    def bits_per_symbol(self) -> int:
        return self.modulation_order.bit_length() - 1


@dataclass(frozen=True)
class OfdmFrame:
    """One time-domain OFDM symbol with its cyclic prefix.

    The prefix must be an element-exact copy of the payload tail.
    """

    payload: np.ndarray
    prefix: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.complex128))

    def __post_init__(self) -> None:
        payload = np.asarray(self.payload, dtype=np.complex128)
        prefix = np.asarray(self.prefix, dtype=np.complex128)
        if prefix.size > payload.size:
            raise CpLengthError(
                f"prefix length {prefix.size} exceeds payload length {payload.size}"
            )
        if prefix.size and not np.array_equal(prefix, payload[-prefix.size:]):
            raise ValueError("prefix is not a copy of the payload tail")
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "prefix", prefix)

    @classmethod
    def from_payload(cls, payload: np.ndarray, cp_len: int) -> "OfdmFrame":
        payload = np.asarray(payload, dtype=np.complex128)
        return cls(payload=payload, prefix=add_cyclic_prefix(payload, cp_len)[:cp_len])

    @property
    def fft_size(self) -> int:
        return self.payload.size

    @property
    def cp_len(self) -> int:
        return self.prefix.size


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


def parallel_to_serial(frames: list[OfdmFrame]) -> np.ndarray:
    """Concatenate prefix+payload of each frame into one sample stream."""
    if not frames:
        return np.empty(0, dtype=np.complex128)
    shape = (frames[0].fft_size, frames[0].cp_len)
    for f in frames:
        if (f.fft_size, f.cp_len) != shape:
            raise SizeError("all frames must share the same (fft_size, cp_len)")
    return np.concatenate([np.concatenate([f.prefix, f.payload]) for f in frames])

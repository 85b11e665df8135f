"""OFDM symbol assembly: serial/parallel reshaping and cyclic-prefix handling."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Any, Optional

import numpy as np

from .errors import ConfigError, CpLengthError, SizeError
from .psk import bits_per_symbol, is_power_of_two


def as_integer(name: str, value: Any, minimum: Optional[int] = None) -> int:
    """The integer setting ``name`` as an int, from any integer type (numpy's
    too).  A bool or a non-integer is a ``TypeError``, and a value below
    ``minimum`` a :class:`ConfigError` (a ``ValueError``); each names the
    setting."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def as_number(name: str, value: Any) -> float:
    """The real setting ``name`` as a float, from any real type (numpy's too).
    A bool, a str or a non-real is a ``TypeError`` naming the setting."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name}: expected a number, got {value!r}")
    return float(value)


def as_switch(name: str, value: Any) -> bool:
    """The on/off setting ``name`` as a bool, from a bool or a numpy bool.
    Anything else, 0 and 1 and "no" included, is a ``TypeError`` naming it."""
    if not isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name}: expected true or false, got {value!r}")
    return bool(value)


def as_axis(name: str, value: Any) -> tuple:
    """The list setting ``name`` as a tuple of its items, from a list, a tuple
    or a 1-D numpy array.  A str or a scalar is a ``TypeError`` naming it."""
    if not (isinstance(value, (list, tuple))
            or isinstance(value, np.ndarray) and value.ndim == 1):
        raise TypeError(f"{name}: expected a list, got {value!r}")
    return tuple(value)


def as_fraction(name: str, value: Any) -> Fraction:
    """The exact rational setting ``name`` as a Fraction, from a rational
    (numpy's integers too), its text ("1/4", "0.25") or a float.  A float,
    Python's or numpy's float64, means its decimal text,
    ``Fraction(str(value))``, so 0.1 is exactly 1/10 from every caller.  A
    bool or any other type is a ``TypeError``, and text or a float that is
    no fraction ("abc", "1/0", inf, NaN) a ``ValueError``; each names the
    setting (``cp_fractions: Invalid literal for Fraction: 'abc'``)."""
    if (isinstance(value, (bool, np.bool_))
            or not isinstance(value, (numbers.Rational, float, str))):
        raise TypeError(f"{name}: expected a fraction, got {value!r}")
    try:
        return Fraction(str(value) if isinstance(value, float) else value)
    except (ValueError, ZeroDivisionError) as exc:  # e.g. "abc", "1/0" or inf
        raise ValueError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class OfdmConfig:
    """Physical-layer parameters for one sweep cell.

    ``fft_size`` is any power of two; N=1 with no prefix is plain
    single-carrier PSK, the chain with its framing bypassed.
    ``cp_fraction`` is an exact rational, as :func:`as_fraction` reads it
    (a string like "1/4", or a float by its decimal text, but not a bool);
    the cyclic prefix is ``cp_fraction * fft_size`` samples
    and must come out integer -- non-integer products are rejected, never
    rounded.
    ``bit_budget`` bounds the information bits of one Monte Carlo
    repetition (one channel realization per repetition): a repetition sends
    it rounded down to a multiple of log2 M, and never fewer than log2 M
    bits, so 999 bits for 8-PSK and a budget of 1000 (``sweep.run_cell``
    says what a capped cell's last repetitions send).  The integer fields
    take a numpy integer but not a float or a bool.  Every field is
    required: the defaults of a run are ``SweepGrid``'s.
    """

    fft_size: int
    cp_fraction: Fraction
    modulation_order: int
    bit_budget: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "fft_size", as_integer("fft_size", self.fft_size))
        object.__setattr__(self, "cp_fraction", as_fraction("cp_fraction", self.cp_fraction))
        object.__setattr__(self, "modulation_order",
                           as_integer("modulation_order", self.modulation_order))
        object.__setattr__(self, "bit_budget",
                           as_integer("bit_budget", self.bit_budget, minimum=1))
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

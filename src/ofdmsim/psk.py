"""M-PSK mapping and nearest-phase hard demapping with Gray bit labels."""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import LengthError, OrderError


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


#: Largest PSK order: its labels still fit in one byte (see :func:`_group_bits`).
MAX_ORDER = 256


def bits_per_symbol(order: int) -> int:
    """Bits per symbol, log2 M, of PSK order M; an invalid M is an :class:`OrderError`."""
    if not (is_power_of_two(order) and 2 <= order <= MAX_ORDER):
        raise OrderError(f"modulation order must be a power of two in 2..{MAX_ORDER}, "
                         f"got {order}")
    return order.bit_length() - 1


def _gray_labels(order: int) -> np.ndarray:
    """Label of each angular position p: the binary-reflected Gray code
    ``p ^ (p >> 1)``, so angular neighbours (including the wrap) differ in
    exactly one bit and position 0 carries label 0."""
    positions = np.arange(order)
    return positions ^ (positions >> 1)


@lru_cache(maxsize=None)
def _symbols_by_label(order: int) -> np.ndarray:
    """Symbol of each label: ``exp(2j*pi*p/order)`` at the label's angular position p."""
    symbols = np.empty(order, dtype=np.complex128)
    symbols[_gray_labels(order)] = np.exp(2j * np.pi * np.arange(order) / order)
    return symbols


def _group_bits(bits: np.ndarray, b: int) -> np.ndarray:
    """Pack consecutive b-bit groups (MSB first) along the last axis into labels.

    Labels are uint8, which holds every label up to :data:`MAX_ORDER`, so a
    block of bits packs without a wider temporary.
    """
    groups = bits.reshape(*bits.shape[:-1], -1, b).astype(np.uint8, copy=False)
    labels = groups[..., 0].copy()
    for j in range(1, b):
        labels <<= 1
        labels |= groups[..., j]
    return labels


def _ungroup_bits(groups: np.ndarray, b: int) -> np.ndarray:
    shifts = np.arange(b - 1, -1, -1)
    return ((groups[:, None] >> shifts) & 1).astype(np.uint8).ravel()


@lru_cache(maxsize=None)
def _error_table(order: int) -> np.ndarray:
    """Bit errors of deciding angular position p when label l was sent.

    Entry ``(p << b) | l`` is the popcount of ``labels[p] ^ l``.
    """
    sent = np.arange(order)
    popcount = np.array([bin(x).count("1") for x in range(order)], dtype=np.uint8)
    return popcount[_gray_labels(order)[:, None] ^ sent[None, :]].ravel()


def _sectors(symbols: np.ndarray, order: int) -> np.ndarray:
    """Angular position of the nearest constellation point.

    ``ceil(angle / width - 0.5)`` taken modulo ``order``: a symbol exactly on
    the boundary between sectors k and k+1 resolves to k.
    """
    u = np.angle(symbols)
    u /= 2.0 * np.pi / order
    u -= 0.5
    np.ceil(u, out=u)
    sectors = u.astype(np.intp)
    sectors &= order - 1
    return sectors


def map_psk(bits: np.ndarray, order: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Map a bit block onto unit-energy M-PSK symbols.

    Bits are consumed in b-bit groups along the last axis, MSB first; the
    group's Gray label selects the angular position (group 0 -> phase 0,
    group 1 -> phase 2*pi/order).  Leading axes are kept, so a (k, n) block
    gives (k, n/b) symbols.  ``out``, if given, receives the symbols.
    """
    b = bits_per_symbol(order)
    bits = np.asarray(bits)
    if bits.shape[-1] % b != 0:
        raise LengthError(
            f"bit count {bits.shape[-1]} is not divisible by {b} (order {order})"
        )
    # labels are always in range; "clip" lets np.take write straight into out
    return np.take(_symbols_by_label(order), _group_bits(bits, b), out=out, mode="clip")


def demap_psk(symbols: np.ndarray, order: int) -> np.ndarray:
    """Hard-demap symbols to bits by nearest phase.

    The decision is phase-only, so any positive scaling of a symbol leaves
    the result unchanged.  A symbol exactly on the boundary between angular
    sectors k and k+1 resolves to k (indices before the modulo wrap), and a
    zero symbol resolves deterministically to position 0.
    """
    b = bits_per_symbol(order)
    sectors = _sectors(np.asarray(symbols), order)
    return _ungroup_bits(_gray_labels(order)[sectors], b)


def count_psk_errors(symbols: np.ndarray, tx_bits: np.ndarray, order: int) -> np.ndarray:
    """Bit errors of the nearest-phase decision on ``symbols`` against ``tx_bits``.

    The same decision as :func:`demap_psk`, counted without unpacking the
    received labels into bits: each symbol contributes the popcount of its
    decided label XOR the label sent, read from a precomputed table.
    Counts are summed over the last axis, so (k, S) symbols against
    (k, S*b) bits give k counts.
    """
    b = bits_per_symbol(order)
    symbols = np.asarray(symbols)
    tx_bits = np.asarray(tx_bits)
    if tx_bits.shape[-1] != symbols.shape[-1] * b:
        raise LengthError(
            f"{tx_bits.shape[-1]} bits do not match {symbols.shape[-1]} symbols (order {order})"
        )
    keys = _sectors(symbols, order)
    keys <<= b
    keys |= _group_bits(tx_bits, b)
    return _error_table(order)[keys].sum(axis=-1)

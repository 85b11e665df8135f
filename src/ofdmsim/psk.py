"""M-PSK mapping and nearest-phase hard demapping with Gray bit labels."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import LengthError, OrderError


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


#: Largest PSK order: its labels still fit in one byte (see :func:`pack_labels`).
MAX_ORDER = 256


def bits_per_symbol(order: int) -> int:
    """Bits per symbol, log2 M, of PSK order M; an invalid M is an :class:`OrderError`."""
    if not (is_power_of_two(order) and 2 <= order <= MAX_ORDER):
        raise OrderError(f"modulation order must be a power of two in 2..{MAX_ORDER}, "
                         f"got {order}")
    return order.bit_length() - 1


@lru_cache(maxsize=None)
def _gray_labels(order: int) -> np.ndarray:
    """Label of each angular position p: the binary-reflected Gray code
    ``p ^ (p >> 1)``, so angular neighbours (including the wrap) differ in
    exactly one bit and position 0 carries label 0.

    One read-only uint8 table per order, which the mapper's symbols and
    the receiver's decision both read.  An invalid order is an
    :class:`OrderError`.
    """
    bits_per_symbol(order)
    positions = np.arange(order, dtype=np.uint8)
    labels = positions ^ (positions >> 1)
    labels.flags.writeable = False
    return labels


@lru_cache(maxsize=None)
def _symbols_by_label(order: int) -> np.ndarray:
    """Symbol of each label: ``exp(2j*pi*p/order)`` at the label's angular position p."""
    positions = np.argsort(_gray_labels(order))  # the table is a permutation
    return np.exp(2j * np.pi * positions / order)


#: A certified window's noise keeps each symbol within ``(pi/M)(1 - _MARGIN)``
#: of its sent point, 5e-10 sector widths inside its sector, and
#: ``_MARGIN`` more absolute slack covers the chain's rounding.
_MARGIN = 1e-9


def noise_keeps_decisions(noise: np.ndarray, order: int) -> bool:
    """Whether every M-PSK symbol plus any one value of ``noise`` is decided as sent.

    Holds when every value w has ``|w|^2 < r^2``, ``r = sin a - 1e-9`` and
    ``a = (pi/M)(1 - 1e-9)``.  A unit-magnitude point plus w then lies
    within ``arcsin |w| < a`` of the point's phase, strictly inside its
    decision sector, a convex cone around it (Proakis, *Digital
    Communications*, 5th ed., sec. 4.3), with the 5e-10-sector-width margin
    that covers :func:`_decide`'s rounding (about 1e-13 sector widths at
    M = 256).  On an AWGN window, w is the DFT of an OFDM symbol's kept
    noise, padding subcarriers included, and the chain's received symbol
    is the sent one plus w up to the rounding of the IDFT, the noise add
    and two DFTs: each term is O(u log2 N) times the frame's 2-norm
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    sec. 24.1), and once every |w| < r that norm is at most (1 + r) sqrt N,
    so the rounding is about 1e-13 at N = 512 and 3e-12 at N = 2^20, far
    inside the 1e-9 slack.  So when this holds, :func:`count_psk_errors`
    counts 0 on every row; a False says nothing.  NaN, inf and a value
    whose square overflows are never certified, and raise no warning.  An
    invalid order is an :class:`OrderError` before any arithmetic.
    """
    bits_per_symbol(order)
    r = math.sin(math.pi / order * (1.0 - _MARGIN)) - _MARGIN
    noise = np.asarray(noise)
    with np.errstate(all="ignore"):  # an overflowed square is inf, a NaN stays NaN
        power = np.square(noise.real)
        power += np.square(noise.imag)
        return bool(power.max(initial=0.0) < r * r)


def pack_labels(bits: np.ndarray, order: int) -> np.ndarray:
    """Pack a bit block into the Gray labels of its M-PSK symbols.

    Bits are consumed in b-bit groups along the last axis, MSB first; each
    group is one label, so a (k, n) block gives (k, n/b) labels.  Labels
    are uint8, which holds every label up to :data:`MAX_ORDER`, so a block
    packs without a wider temporary.  :func:`map_psk` maps the labels and
    :func:`count_psk_errors` counts errors against them.
    """
    b = bits_per_symbol(order)
    bits = np.asarray(bits)
    if bits.shape[-1] % b != 0:
        raise LengthError(
            f"bit count {bits.shape[-1]} is not divisible by {b} (order {order})"
        )
    groups = bits.reshape(*bits.shape[:-1], -1, b).astype(np.uint8, copy=False)
    labels = groups[..., 0].copy()
    for j in range(1, b):
        labels <<= 1
        labels |= groups[..., j]
    return labels


def _decide(symbols: np.ndarray, order: int) -> np.ndarray:
    """Gray label (uint8) of the nearest constellation point to each symbol.

    The decided angular position is ``ceil(angle / width - 0.5)`` taken
    modulo ``order``: a symbol exactly on the boundary between sectors k
    and k+1 resolves to k, and a zero symbol to position 0.  The shape is
    kept.
    """
    labels = _gray_labels(order)  # an invalid order is an OrderError
    u = np.angle(symbols)
    u /= 2.0 * np.pi / order
    u -= 0.5
    np.ceil(u, out=u)
    positions = u.astype(np.intp)
    positions &= order - 1
    return labels[positions]


def map_psk(labels: np.ndarray, order: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Map Gray labels (see :func:`pack_labels`) onto unit-energy M-PSK symbols.

    A label selects the angular position whose Gray code it is (label 0 ->
    phase 0, label 1 -> phase 2*pi/order).  Labels must lie in
    0..order-1, as packed ones do; a larger one is clipped to order-1, not
    rejected.  The shape is kept, and ``out``, if given, receives the
    symbols.
    """
    # "clip" lets np.take write straight into out
    return np.take(_symbols_by_label(order), labels, out=out, mode="clip")


def demap_psk(symbols: np.ndarray, order: int) -> np.ndarray:
    """Hard-demap symbols to bits by nearest phase.

    Each symbol gives the log2 M bits of its decided Gray label, MSB
    first, as uint8 0s and 1s.  A block of any shape demaps as its C-order
    ravel does, into one flat bit array.  The decision is phase-only, so
    any positive scaling of a symbol leaves the result unchanged.  A symbol
    exactly on the boundary between angular sectors k and k+1 resolves to
    k (indices before the modulo wrap), and a zero symbol resolves
    deterministically to position 0.
    """
    b = bits_per_symbol(order)
    decided = _decide(np.ravel(symbols), order)
    return np.unpackbits(decided[:, None], axis=1)[:, 8 - b:].ravel()


def count_psk_errors(symbols: np.ndarray, labels: np.ndarray, order: int) -> np.ndarray:
    """Bit errors of the nearest-phase decision on ``symbols`` against the ``labels`` sent.

    The same decision as :func:`demap_psk`, counted without unpacking it
    into bits: each symbol contributes the popcount of its decided label
    XOR the label sent, with no table.  Counts are summed over the last
    axis, so (k, S) symbols against (k, S) labels give k uint64 counts (a
    scalar for 1-D input).  Where :func:`noise_keeps_decisions` holds on
    an AWGN window's transformed noise, every count is exactly 0 (see there
    why), and the chain skips the rest of the window: its mapping, IDFT,
    receive DFT and this decision.
    """
    symbols = np.asarray(symbols)
    labels = np.asarray(labels)
    if labels.shape[-1] != symbols.shape[-1]:
        raise LengthError(
            f"{labels.shape[-1]} labels do not match {symbols.shape[-1]} symbols"
        )
    return np.bitwise_count(_decide(symbols, order) ^ labels).sum(axis=-1)

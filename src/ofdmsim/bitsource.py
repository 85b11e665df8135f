"""Seeded random sources with independent per-cell substreams.

Every Monte Carlo cell owns its own stream, derived from the pair
``(origin_seed, cell_id)`` so that cells can run in any order, on any
number of workers, and still reproduce bit-for-bit.

Derivation of the per-cell seed (fixed for the life of this package)::

    substream_seed = splitmix64(origin_seed XOR rotl64(cell_id, 32))

where ``splitmix64`` is the SplitMix64 finalizer (Steele et al.), a full
64-bit avalanche mixer.  The substream seed feeds a numpy PCG64 generator;
Gaussian variates come from numpy's Ziggurat implementation
(``Generator.standard_normal``).  Determinism is guaranteed within this
implementation only, not across languages or numpy generator rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Default master seed for all CLI entry points (arbitrary documented constant).
DEFAULT_MASTER_SEED = 0x0FDA_0FDA_0FDA_0FDA

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def _rotl64(x: int, k: int) -> int:
    x &= _MASK64
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _splitmix64(x: int) -> int:
    """SplitMix64 finalizer: one avalanche pass over a 64-bit word."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass
class RngStream:
    """One cell's private random stream.

    Single-owner: a stream may be consumed by at most one thread at a time.
    Distinct (origin_seed, cell_id) pairs give statistically independent
    streams with no shared state.
    """

    origin_seed: int
    cell_id: int
    rng: np.random.Generator


def make_stream(origin_seed: int, cell_id: int) -> RngStream:
    """Create the deterministic substream for one sweep cell.

    The internal seed is ``splitmix64(origin_seed XOR rotl64(cell_id, 32))``,
    driving a PCG64 generator.
    """
    derived = _splitmix64((origin_seed ^ _rotl64(cell_id, 32)) & _MASK64)
    return RngStream(
        origin_seed=origin_seed & _MASK64,
        cell_id=cell_id & _MASK64,
        rng=np.random.Generator(np.random.PCG64(derived)),
    )


def draw_bits(stream: RngStream, count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. uniform bits as a uint8 array of 0s and 1s."""
    if count < 0:
        raise ValueError(f"bit count must be >= 0, got {count}")
    return stream.rng.integers(0, 2, size=count, dtype=np.uint8)


def draw_gaussian(
    stream: RngStream, count: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Draw ``count`` i.i.d. standard normal variates (numpy Ziggurat).

    ``out``, a C-contiguous float64 array of ``count`` elements in any
    shape, receives them in C order.
    """
    if count < 0:
        raise ValueError(f"draw count must be >= 0, got {count}")
    if out is None:
        return stream.rng.standard_normal(count)
    if out.size != count:
        raise ValueError(f"out holds {out.size} values, not {count}")
    return stream.rng.standard_normal(out=out)

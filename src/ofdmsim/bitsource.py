"""Seeded random sources with independent per-cell substreams.

Every Monte Carlo cell owns its own stream, derived from the pair
``(origin_seed, cell_id)`` so that cells can run in any order, on any
number of workers, and still reproduce bit-for-bit.  Both keys are
integers in 0..2^64-1 (:data:`KEY_MAX`); a key outside that range is
rejected, not reduced mod 2^64, so the seed and cell id a record prints
are the keys its draws came from.

Derivation of the per-cell seed (fixed for the life of this package)::

    substream_seed = splitmix64(origin_seed XOR rotl64(cell_id, 32))

where ``splitmix64`` is the SplitMix64 finalizer (Steele et al.), a full
64-bit avalanche mixer.  The substream seed feeds a numpy PCG64 generator;
:func:`ofdmsim.channel.complex_gaussian` draws Gaussians with numpy's
Ziggurat (``Generator.standard_normal``), which takes whole 64-bit outputs.

Bits come straight from PCG64's raw 64-bit outputs
(``bit_generator.random_raw``).  Each output is two 32-bit words, low half
first; a draw of ``count`` bits takes ``ceil(count / 4)`` words, and bit
*i* is the top bit of byte *i* of those words, least-significant byte
first.  The words of a draw start with the high half the previous bit draw
left over, if it used an odd number of words.  This is exactly the stream
``Generator.integers(0, 2, count, dtype=np.uint8)`` gives, interleaved
with Gaussian draws the same way, without its per-call overhead.
Determinism is guaranteed within this implementation only, not across
languages or numpy bit-generator rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .errors import ConfigError
from .framing import as_integer

#: Default master seed for all CLI entry points (arbitrary documented constant).
DEFAULT_MASTER_SEED = 0x0FDA_0FDA_0FDA_0FDA

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF

#: Largest stream key: a master seed and a cell id are each in 0..KEY_MAX.
KEY_MAX = _MASK64

#: Raw PCG64 outputs, little-endian, so their bytes come low half first.
_RAW_WORDS = np.dtype("<u8")

#: Most raw outputs (8 bytes each) a bit draw asks for at once: a long draw
#: goes straight into its output without a temporary of its own size.
_RAW_BLOCK = 8192


def check_key(name: str, key: Any) -> int:
    """The stream key ``key`` as an int, judged as an integer setting named
    ``name`` (:func:`~ofdmsim.framing.as_integer`: a float or a bool is a
    ``TypeError``), or a :class:`ConfigError` (a ``ValueError``) naming
    ``name`` if it is outside 0..KEY_MAX."""
    key = as_integer(name, key)
    if not 0 <= key <= KEY_MAX:
        raise ConfigError(f"{name} must be in 0..{KEY_MAX}, got {key}")
    return key


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
    :func:`make_stream` gives distinct (origin_seed, cell_id) pairs
    statistically independent streams with no shared state.
    """

    rng: np.random.Generator
    # the four bits of the high half of the last raw output, when the last
    # bit draw used only its low half; the next bit draw starts with them
    _spare_bits: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def make_stream(origin_seed: int, cell_id: int) -> RngStream:
    """Create the deterministic substream for one sweep cell.

    The internal seed is ``splitmix64(origin_seed XOR rotl64(cell_id, 32))``,
    driving a PCG64 generator.  Each key is judged by :func:`check_key`: a
    float or a bool is a ``TypeError``, and a key outside 0..KEY_MAX a
    ``ValueError``, each naming ``origin_seed`` or ``cell_id``.
    """
    key = check_key("origin_seed", origin_seed) ^ _rotl64(check_key("cell_id", cell_id), 32)
    derived = _splitmix64(key)
    return RngStream(rng=np.random.Generator(np.random.PCG64(derived)))


def draw_bits(stream: RngStream, count: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Draw ``count`` i.i.d. uniform bits as a uint8 array of 0s and 1s.

    Built from the raw PCG64 outputs as the module docstring defines, at
    most :data:`_RAW_BLOCK` outputs at a time.  ``out``, a uint8 array of
    shape ``(count,)``, receives them; the values are the ones the
    allocating form returns.
    """
    if count < 0:
        raise ValueError(f"bit count must be >= 0, got {count}")
    if out is None:
        out = np.empty(count, dtype=np.uint8)
    elif out.shape != (count,):
        raise ValueError(f"out has shape {out.shape}, not ({count},)")
    words = -(-count // 4)  # 32-bit words, one bit per byte
    if not words:
        return out
    spare, stream._spare_bits = stream._spare_bits, None
    done = 0
    if spare is not None:
        done = min(4, count)
        out[:done] = spare[:done]
    fresh = words if spare is None else words - 1
    outputs = -(-fresh // 2)
    for first in range(0, outputs, _RAW_BLOCK):
        raw = stream.rng.bit_generator.random_raw(min(_RAW_BLOCK, outputs - first))
        raw_bits = np.asarray(raw, dtype=_RAW_WORDS).view(np.uint8)
        take = min(raw_bits.size, count - done)
        np.right_shift(raw_bits[:take], 7, out=out[done:done + take])
        done += take
    if fresh % 2:  # the high half of the last output is left to the next draw
        stream._spare_bits = raw_bits[-4:] >> 7
    return out


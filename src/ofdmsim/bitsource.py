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
first; a draw of ``count`` bits takes ``ceil(count / 4)`` words
(:data:`WORD_BITS` bits each), and bit *i* is the top bit of byte *i* of
those words, least-significant byte first.  The words of a draw start with
the high half the previous bit draw left over, if it used an odd number of
words.  This is exactly the stream
``Generator.integers(0, 2, count, dtype=np.uint8)`` gives, interleaved
with Gaussian draws the same way, without its per-call overhead.  A draw
asks for all of its raw outputs at once, a temporary of one byte per bit;
the sweep never draws more than one window's bits at a time.
:func:`split_bits` hands a draw's bits to a stream of their own, so that a
long draw can be made in pieces of whole words while the stream goes on
past it.
Determinism is guaranteed within this implementation only, not across
languages or numpy bit-generator rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np
# numpy imports its submodules lazily; importing the generator with the
# package lets fork-started pool workers inherit it instead of each
# importing it on its first cell
import numpy.random  # noqa: F401

from .errors import ConfigError
from .framing import as_integer

#: Default master seed for all CLI entry points (arbitrary documented constant).
DEFAULT_MASTER_SEED = 0x0FDA_0FDA_0FDA_0FDA

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF

#: Largest stream key: a master seed and a cell id are each in 0..KEY_MAX.
KEY_MAX = _MASK64

#: Raw PCG64 outputs, little-endian, so their bytes come low half first.
_RAW_WORDS = np.dtype("<u8")

#: Bits of one 32-bit word, one per byte.  Bit draws from a split give the
#: bits of one draw when every piece but the last is a multiple of it.
WORD_BITS = 4


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

    Built from the raw PCG64 outputs as the module docstring defines, all
    asked for in one call: a temporary of one byte per bit.  ``out``, a
    uint8 array of shape ``(count,)``, receives them; the values are the
    ones the allocating form returns.
    """
    if count < 0:
        raise ValueError(f"bit count must be >= 0, got {count}")
    if out is None:
        out = np.empty(count, dtype=np.uint8)
    elif out.shape != (count,):
        raise ValueError(f"out has shape {out.shape}, not ({count},)")
    words = -(-count // WORD_BITS)  # 32-bit words, one bit per byte
    if not words:
        return out
    spare, stream._spare_bits = stream._spare_bits, None
    done = 0
    if spare is not None:
        done = min(WORD_BITS, count)
        out[:done] = spare[:done]
    fresh = words if spare is None else words - 1
    raw = stream.rng.bit_generator.random_raw(-(-fresh // 2))
    raw_bits = np.asarray(raw, dtype=_RAW_WORDS).view(np.uint8)
    np.right_shift(raw_bits[:count - done], 7, out=out[done:])
    if fresh % 2:  # the high half of the last output is left to the next draw
        stream._spare_bits = raw_bits[-WORD_BITS:] >> 7
    return out


def split_bits(stream: RngStream, count: int) -> RngStream:
    """Split the next ``count`` bits off ``stream`` into a stream of their own.

    The returned stream starts where ``draw_bits(stream, count)`` would,
    with ``stream``'s pending spare bits, and ``stream`` is left exactly
    where that draw would leave it: advanced (``PCG64.advance``) past the
    raw outputs of the draw's whole pairs of fresh words, and, if the draw
    takes an odd number of fresh words, past the last output too, by a
    :func:`draw_bits` of one word, which keeps its high half as the spare.
    Bit draws from the split of pieces that are each a multiple of
    :data:`WORD_BITS`, then of a last piece of any size, ``count`` bits in
    all, give the bits of that one draw.
    """
    if count < 0:
        raise ValueError(f"bit count must be >= 0, got {count}")
    words = -(-count // WORD_BITS)  # as draw_bits: a draw of no words leaves the spare
    spare = stream._spare_bits if words else None
    twin = np.random.PCG64(0)
    twin.state = stream.rng.bit_generator.state
    split = RngStream(rng=np.random.Generator(twin), _spare_bits=spare)
    if not words:
        return split
    stream._spare_bits = None
    fresh = words if spare is None else words - 1
    stream.rng.bit_generator.advance(fresh // 2)
    if fresh % 2:
        draw_bits(stream, WORD_BITS)
    return split

"""BER counting, Wilson confidence intervals, and closed-form M-PSK references."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from .errors import LengthError
from .framing import OfdmConfig
from .psk import bits_per_symbol

#: Width of every confidence interval, in standard deviations.
Z = 3.0


def count_bit_errors(tx: np.ndarray, rx: np.ndarray) -> tuple[int, int]:
    """Hamming distance and total length of two equal-length bit blocks."""
    tx = np.asarray(tx)
    rx = np.asarray(rx)
    if tx.size != rx.size:
        raise LengthError(f"bit blocks differ in length: {tx.size} vs {rx.size}")
    return int(np.count_nonzero(tx != rx)), int(tx.size)


def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x) via the complementary error function."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def theoretical_mpsk_ber(ebno_db: float, order: int) -> float:
    """Closed-form Gray-mapped M-PSK bit error rate over AWGN.

    BPSK and QPSK use the exact per-bit result Q(sqrt(2*gamma_b)); larger
    orders use the nearest-neighbour symbol error rate
    2*Q(sqrt(2*b*gamma_b)*sin(pi/M)) divided by b bits per symbol.
    """
    b = bits_per_symbol(order)
    gamma_b = 10.0 ** (ebno_db / 10.0)
    if order in (2, 4):
        return qfunc(math.sqrt(2.0 * gamma_b))
    ser = 2.0 * qfunc(math.sqrt(2.0 * b * gamma_b) * math.sin(math.pi / order))
    return ser / b


def wilson_interval(errors: int, total: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at :data:`Z` standard deviations.

    Well-behaved at zero observed errors, which low-BER cells routinely hit.
    """
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if not 0 <= errors <= total:
        raise ValueError(f"errors {errors} outside [0, {total}]")
    p = errors / total
    z2n = Z * Z / total
    denom = 1.0 + z2n
    center = (p + z2n / 2.0) / denom
    half = (Z / denom) * math.sqrt(p * (1.0 - p) / total + z2n / (4.0 * total))
    # the bounds are exactly 0/1 at the boundaries; don't let rounding drift them
    low = 0.0 if errors == 0 else max(0.0, center - half)
    high = 1.0 if errors == total else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class BerRecord:
    """One measured sweep cell; its fields, in order, are the :data:`CSV_COLUMNS`,
    and their annotations the column types the record readers and writers use."""

    fft_size: int
    cp_fraction: str
    channel: str
    ebno_db: float
    bits_sent: int
    bit_errors: int
    ber: float
    ci_low: float
    ci_high: float
    zf_clamps: int
    seed: int
    cell_id: int

    def row(self) -> dict[str, Any]:
        """The record as the flat column dict used by the CSV/JSON emitters."""
        return {c: getattr(self, c) for c in CSV_COLUMNS}


#: Column order shared by the CSV and JSON record emitters.
CSV_COLUMNS = tuple(f.name for f in fields(BerRecord))


def as_row(record: Any) -> dict[str, Any]:
    """The column dict of a :class:`BerRecord`, or a row dict as given."""
    return record.row() if hasattr(record, "row") else dict(record)


def make_record(
    config: OfdmConfig,
    channel_summary: str,
    ebno_db: float,
    bits_sent: int,
    bit_errors: int,
    zf_clamps: int,
    seed: int,
    cell_id: int,
) -> BerRecord:
    """Assemble a BerRecord, deriving BER and its Wilson interval."""
    low, high = wilson_interval(bit_errors, bits_sent)
    return BerRecord(
        fft_size=config.fft_size,
        cp_fraction=str(config.cp_fraction),
        channel=channel_summary,
        ebno_db=ebno_db,
        bits_sent=bits_sent,
        bit_errors=bit_errors,
        ber=bit_errors / bits_sent,
        ci_low=low,
        ci_high=high,
        zf_clamps=zf_clamps,
        seed=seed,
        cell_id=cell_id,
    )

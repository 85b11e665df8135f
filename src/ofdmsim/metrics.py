"""BER counting, Wilson confidence intervals, and closed-form M-PSK references."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import LengthError, OrderError
from .framing import OfdmConfig
from .psk import is_power_of_two

#: Column order shared by the CSV and JSON record emitters.
CSV_COLUMNS = (
    "fft_size",
    "cp_fraction",
    "channel",
    "ebno_db",
    "bits_sent",
    "bit_errors",
    "ber",
    "ci_low",
    "ci_high",
    "zf_clamps",
    "seed",
    "cell_id",
)


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
    if not (is_power_of_two(order) and order >= 2):
        raise OrderError(f"modulation order must be a power of two >= 2, got {order}")
    b = order.bit_length() - 1
    gamma_b = 10.0 ** (ebno_db / 10.0)
    if order in (2, 4):
        return qfunc(math.sqrt(2.0 * gamma_b))
    ser = 2.0 * qfunc(math.sqrt(2.0 * b * gamma_b) * math.sin(math.pi / order))
    return ser / b


def wilson_interval(errors: int, total: int, z: float = 3.0) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at z standard deviations.

    Well-behaved at zero observed errors, which low-BER cells routinely hit.
    """
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if not 0 <= errors <= total:
        raise ValueError(f"errors {errors} outside [0, {total}]")
    p = errors / total
    z2n = z * z / total
    denom = 1.0 + z2n
    center = (p + z2n / 2.0) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / total + z2n / (4.0 * total))
    # the bounds are exactly 0/1 at the boundaries; don't let rounding drift them
    low = 0.0 if errors == 0 else max(0.0, center - half)
    high = 1.0 if errors == total else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class BerRecord:
    """One measured sweep cell: parameters, counts, and the derived BER."""

    config: OfdmConfig
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
    equalizer: str = "zf"

    def row(self) -> dict[str, Any]:
        """The record as the flat column dict used by the CSV/JSON emitters."""
        return {
            "fft_size": self.config.fft_size,
            "cp_fraction": str(self.config.cp_fraction),
            "channel": self.channel,
            "ebno_db": self.ebno_db,
            "bits_sent": self.bits_sent,
            "bit_errors": self.bit_errors,
            "ber": self.ber,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "zf_clamps": self.zf_clamps,
            "seed": self.seed,
            "cell_id": self.cell_id,
        }


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
    equalizer: str = "zf",
) -> BerRecord:
    """Assemble a BerRecord, deriving BER and its z=3 Wilson interval."""
    low, high = wilson_interval(bit_errors, bits_sent)
    return BerRecord(
        config=config,
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
        equalizer=equalizer,
    )

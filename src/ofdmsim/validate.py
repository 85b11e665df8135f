"""Self-checks comparing the simulator against its analytic references.

Three families of checks, one function each.  ``ofdmsim validate`` runs all
three (:func:`run_validation`) and acceptance tests A1-A3 run one each, so
every tolerance is stated once (the interval width is ``metrics.Z``, the
rest are here):

* theory match -- raw 8-PSK over AWGN against the closed-form BER, at
  Eb/No 4/8/12 dB, within 10% relative and inside the z=3 Wilson interval.
  The raw modem is the N=1, CP 0 cell of the same chain (:data:`RAW_MODEM`):
  with one subcarrier the unitary transforms are the identity and there is
  no prefix or padding, so the cell is plain PSK plus noise;
* transparency -- the full OFDM chain over AWGN (N=64 and 512, CP 1/4, no
  overhead accounting) must be statistically indistinguishable from that
  raw modem at the same Eb/No (overlapping z=3 intervals);
* noiseless identity -- every (FFT size, CP fraction, channel) grid cell
  recovers its bits exactly at the noiseless point, Eb/No +inf, where the
  noise step adds -0.0, when the delay-line memory fits inside the cyclic
  prefix.

Every cell runs through ``sweep.run_cell``, the chain a sweep runs, so a
miscalibrated build (say, a wrong noise variance) fails the checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bitsource import DEFAULT_MASTER_SEED, check_key
from .channel import AWGN, FLAT, TDL, ChannelSpec, exponential_pdp
from .framing import OfdmConfig, as_integer
from .metrics import theoretical_mpsk_ber
from .sweep import SUPPORTED_FFT_SIZES, run_cell

THEORY_EBNO_POINTS_DB = (4.0, 8.0, 12.0)
TRANSPARENCY_FFT_SIZES = (64, 512)
IDENTITY_CP_FRACTIONS = (
    Fraction(1, 32),
    Fraction(1, 16),
    Fraction(1, 8),
    Fraction(1, 4),
    Fraction(1, 2),
)
#: The fewest bits of a theory point, unless a run sets its own floor.
BITS_FLOOR = 1_000_000

#: Largest relative deviation of a theory point from the closed form.
REL_TOLERANCE = 0.10

_ORDER = 8
_AWGN = ChannelSpec(kind=AWGN)

#: The raw modem: a single-carrier cell, run in repetitions of 3 Mbit.
RAW_MODEM = OfdmConfig(
    fft_size=1, cp_fraction=0, modulation_order=_ORDER, bit_budget=3_000_000
)

#: Raw-modem baseline per theory Eb/No: (Wilson interval, bits asked for).
Baselines = dict[float, tuple[tuple[float, float], int]]


def intervals_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return not (a[1] < b[0] or b[1] < a[0])


def _point_bits(bits_floor: int, theory_ber: float) -> int:
    """Bits for one theory point: at least the floor, in whole multiples of
    it, enough that the point collects about 1 200 errors."""
    return bits_floor * max(1, math.ceil(1200.0 / (theory_ber * bits_floor)))


@dataclass(frozen=True)
class ValidationRow:
    check: str
    detail: str
    observed: str
    passed: bool


def check_awgn_theory(seed: int, bits_floor: int) -> tuple[list[ValidationRow], Baselines]:
    """Theory-match rows, and the baselines the transparency check uses."""
    rows: list[ValidationRow] = []
    baselines: Baselines = {}
    b = RAW_MODEM.bits_per_symbol
    for i, ebno in enumerate(THEORY_EBNO_POINTS_DB):
        theory = theoretical_mpsk_ber(ebno, _ORDER)
        n_bits = _point_bits(bits_floor, theory)
        # no error target: the cell sends the asked bits, floored to symbols
        record = run_cell(
            RAW_MODEM, _AWGN, ebno, seed, 9001 + i,
            target_errors=2**62, max_bits=n_bits // b * b,
        )
        ci = (record.ci_low, record.ci_high)
        rel = abs(record.ber - theory) / theory
        baselines[ebno] = (ci, n_bits)
        rows.append(ValidationRow(
            check="awgn-theory",
            detail=f"M={_ORDER} Eb/No={ebno:g}dB bits={record.bits_sent}",
            observed=f"sim={record.ber:.4e} theory={theory:.4e} rel={rel:.3f}",
            passed=rel <= REL_TOLERANCE and ci[0] <= theory <= ci[1],
        ))
    return rows, baselines


def check_ofdm_transparency(baselines: Baselines, seed: int) -> list[ValidationRow]:
    """Transparency rows: each cell sends the bits its baseline asked for."""
    rows: list[ValidationRow] = []
    for j, fft_size in enumerate(TRANSPARENCY_FFT_SIZES):
        config = OfdmConfig(
            fft_size=fft_size, cp_fraction=Fraction(1, 4),
            modulation_order=_ORDER, bit_budget=240_000,
        )
        for i, ebno in enumerate(THEORY_EBNO_POINTS_DB):
            base_ci, n_bits = baselines[ebno]
            record = run_cell(
                config, _AWGN, ebno, seed, 9101 + 10 * j + i,
                target_errors=2**62, max_bits=n_bits,
            )
            rows.append(ValidationRow(
                check="ofdm-transparency",
                detail=f"N={fft_size} CP=1/4 Eb/No={ebno:g}dB bits={record.bits_sent}",
                observed=f"ofdm={record.ber:.4e} raw_ci=[{base_ci[0]:.3e},{base_ci[1]:.3e}]",
                passed=intervals_overlap((record.ci_low, record.ci_high), base_ci),
            ))
    return rows


def check_noiseless_identity(seed: int) -> list[ValidationRow]:
    """Noiseless-identity rows across the whole grid, all three channels."""
    rows: list[ValidationRow] = []
    cell = 9201
    for fft_size in SUPPORTED_FFT_SIZES:
        for frac in IDENTITY_CP_FRACTIONS:
            config = OfdmConfig(
                fft_size=fft_size, cp_fraction=frac,
                modulation_order=_ORDER, bit_budget=1500,
            )
            memory = min(8, config.cp_len)
            for spec in (
                _AWGN,
                ChannelSpec(kind=FLAT),
                ChannelSpec(kind=TDL, taps=exponential_pdp(memory + 1, 1.0)),
            ):
                record = run_cell(
                    config, spec, math.inf, seed, cell,
                    target_errors=1, max_bits=4500,
                )
                cell += 1
                rows.append(ValidationRow(
                    check="noiseless-identity",
                    detail=f"N={fft_size} CP={frac} {spec.kind}",
                    observed=f"errors={record.bit_errors}/{record.bits_sent}",
                    passed=record.bit_errors == 0,
                ))
    return rows


def run_validation(seed: int = DEFAULT_MASTER_SEED,
                   bits_floor: int = BITS_FLOOR) -> tuple[list[ValidationRow], bool]:
    """Run the three families in order; returns (rows, all_passed).

    ``seed`` is a stream key (:func:`~ofdmsim.bitsource.check_key`, in
    0..2^64-1) and ``bits_floor`` an integer of at least 1, the fewest
    bits of a theory point; their defaults are ``ofdmsim validate``'s.
    Both are judged before any cell runs: a float or a bool is a
    ``TypeError``, and a value out of range a
    :class:`~ofdmsim.errors.ConfigError`, each naming the setting.
    """
    seed = check_key("seed", seed)
    bits_floor = as_integer("bits_floor", bits_floor, minimum=1)
    rows, baselines = check_awgn_theory(seed, bits_floor)
    rows += check_ofdm_transparency(baselines, seed)
    rows += check_noiseless_identity(seed)
    return rows, all(r.passed for r in rows)


def format_table(rows: list[ValidationRow]) -> str:
    lines = [f"{'status':6}  {'check':18}  {'point':34}  observation"]
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        lines.append(f"{status:6}  {row.check:18}  {row.detail:34}  {row.observed}")
    return "\n".join(lines)

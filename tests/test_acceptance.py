"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py
-v -s`` to see them.  A1-A3 run the three check families of ``ofdmsim
validate`` (``ofdmsim.validate``, where their tolerances live) and hold them
there: every row must pass, within the stated time, and A1 pins the
theory-match tolerance and the interval width.  A4-A9 state their own.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from ofdmsim import metrics, validate
from ofdmsim.bitsource import DEFAULT_MASTER_SEED, make_stream
from ofdmsim.channel import (
    ChannelSpec,
    complex_gaussian,
    ebno_to_noise_variance,
    exponential_pdp,
)
from ofdmsim.framing import OfdmConfig
from ofdmsim.psk import map_psk
from ofdmsim.sweep import run_cell
from ofdmsim.transform import unitary_dft, unitary_idft
from reference import direct_transform, post_dft_deviation

SEED = DEFAULT_MASTER_SEED
FFT_SIZES = (64, 128, 256, 512)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{criterion} {'PASS' if passed else 'FAIL'}: {detail}")


def report_rows(criterion: str, rows, elapsed: float, limit: float = float("inf")) -> None:
    """One line for a check family; assert every row passed within ``limit`` s."""
    failed = [f"{row.detail}: {row.observed}" for row in rows if not row.passed]
    ok = bool(rows) and not failed and elapsed < limit
    report(criterion, ok,
           f"{len(rows)} {rows[0].check} rows in {elapsed:.1f}s"
           + (f"; failures: {failed}" if failed else ""))
    assert ok


@pytest.fixture(scope="module")
def awgn_theory():
    """The theory-match family, run once: (rows, raw-modem baselines, seconds)."""
    start = time.perf_counter()
    rows, baselines = validate.check_awgn_theory(SEED, bits_floor=1_000_000)
    return rows, baselines, time.perf_counter() - start


def test_a1_awgn_theory_match(awgn_theory):
    rows, _, elapsed = awgn_theory
    assert validate.REL_TOLERANCE == 0.10 and metrics.Z == 3.0
    report_rows("A1", rows, elapsed, limit=30.0)


def test_a2_ofdm_transparency_over_awgn(awgn_theory):
    _, baselines, _ = awgn_theory
    start = time.perf_counter()
    rows = validate.check_ofdm_transparency(baselines, SEED)
    report_rows("A2", rows, time.perf_counter() - start)


def test_a3_noiseless_identity_full_grid():
    start = time.perf_counter()
    rows = validate.check_noiseless_identity(SEED)
    assert len(rows) == len(FFT_SIZES) * 5 * 3  # every (N, CP) cell, all three channels
    report_rows("A3", rows, time.perf_counter() - start, limit=10.0)


def test_a4_circular_convolution_equivalence():
    good = max(post_dft_deviation(64, 16, memory=8, seed=1234 + k, n_frames=6) for k in range(3))
    bad = min(post_dft_deviation(64, 4, memory=8, seed=1244 + k, n_frames=6) for k in range(3))
    ok = good < 1e-9 and bad > 1e-3
    report("A4", ok,
           f"memory 8: CP 16 deviation {good:.2e} < 1e-9; CP 4 deviation {bad:.2e} > 1e-3")
    assert ok


def test_a5_error_floor_ordering():
    all_ok = True
    details = []
    for k, fft_size in enumerate(FFT_SIZES):
        memory = 3 * fft_size // 16  # between L(1/32) and L(1/4) for every size
        taps = tuple(exponential_pdp(memory + 1, 0.0))
        spec = ChannelSpec(kind="tdl", taps=taps)
        records = {}
        for j, frac in enumerate((Fraction(1, 32), Fraction(1, 4), Fraction(1, 2))):
            config = OfdmConfig(fft_size, frac, modulation_order=8, bit_budget=3000)
            records[frac] = run_cell(config, spec, 20.0, SEED, 9501 + 10 * k + j,
                                     target_errors=400, max_bits=500_000)
        short, quarter, half = (records[Fraction(1, 32)], records[Fraction(1, 4)],
                                records[Fraction(1, 2)])
        ratio = short.ber / quarter.ber
        same = validate.intervals_overlap((quarter.ci_low, quarter.ci_high),
                                          (half.ci_low, half.ci_high))
        ok = ratio > 10.0 and same
        all_ok &= ok
        details.append(f"N={fft_size} ratio={ratio:.1f} quarter~half={same}")
    report("A5", all_ok, "CP 1/32 floors, 1/4 ~ 1/2: " + "; ".join(details))
    assert all_ok


def test_a6_fft_size_ordering():
    # fixed 9-tap channel; G=1/16 crosses the memory between N=64 (L=4) and
    # N=512 (L=32)
    taps = tuple(exponential_pdp(9, 0.0))
    spec = ChannelSpec(kind="tdl", taps=taps)
    records = {}
    for k, fft_size in enumerate((64, 512)):
        config = OfdmConfig(fft_size, Fraction(1, 16), modulation_order=8, bit_budget=3000)
        records[fft_size] = run_cell(config, spec, 20.0, SEED, 9601 + k,
                                     target_errors=400, max_bits=500_000)
    small, large = records[64], records[512]
    separated = large.ci_high < small.ci_low
    ok = large.ber < small.ber and separated
    report("A6", ok,
           f"BER(512)={large.ber:.3e} < BER(64)={small.ber:.3e}, disjoint z=3 intervals={separated}")
    assert ok


def test_a7_transform_oracle():
    worst_direct = 0.0
    worst_roundtrip = 0.0
    worst_parseval = 0.0
    for n in FFT_SIZES:
        rng = np.random.default_rng(n)
        for _ in range(100):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            fast = unitary_idft(x)
            worst_direct = max(worst_direct,
                               float(np.max(np.abs(fast - direct_transform(x, inverse=True)))))
            fwd = unitary_dft(x)
            worst_direct = max(worst_direct,
                               float(np.max(np.abs(fwd - direct_transform(x, inverse=False)))))
            worst_roundtrip = max(worst_roundtrip,
                                  float(np.max(np.abs(unitary_dft(fast) - x))))
            e_in = float(np.sum(np.abs(x) ** 2))
            worst_parseval = max(worst_parseval,
                                 abs(float(np.sum(np.abs(fwd) ** 2)) - e_in) / e_in)
    ok = worst_direct < 1e-10 and worst_roundtrip < 1e-12 and worst_parseval < 1e-10
    report("A7", ok,
           f"direct={worst_direct:.2e} roundtrip={worst_roundtrip:.2e} parseval={worst_parseval:.2e}")
    assert ok


def test_a8_determinism_across_worker_counts(tmp_path):
    config = {
        "fft_sizes": [64, 128],
        "cp_fractions": ["1/4", "1/16"],
        "ebno_points_db": [6, 14, 20],
        "channel": "tdl",
        "tdl_len": 9,
        "tdl_decay_db": 1.0,
        "master_seed": 20240117,
        "max_bits_per_cell": 60_000,
        "target_errors": 60,
        "bit_budget": 3000,
    }
    config_path = tmp_path / "grid.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for workers, name in (("1", "w1.csv"), ("3", "w3.csv")):
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "ofdmsim", "sweep", "--workers", workers,
             "--config", str(config_path), "--out", str(out)],
            capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    report("A8", ok, f"CSV bytes identical across 1 vs 3 workers ({len(outputs[0])} bytes)")
    assert ok


def test_a9_noise_calibration():
    ebno_db = 10.0
    sigma2 = ebno_to_noise_variance(ebno_db, validate.RAW_MODEM, ChannelSpec(kind="awgn"))
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, size=3_000_000, dtype=np.uint8)  # 1e6 symbols
    x = map_psk(bits, 8)
    noise = complex_gaussian(make_stream(SEED, 9901), x.size, sigma2)
    measured = 10 * np.log10(np.mean(np.abs(x) ** 2) / np.mean(np.abs(noise) ** 2))
    configured = 10 * np.log10(1.0 / sigma2)
    ok = abs(measured - configured) < 0.1
    report("A9", ok, f"per-sample SNR measured {measured:.3f} dB vs configured {configured:.3f} dB")
    assert ok

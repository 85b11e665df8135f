"""Records golden: the sha256 of the CSV from small fixed grids, one per channel.

The digests were taken from the per-repetition implementation that preceded
chunked execution, so they pin the records themselves: any change to the
draw order, the stop rule or the arithmetic of the chain shows up here.  A
change that alters records on purpose re-pins these digests and says why.

The grids are chosen to reach the stop-rule corners:

* cells that stop on ``target_errors`` after several repetitions, so the
  stopping repetition falls inside a chunk;
* ``max_bits`` that is not a multiple of the repetition size, so the cell
  ends with shorter repetitions (down to one symbol);
* ``max_bits`` below ``bit_budget``;
* an infinite Eb/No, where the noise variance is exactly zero and no noise
  is drawn;
* flat fading with and without the equalizer, and a delay line with and
  without a sufficient cyclic prefix.

The ``*_windowed`` grids run repetitions of 90 000 bits, which span two or
three windows of ``_CHUNK_SAMPLES`` time-domain samples with a partial last
window, and a cap that ends each capped cell in a 49 998-bit and a 3-bit
repetition.  Their digests were taken before long repetitions ran window by
window, when each ran as one chunk alone, so they pin the windowed draws,
the delay line carried across window boundaries (the TDL rows at CP 0 and
CP 1/32 have ISI spilling over every boundary) and the per-window flat
gains to the records of the whole-repetition chain.
"""

import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from ofdmsim.channel import ChannelSpec, exponential_pdp
from ofdmsim.sweep import SweepGrid, run_cell, run_grid, write_records
from ofdmsim.validate import RAW_MODEM

NOISELESS = float("inf")
TDL = ChannelSpec(kind="tdl", taps=tuple(exponential_pdp(9, 1.0)))

GRIDS = {
    "awgn": SweepGrid(
        fft_sizes=(64, 512), cp_fractions=(Fraction(1, 4), Fraction(1, 32)),
        ebno_points_db=(0.0, 6.0, 8.0, 10.0, NOISELESS), channel=ChannelSpec(kind="awgn"),
        master_seed=20221, max_bits_per_cell=20_000, target_errors=50, bit_budget=1000,
    ),
    "awgn_small_cap": SweepGrid(
        fft_sizes=(128,), cp_fractions=(Fraction(1, 16),),
        ebno_points_db=(2.0, 8.0, NOISELESS), channel=ChannelSpec(kind="awgn"),
        master_seed=20222, max_bits_per_cell=2000, target_errors=1, bit_budget=3000,
    ),
    "flat": SweepGrid(
        fft_sizes=(64, 256), cp_fractions=(Fraction(1, 4),),
        ebno_points_db=(10.0, 20.0, 30.0, NOISELESS), channel=ChannelSpec(kind="flat"),
        master_seed=20223, max_bits_per_cell=30_000, target_errors=20, bit_budget=1000,
    ),
    "flat_noeq": SweepGrid(
        fft_sizes=(64, 128), cp_fractions=(Fraction(1, 16),),
        ebno_points_db=(10.0, 30.0), channel=ChannelSpec(kind="flat"),
        master_seed=20224, max_bits_per_cell=9000, target_errors=2000, bit_budget=1000,
        use_equalizer=False,
    ),
    "tdl": SweepGrid(
        fft_sizes=(64, 256), cp_fractions=(Fraction(0), Fraction(1, 16), Fraction(1, 4)),
        ebno_points_db=(5.0, 20.0, NOISELESS), channel=TDL,
        master_seed=20225, max_bits_per_cell=12_000, target_errors=30, bit_budget=500,
    ),
    "tdl_small_cap": SweepGrid(
        fft_sizes=(512,), cp_fractions=(Fraction(1, 32), Fraction(1, 4)),
        ebno_points_db=(0.0, 15.0), channel=TDL,
        master_seed=20226, max_bits_per_cell=2000, target_errors=5, bit_budget=3000,
    ),
    "awgn_windowed": SweepGrid(
        fft_sizes=(64, 512), cp_fractions=(Fraction(1, 4), Fraction(1, 32)),
        ebno_points_db=(4.0, 10.0, NOISELESS), channel=ChannelSpec(kind="awgn"),
        master_seed=20228, max_bits_per_cell=230_000, target_errors=100, bit_budget=90_000,
    ),
    "flat_windowed": SweepGrid(
        fft_sizes=(64, 512), cp_fractions=(Fraction(1, 16),),
        ebno_points_db=(20.0, 30.0, NOISELESS), channel=ChannelSpec(kind="flat"),
        master_seed=20229, max_bits_per_cell=230_000, target_errors=300, bit_budget=90_000,
    ),
    "flat_windowed_noeq": SweepGrid(
        fft_sizes=(64, 512), cp_fractions=(Fraction(1, 16),),
        ebno_points_db=(30.0,), channel=ChannelSpec(kind="flat"),
        master_seed=20230, max_bits_per_cell=230_000, target_errors=10**6, bit_budget=90_000,
        use_equalizer=False,
    ),
    "tdl_windowed": SweepGrid(
        fft_sizes=(64, 512), cp_fractions=(Fraction(0), Fraction(1, 32)),
        ebno_points_db=(20.0, NOISELESS), channel=TDL,
        master_seed=20231, max_bits_per_cell=230_000, target_errors=6000, bit_budget=90_000,
    ),
}

CSV_SHA256 = {
    "awgn": "da4996747ba8cb17d559142f4fab655d810dc6bce4fbf89ec95273c86b82fffb",
    "awgn_small_cap": "1b5a296af1605ebec7ffeed7c50c1490bd6a5334683dee8723d87ebd499a20eb",
    "flat": "aefdd58b67e6009945d7c4f5d748a57b2fd1eac49986016e60b62ca300771966",
    "flat_noeq": "be790420eff1aa33062398c4aab1588bb36468157538c579a6a1b51da994d8cd",
    "tdl": "832b509e9dd5d065b42c614e6a26f9796ad1be64b865d5427cc7a56482c10f66",
    "tdl_small_cap": "15344c28c39066d670cc41dbbfabce1b462a1ef574c6a23d644a26345b1ab011",
    "awgn_windowed": "b7b82b60f928bb51a85c9675ce61d1ccffc66102b28597548640a2c62d627326",
    "flat_windowed": "ef925b5dd5dddbc4e901f322e5f662e5b1e798a3296b7a9fbc6a5e242d1b7bdb",
    "flat_windowed_noeq": "e3e4c94c99fd23147af05978032b8694210da0ac9d13d596b275c573c41d7862",
    "tdl_windowed": "fb101cb8f51eabb3f1a4506d197706e59dc3b6e15c1c72bf95d0081ca88c2bd7",
}


def csv_sha256(grid: SweepGrid, tmp_path) -> str:
    path = tmp_path / "records.csv"
    write_records(run_grid(grid), str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_records_match_the_golden(name, tmp_path):
    assert csv_sha256(GRIDS[name], tmp_path) == CSV_SHA256[name]


def test_raw_modem_matches_the_golden():
    # validate's single-carrier cell, in several repetitions plus a short final
    # one, at a BER with a few hundred errors; the golden was taken from the
    # separate raw-modem loop that this cell replaced
    config = replace(RAW_MODEM, bit_budget=7000)
    record = run_cell(config, ChannelSpec(kind="awgn"), 6.0, 20227, 0,
                      target_errors=2**62, max_bits=30_000)
    assert (record.bit_errors, record.bits_sent) == (620, 30_000)

"""Smoke test of the benchmark on a tiny grid (about 10 s).

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric declared in BENCHMARK.json prints by name with its
unit, in both modes, and that the records gate catches a perturbed record
and a corrupted CSV.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEED = 3


def _tiny(workers):
    def configs(seed):
        return [("tdl", {"channel": "tdl", "tdl_len": 9, "tdl_decay_db": 1.0,
                         "master_seed": seed, "fft_sizes": [64, 128], "cp_fractions": ["1/4"],
                         "ebno_points_db": [0.0, 10.0], "max_bits_per_cell": 20_000})]
    return run.Workload("tiny", workers, configs)


@pytest.fixture
def bench(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "PINNED_PATH", tmp_path / "pinned.json")
    monkeypatch.setattr(run, "SETUP_PROBES", 2)

    def invoke(trace=0, workers=1):
        monkeypatch.setitem(run.WORKLOADS, "tiny", _tiny(workers))
        argv = ["--workload", "tiny", "--seed", str(SEED), "--seconds", "0.3",
                "--trace", str(trace)]
        assert run.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        return lines, json.loads(lines[-1])

    return invoke


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(bench, trace):
    lines, result = bench(trace=trace, workers=2)
    spec = json.loads(run.SPEC_PATH.read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']}: ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]


def _perturb_first_cell(monkeypatch):
    real = run.sweep_mod.run_cell

    def perturbed(*args, **kwargs):
        record = real(*args, **kwargs)
        if record.cell_id == 0:
            record = dataclasses.replace(record, bit_errors=record.bit_errors + 1)
        return record

    monkeypatch.setattr(run.sweep_mod, "run_cell", perturbed)


@pytest.mark.parametrize("pin", [True, False])
def test_gate_catches_a_perturbed_record(bench, monkeypatch, pin):
    _, clean = bench()
    assert clean["correct"]
    if pin:  # pinned digest; otherwise the digest an earlier run of this code saw
        digest = json.loads((run.OUT / "tiny" / "result_trace0.json").read_text())["digests"][0]
        run.PINNED_PATH.write_text(json.dumps({"tiny": {str(SEED): digest}}))
        (run.OUT / "state.json").unlink()
    _perturb_first_cell(monkeypatch)
    lines, result = bench()
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any(line.startswith("FAILED: records sha256") for line in lines)


def test_gate_catches_a_corrupted_csv(bench, monkeypatch):
    real = run.sweep_mod.write_records

    def corrupting(records, path, fmt="csv"):
        real(records, path, fmt)
        text = Path(path).read_text()
        Path(path).write_text(text.replace(",tdl:", ",tdl:9", 1))

    monkeypatch.setattr(run.sweep_mod, "write_records", corrupting)
    lines, result = bench()
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("does not round-trip" in line for line in lines)

#!/usr/bin/env python3
"""ofdmsim benchmark: default-grid wall time and Mbit/s, plus a per-layer trace.

    python3 bench/run.py --workload awgn_grid --seed 1 --seconds 25 --trace 0

Each pass drives the public API the way ``scripts/run_experiment_grid.py``
does: ``run_grid``, then ``write_records``, ``emit_plot`` and
``read_records``.  Passes repeat while another fits in ``--seconds`` (at
least one runs).  Every pass is gated: its CSVs must hash to the pinned digest for the
seed (``bench/pinned_digests.json``), or, for an unpinned seed, to the
digest of the other passes and of earlier runs of the same code, and
``read_records`` must give back every row exactly.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics: in a traced pass this file wraps the ofdmsim functions
that the sweep calls (in the ``ofdmsim.sweep`` and ``ofdmsim.channel``
namespaces) with spans kept in memory and saved when the run ends.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (cells) and ``metrics``; metric names and
units come from ``BENCHMARK.json``.  Side outputs go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from setup_probe import SRC, build_grid, import_ofdmsim  # noqa: E402

import_ofdmsim()

import numpy as np  # noqa: E402

import ofdmsim.channel as channel_mod  # noqa: E402
import ofdmsim.sweep as sweep_mod  # noqa: E402
from ofdmsim.sweep import SweepFailure  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
PINNED_PATH = HERE / "pinned_digests.json"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
TAIL_SAMPLES = 10  # a tail percentile needs at least this many samples beyond it


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    configs: Callable[[int], list[tuple[str, dict]]]  # seed -> [(label, grid config)]


def _awgn_grid(seed: int) -> list[tuple[str, dict]]:
    return [("awgn", {"channel": "awgn", "master_seed": seed})]


FADING_SEEDS = 3  # grids per channel model in one fading_grid pass


def _fading_grid(seed: int) -> list[tuple[str, dict]]:
    configs = []
    for i in range(FADING_SEEDS):
        master = seed * FADING_SEEDS + i
        configs.append((f"flat_{i}", {"channel": "flat", "master_seed": master}))
        configs.append((f"tdl_{i}", {"channel": "tdl", "tdl_len": 9, "tdl_decay_db": 1.0,
                                     "master_seed": master}))
    return configs


def _awgn_batch(seed: int) -> list[tuple[str, dict]]:
    # bit_budget equal to the default 2 M-bit cap: one large repetition per cell
    return [("batch", {"channel": "awgn", "master_seed": seed, "ebno_points_db": [20.0],
                       "bit_budget": 2_000_000})]


WORKLOADS = {
    "awgn_grid": Workload("awgn_grid", 1, _awgn_grid),
    "fading_grid": Workload("fading_grid", 2, _fading_grid),
    "awgn_batch": Workload("awgn_batch", 1, _awgn_batch),
}

# Counts that must repeat exactly between runs of the same code and seed.
EXACT_COUNTS = (
    "sweep.reps", "sweep.capped_cells", "bitsource.bits_drawn", "psk.symbols",
    "transform.samples", "transform.bytes_computed", "framing.slot_use_ratio",
    "channel.realizations", "equalizer.zf_clamps", "sweep.csv_bytes", "svgplot.bytes",
)


# --------------------------------------------------------------------- tracing

class Tracer:
    """Spans (name, start, end, parent) in flat arrays, plus work counters.

    Calls run on one thread, so spans nest: the parent of a span is the
    innermost span open when it starts.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("H")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def span_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, fn, name, count=None):
        """``fn`` inside a span; ``name`` is a span name or a function of the args."""
        pick = None if isinstance(name, str) else name
        nid = self.span_id(name) if pick is None else None
        start, end, names, parents, stack = self.start, self.end, self.name, self.parent, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid if pick is None else self.span_id(pick(args)))
            parents.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                count(self.counts, args, out)
            return out

        return wrapper

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name id, parent index, duration ns) of every span, as arrays."""
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        return name, parent, dur

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns and self ns (span minus its children)."""
        name, parent, dur = self.columns()
        n_names = len(self.names)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        calls = np.bincount(name, minlength=n_names)
        incl = np.bincount(name, weights=dur, minlength=n_names)
        self_ns = np.bincount(name, weights=dur - children, minlength=n_names)
        return {n: {"calls": int(calls[i]), "incl_ns": float(incl[i]), "self_ns": float(self_ns[i])}
                for i, n in enumerate(self.names)}

    def root_ns(self) -> int:
        """Time covered by spans that have no parent."""
        _, parent, dur = self.columns()
        return int(dur[parent < 0].sum())

    def durations(self, span: str) -> np.ndarray:
        """Inclusive durations (ns) of every span with this name, in call order."""
        name, _, dur = self.columns()
        return dur[name == self.ids[span]] if span in self.ids else np.empty(0)

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64))


def _noise_or_gains(args) -> str:
    # The channel module draws fading gains at unit power (variance 1.0) and
    # noise at the cell's calibrated variance, which no workload sets to 1.0.
    return "channel.gains" if args[2] == 1.0 else "channel.noise"


def _count_bits(c, args, out):
    c["bits_drawn"] += out.size


def _count_symbols(c, args, out):
    c["symbols"] += out.size


def _count_slots(c, args, out):
    matrix, used = out
    c["slots_used"] += used
    c["slots"] += matrix.size


def _count_transform(c, args, out):
    c["samples"] += out.size
    c["bytes"] += np.asarray(args[0]).nbytes + out.nbytes


def _count_realization(c, args, out):
    if out.kind != channel_mod.AWGN:
        c["realizations"] += 1


def _count_flat_gains(c, args, out):
    if _noise_or_gains(args) == "channel.gains":  # per-frame flat gains drawn by the sweep
        c["realizations"] += out.size


def _count_clamps(c, args, out):
    c["zf_clamps"] += out[1]


def _count_csv(c, args, out):
    c["csv_bytes"] += os.path.getsize(args[1])


def _count_svg(c, args, out):
    c["svg_bytes"] += sum(os.path.getsize(p) for p in out)


# (module, attribute, span name, counter): the public functions the sweep calls,
# wrapped in the namespace the caller looks them up in.
TRACE_POINTS = (
    (sweep_mod, "run_grid", "sweep.run_grid", None),
    (sweep_mod, "run_cell", "sweep.run_cell", None),
    (sweep_mod, "_run_chain_once", "sweep.chain", None),
    (sweep_mod, "write_records", "sweep.write_records", _count_csv),
    (sweep_mod, "read_records", "sweep.read_records", None),
    (sweep_mod, "emit_plot", "svgplot.emit_plot", _count_svg),
    (sweep_mod, "make_stream", "bitsource.make_stream", None),
    (sweep_mod, "draw_bits", "bitsource.draw_bits", _count_bits),
    (sweep_mod, "map_psk", "psk.map_psk", _count_symbols),
    (sweep_mod, "demap_psk", "psk.demap_psk", None),
    (sweep_mod, "serial_to_parallel", "framing.serial_to_parallel", _count_slots),
    (sweep_mod, "add_cyclic_prefix", "framing.add_cyclic_prefix", None),
    (sweep_mod, "remove_cyclic_prefix", "framing.remove_cyclic_prefix", None),
    (sweep_mod, "unitary_idft", "transform.unitary_idft", _count_transform),
    (sweep_mod, "unitary_dft", "transform.unitary_dft", _count_transform),
    (sweep_mod, "ebno_to_noise_variance", "channel.ebno_to_noise_variance", None),
    (sweep_mod, "complex_gaussian", _noise_or_gains, _count_flat_gains),
    (sweep_mod, "realize_channel", "channel.realize_channel", _count_realization),
    (sweep_mod, "apply_channel", "channel.apply_channel", None),
    (channel_mod, "complex_gaussian", _noise_or_gains, None),
    (sweep_mod, "channel_freq_response", "equalizer.channel_freq_response", None),
    (sweep_mod, "zero_forcing", "equalizer.zero_forcing", _count_clamps),
    (sweep_mod, "count_bit_errors", "metrics.count_bit_errors", None),
    (sweep_mod, "make_record", "metrics.make_record", None),
)


@contextmanager
def traced(tracer: Tracer):
    """Install the trace wrappers for the duration of the block."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TRACE_POINTS]
    try:
        for module, attr, name, count in TRACE_POINTS:
            setattr(module, attr, tracer.wrap(getattr(module, attr), name, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------- passes

@dataclass
class Pass:
    """One pass over a workload's grids, timed from run_grid through read-back."""

    wall_ns: int = 0  # run_grid + write + plot + read, summed over grids
    grid_ns: int = 0  # run_grid alone
    bits: int = 0  # sum of bits_sent as written
    cells: int = 0
    capped: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    failed: int = 0


def run_pass(grids, workers: int, out_dir: Path) -> Pass:
    result = Pass()
    digest = hashlib.sha256()
    for label, grid in grids:
        csv_path = str(out_dir / f"{label}.csv")
        t0 = time.perf_counter_ns()
        try:
            records = sweep_mod.run_grid(grid, workers=workers)
        except SweepFailure as exc:
            records = exc.records
            result.problems.append(f"{label}: {exc}")
        t1 = time.perf_counter_ns()
        sweep_mod.write_records(records, csv_path)
        sweep_mod.emit_plot(records, str(out_dir / label))
        rows = sweep_mod.read_records(csv_path)
        t2 = time.perf_counter_ns()
        result.wall_ns += t2 - t0
        result.grid_ns += t1 - t0
        result.cells += grid.n_cells
        if rows != [r.row() for r in records]:
            result.problems.append(f"{label}: read_records does not round-trip the rows")
        result.bits += sum(row["bits_sent"] for row in rows)
        result.capped += sum(row["bits_sent"] >= grid.max_bits_per_cell for row in rows)
        digest.update(Path(csv_path).read_bytes())
    result.digest = digest.hexdigest()
    return result


def gate(passes: list[Pass], reference: str) -> None:
    """Fail every cell of a pass whose records differ from the reference digest."""
    for p in passes:
        if p.digest != reference:
            p.problems.append(f"records sha256 {p.digest} != expected {reference}")
        if p.problems:
            p.failed = p.cells


# ----------------------------------------------------------------------- facts

def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_sha() -> Optional[str]:
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if not sha:
        for line in _read(ROOT / ".git" / "packed-refs").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha or None


def code_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ofdmsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_facts() -> dict:
    model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level} {kind}"] = _read(index / "size")
    return {"cpu_model": model, "caches": caches}


def run_facts(workload: Workload, seed: int, grids) -> dict:
    configs = {label: json.loads(json.dumps(dataclasses.asdict(grid), default=str))
               for label, grid in grids}
    blob = json.dumps(configs, sort_keys=True).encode()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **cpu_facts(),
        "git_sha": git_sha(),
        "code_sha256": code_sha256(),
        "workload": workload.name,
        "workers": workload.workers,
        "seed": seed,
        "grid_config_sha256": hashlib.sha256(blob).hexdigest(),
        "grid_config": configs,
        "note": "bytes are computed from array sizes, not measured bandwidth: "
                "the last-level cache exceeds every per-repetition working set",
    }


# --------------------------------------------------------------------- metrics

def tail(samples) -> tuple[Optional[float], Optional[float]]:
    """(percentile, value) of the highest rank with TAIL_SAMPLES samples beyond it.

    None when that rank would fall below the median.
    """
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_SAMPLES
    if rank < len(ordered) / 2:
        return None, None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def describe(samples) -> dict:
    pct, value = tail(samples)
    return {"median": statistics.median(samples), "n": len(samples),
            "tail_percentile": pct, "tail": value}




def measure_setup(config: dict) -> list[float]:
    """Seconds from a fresh interpreter's start to its first cell being ready."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(config)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        times.append(elapsed)
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it has waited for, in MB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def layer_metrics(tracer: Tracer, p: Pass) -> dict:
    """Per-layer metrics of one traced pass."""
    s, counts = tracer.summary(), tracer.counts

    def self_ns(*names):
        return sum(s[n]["self_ns"] for n in names if n in s)

    def incl_ns(name):
        return s[name]["incl_ns"] if name in s else 0.0

    reps = s["sweep.chain"]["calls"] if "sweep.chain" in s else 0
    sweep_self = self_ns("sweep.run_grid", "sweep.run_cell", "sweep.chain")
    return {
        "sweep.self_ns": sweep_self,
        "sweep.reps": reps,
        "sweep.ns_per_rep": sweep_self / max(reps, 1),
        "psk.map_ns": self_ns("psk.map_psk"),
        "psk.demap_ns": self_ns("psk.demap_psk"),
        "channel.noise_ns": self_ns("channel.noise"),
        "transform.idft_ns": self_ns("transform.unitary_idft"),
        "transform.dft_ns": self_ns("transform.unitary_dft"),
        "bitsource.draw_ns": self_ns("bitsource.draw_bits"),
        "psk.symbols": counts["symbols"],
        "transform.samples": counts["samples"],
        "transform.bytes_computed": counts["bytes"],
        "bitsource.bits_drawn": counts["bits_drawn"],
        "framing.ns": self_ns("framing.serial_to_parallel", "framing.add_cyclic_prefix",
                              "framing.remove_cyclic_prefix"),
        "framing.slot_use_ratio": counts["slots_used"] / max(counts["slots"], 1),
        "channel.ns": self_ns("channel.realize_channel", "channel.apply_channel",
                              "channel.gains", "channel.ebno_to_noise_variance"),
        "channel.realizations": counts["realizations"],
        "equalizer.ns": self_ns("equalizer.channel_freq_response", "equalizer.zero_forcing"),
        "equalizer.zf_clamps": counts["zf_clamps"],
        "bitsource.stream_ns": self_ns("bitsource.make_stream"),
        "metrics.record_ns": self_ns("metrics.make_record"),
        "metrics.count_ns": self_ns("metrics.count_bit_errors"),
        "sweep.useful_bits_ratio": p.bits / max(counts["bits_drawn"], 1),
        "sweep.write_ns": incl_ns("sweep.write_records"),
        "sweep.read_ns": incl_ns("sweep.read_records"),
        "sweep.csv_bytes": counts["csv_bytes"],
        "svgplot.ns": incl_ns("svgplot.emit_plot"),
        "svgplot.bytes": counts["svg_bytes"],
        "sweep.capped_cells": p.capped,
        "tracing.unattributed_ns": p.wall_ns - tracer.root_ns(),
    }


def _repeat_until(seconds: float, step: Callable[[], None]) -> None:
    """Call ``step`` at least once, and again while another call fits in ``seconds``."""
    begin = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - begin + longest > seconds:
            return


def end_to_end_run(workload: Workload, grids, configs, seconds: float, out_dir: Path):
    passes: list[Pass] = []
    _repeat_until(seconds, lambda: passes.append(run_pass(grids, workload.workers, out_dir)))
    rss = peak_rss_mb()  # before the set-up probes add children of their own
    setup = measure_setup(configs[0][1])
    walls = [p.wall_ns / 1e9 for p in passes]
    samples = {
        "wall_s": walls,
        "mbit_per_s": [p.bits / w / 1e6 for p, w in zip(passes, walls)],
        "setup_s": setup,
    }
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    metrics["peak_rss_mb"] = rss
    return passes, metrics, samples


def trace_run(workload: Workload, grids, seconds: float, out_dir: Path):
    untraced: list[Pass] = []
    serial: list[Pass] = []
    traced_passes: list[Pass] = []
    per_pass: list[dict] = []
    count_sets: list[dict] = []
    cell_ms: list[float] = []
    last: list[Tracer] = []

    def step() -> None:
        untraced.append(run_pass(grids, workload.workers, out_dir))
        if workload.workers > 1:
            serial.append(run_pass(grids, 1, out_dir))
        tracer = Tracer()
        with traced(tracer):
            p = run_pass(grids, 1, out_dir)
        traced_passes.append(p)
        layer = layer_metrics(tracer, p)
        per_pass.append(layer)
        count_sets.append({k: layer[k] for k in EXACT_COUNTS})
        cell_ms.extend((tracer.durations("sweep.run_cell") / 1e6).tolist())
        last[:] = [tracer]

    _repeat_until(seconds, step)
    serial_passes = serial or untraced
    metrics = {k: statistics.median(layer[k] for layer in per_pass) for k in per_pass[0]}
    metrics.update(count_sets[-1])
    _, cell_tail = tail(cell_ms)
    metrics["sweep.cell_ms_p50"] = statistics.median(cell_ms)
    metrics["sweep.cell_ms_tail"] = cell_tail if cell_tail is not None else max(cell_ms)
    serial_grid = statistics.median(p.grid_ns for p in serial_passes)
    metrics["sweep.pool_efficiency"] = serial_grid / (
        workload.workers * statistics.median(p.grid_ns for p in untraced))
    metrics["tracing.overhead"] = (statistics.median(p.wall_ns for p in traced_passes)
                                   / statistics.median(p.wall_ns for p in serial_passes) - 1.0)
    samples = {"sweep.cell_ms": cell_ms, "traced_wall_s": [p.wall_ns / 1e9 for p in traced_passes],
               "untraced_wall_s": [p.wall_ns / 1e9 for p in untraced]}
    problems = [f"count {k} differs between traced passes"
                for k in EXACT_COUNTS if len({c[k] for c in count_sets}) > 1]
    last[0].save(out_dir / "spans.npz")
    return untraced + serial + traced_passes, metrics, samples, count_sets[-1], problems


# ------------------------------------------------------------------------ main

def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def save_json(path: Path, data: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("OFDMSIM_WORKERS", None)  # the benchmark sets the worker count
    spec = json.loads(SPEC_PATH.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    configs = workload.configs(args.seed)
    grids = [(label, build_grid(cfg)) for label, cfg in configs]
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    facts = run_facts(workload, args.seed, grids)
    print("facts: " + json.dumps(facts, sort_keys=True))

    if args.trace:
        passes, metrics, samples, counts, problems = trace_run(
            workload, grids, args.seconds, out_dir)
    else:
        passes, metrics, samples = end_to_end_run(workload, grids, configs, args.seconds, out_dir)
        counts, problems = None, []

    # records gate: pinned digest, else the digest earlier runs of this code saw
    state_path = OUT / "state.json"
    state = load_json(state_path)
    key = f"{workload.name}|{args.seed}|{facts['code_sha256']}"
    pinned = load_json(PINNED_PATH).get(workload.name, {}).get(str(args.seed))
    seen = state.setdefault("digests", {}).get(key)
    gate(passes, pinned or seen or passes[0].digest)
    if counts is not None:
        before = state.setdefault("counts", {}).get(key)
        if before is not None and before != counts:
            problems.append(f"exact counts differ from an earlier run: {before} != {counts}")
    attempted = sum(p.cells for p in passes)
    failed = sum(p.failed for p in passes)
    problems += [msg for p in passes for msg in p.problems]
    if not problems:
        state["digests"][key] = passes[0].digest
        if counts is not None:
            state["counts"][key] = counts
        save_json(state_path, state)
    if not args.trace:
        metrics["cell_ok_ratio"] = 1.0 - failed / attempted

    missing = {m["name"] for m in declared} ^ set(metrics)
    if missing:
        raise RuntimeError(f"computed metrics do not match BENCHMARK.json: {sorted(missing)}")
    for name, values in samples.items():
        d = describe(values)
        tail_text = (f"p{d['tail_percentile']:.1f} {d['tail']:.6g}"
                     if d["tail"] is not None else f"tail n/a (<{2 * TAIL_SAMPLES} samples)")
        print(f"{name}: median {d['median']:.6g}, {tail_text}, n={d['n']}")
    for m in declared:
        print(f"{m['name']}: {metrics[m['name']]!r} {m['unit']}")
    print(f"cell_fail_ratio: {failed / attempted!r} ({failed} of {attempted} cells)")
    for msg in problems:
        print(f"FAILED: {msg}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    save_json(out_dir / f"result_trace{args.trace}.json", {
        "facts": facts, "result": result, "problems": problems,
        "digests": [p.digest for p in passes],
        "samples": {k: describe(v) for k, v in samples.items()},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Pin the records digests that the benchmark's records gate checks.

    python3 bench/pin_digests.py --seeds 0-31 [--workload awgn_grid ...]

Runs one pass of each workload per seed and writes the sha256 of its CSVs
to ``bench/pinned_digests.json``.  Passes run on 2 workers: records do not
depend on the worker count, and the benchmark's serial passes check that.
Re-pin only together with a declared change to the records.
"""

import argparse
import json

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    pinned = run.load_json(run.PINNED_PATH)
    out_dir = run.OUT / "pin"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in args.workload or sorted(run.WORKLOADS):
        workload = run.WORKLOADS[name]
        for seed in range(first, last + 1):
            grids = [(label, run.build_grid(cfg)) for label, cfg in workload.configs(seed)]
            p = run.run_pass(grids, 2, out_dir)
            if p.problems:
                raise SystemExit(f"{name} seed {seed}: {p.problems}")
            pinned.setdefault(name, {})[str(seed)] = p.digest
            run.save_json(run.PINNED_PATH, pinned)
            print(name, seed, p.digest, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

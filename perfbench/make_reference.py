#!/usr/bin/env python3
"""Record the sha256 of every workload's output for a range of seeds into
reference.json, after checking each output structurally.

    python3 perfbench/make_reference.py --seeds 24

Rerun it only when a change is meant to alter the outputs; a speed-up must
leave reference.json as it is.
"""
from __future__ import annotations

import argparse
import json
import sys

from check import REFERENCE_PATH, sha256_of
from run import Run
from workloads import WORKLOADS, qrcost_args


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=24, help="record seeds 0 .. N-1")
    args = parser.parse_args()
    hashes: dict = {}
    by_args: dict = {}  # the validate workload's job does not depend on the seed
    for workload in WORKLOADS.values():
        hashes[workload.name] = {}
        for seed in range(args.seeds):
            run = Run(workload, seed, reference={})
            key = tuple(qrcost_args(workload, run.values, ""))
            if key not in by_args:
                job = run.cli_job("reference")
                if run.failures:
                    print("\n".join(run.failures), file=sys.stderr)
                    return 1
                by_args[key] = sha256_of(f"{run.dir}/reference.out")
            hashes[workload.name][str(seed)] = by_args[key]
            print(workload.name, seed, by_args[key], f"{job.wall_s:.2f}s", flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seeds": args.seeds, "sha256": hashes}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

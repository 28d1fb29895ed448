"""Rebuild reference.json: the headline numbers of each workload and seed.

    python3 perfbench/make_reference.py

Run from the root of the checkout whose outputs are the reference (the tree
the benchmark was added to).  run.py compares every pipeline's quantile,
tube radius, contained count, lambda and plan cost (plan3d) against this
table at ``rel_tol``; seeds outside 0 .. SEEDS-1 skip that comparison.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import HERE, WORKLOADS, Bench

REL_TOL = 1e-6
SEEDS = 32
JOBS = 2


def main() -> int:
    root = Path.cwd()

    def one(job):
        workload, seed = job
        result = Bench(root, workload, seed, time.perf_counter()).pipeline()[0]
        print(f"{workload} seed {seed}: {result.get('headline')} "
              f"records {result.get('realized')}/{result.get('requested')}", flush=True)
        return workload, seed, result

    jobs = [(w, s) for w in WORKLOADS for s in range(SEEDS)]
    table: dict = {w: {} for w in WORKLOADS}
    failed = []
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for workload, seed, result in pool.map(one, jobs):
            if result.get("ok"):
                table[workload][str(seed)] = result["headline"]
            else:
                failed.append(f"{workload} seed {seed}: {result.get('error') or result.get('failures')}")
    if failed:
        print("\n".join(["not written; failed runs:"] + failed), file=sys.stderr)
        return 1
    with open(HERE / "reference.json", "w") as fh:
        json.dump({"rel_tol": REL_TOL, "workloads": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

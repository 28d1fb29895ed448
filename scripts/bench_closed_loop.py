#!/usr/bin/env python3
"""Closed-loop simulation speed: per-rollout oracle against one (N, n) block.

    python3 scripts/bench_closed_loop.py [--out BENCH_closed_loop.json]

For each benchmark workload (desk3d: 3D plant, MLP predictor; vtol6d: VTOL,
linear-features predictor) the script builds the seed-0 metric and
predictor with ``harness.run_pipeline(..., stop_after="train")`` in a
temporary directory, samples N references with the harness's test
sampler, and times the compensated closed loop two ways on the same
references and starts:

* oracle: ``tests/scalar_oracle.py``, the per-rollout path stepped one
  rollout after another;
* block: ``control.track``, all N rollouts as one (N, n) block.

It reports the median over REPEATS runs of the CPU microseconds per
rollout-step (one RK4 grid step of one rollout), for N in ROWS, and how many
block rows equal their oracle rollout bit for bit.  BLAS is pinned to one
thread.  The horizon is shortened to HORIZON_S so that the slow oracle fits
the budget; the per-step cost does not depend on it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import scalar_oracle as oracle  # noqa: E402

from prcitube import harness  # noqa: E402
from prcitube.control import track  # noqa: E402
from prcitube.metric import ContractionMetric  # noqa: E402
from prcitube.predictor import UncertaintyPredictor  # noqa: E402
from prcitube.systems import integrate  # noqa: E402

ROWS = (1, 4, 7, 20, 100)
REPEATS = 5
HORIZON_S = 0.5
WORKLOADS = {"threeD": ("desk3d", oracle.plant_3d), "vtol": ("vtol6d", oracle.plant_vtol)}
CLOCK = time.process_time


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_threads": 1,
    }


def setup(workload: str, tmp: Path):
    """Seed-0 workload config, true plant, metric, predictor and the
    largest set of references."""
    text = (ROOT / "perfbench" / "workloads" / f"{workload}.toml").read_text()
    cfg_path = tmp / f"{workload}.toml"
    cfg_path.write_text(text + f"seed = 0\nout_dir = {json.dumps(str(tmp / workload))}\n")
    config = harness.ExperimentConfig.from_file(cfg_path)
    harness.run_pipeline(config, stop_after="train")
    out = Path(config.out_dir)
    sys_nom, sys_true = harness.benchmark_systems(config)
    metric = ContractionMetric.from_json_dict(harness.read_json(out / "metric.json"))
    predictor = UncertaintyPredictor.from_json_dict(harness.read_json(out / "predictor.json"))
    refs = [
        integrate(sys_nom, harness.sample_initial_condition(config, "bench", i),
                  harness.sample_reference_policy(config, sys_nom, "bench", i),
                  HORIZON_S, config.dt_s)
        for i in range(max(ROWS))
    ]
    return sys_true, metric, predictor, refs


def us_per_rollout_step(run, n_rollouts: int, n_steps: int):
    """Median CPU microseconds per rollout-step over REPEATS runs, and the
    last run's result."""
    samples = []
    for _ in range(REPEATS):
        t0 = CLOCK()
        result = run()
        samples.append(1e6 * (CLOCK() - t0) / (n_rollouts * n_steps))
    return statistics.median(samples), result


def same_bits(a, b) -> bool:
    return a is not None and b is not None and all(
        getattr(a, k).tobytes() == getattr(b, k).tobytes()
        for k in ("states", "inputs", "uncertainties")
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_closed_loop.json"))
    args = ap.parse_args(argv)
    result = {
        "machine": machine(),
        "protocol": {"clock": "time.process_time", "repeats": REPEATS, "statistic": "median",
                     "horizon_s": HORIZON_S, "seed": 0, "rows": list(ROWS)},
        "benchmarks": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for bench, (workload, make_plant) in WORKLOADS.items():
            sys_true, metric, predictor, refs = setup(workload, Path(tmp))
            plant = make_plant()
            n_steps = len(refs[0].times) - 1
            per_n = {}
            for n in ROWS:
                sub = refs[:n]
                starts = [r.states[0] for r in sub]
                oracle_us, want = us_per_rollout_step(
                    lambda: [oracle.track(plant, metric, predictor, r, x0)
                             for r, x0 in zip(sub, starts)], n, n_steps)
                block_us, got = us_per_rollout_step(
                    lambda: track(sys_true, metric, predictor, sub, starts), n, n_steps)
                per_n[str(n)] = {
                    "oracle_us_per_rollout_step": oracle_us,
                    "block_us_per_rollout_step": block_us,
                    "speedup": oracle_us / block_us,
                    "bit_identical_rows": sum(same_bits(a, b) for a, b in zip(got, want)),
                }
                print(f"{bench} N={n}: oracle {oracle_us:.1f} us, block {block_us:.1f} us "
                      f"per rollout-step, {oracle_us / block_us:.1f}x, "
                      f"{per_n[str(n)]['bit_identical_rows']}/{n} rows bit-identical", flush=True)
            result["benchmarks"][bench] = {
                "workload": workload, "predictor": predictor.family, "steps": n_steps,
                "rows": per_n,
            }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

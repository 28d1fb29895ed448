#!/usr/bin/env python3
"""Simulation speed: one state (or one rollout) at a time against one (N, n) block.

    python3 scripts/bench_simulation.py [--out BENCH_simulation.json]

Three sections, all timed in CPU time with BLAS pinned to one thread, each
figure the median over REPEATS runs:

* closed_loop: for each benchmark workload (desk3d: 3D plant, MLP
  predictor; vtol6d: VTOL, linear-features predictor) the seed-0 metric and
  predictor come from ``harness.run_pipeline(..., stop_after="train")`` in a
  temporary directory, N references from the harness's samplers, and the
  compensated closed loop runs two ways on the same references and starts:
  the per-rollout oracle of ``tests/scalar_oracle.py``, one rollout after
  another, and ``control.track``, all N rollouts as one block.  Microseconds
  per rollout-step (one RK4 grid step of one rollout), for N in ROWS.
* open_loop: the same references' input signals replayed on the true plant
  (the training-data protocol), N one-state ``integrate`` calls against one
  ``systems.replay`` block; microseconds per rollout-step, for N in
  OPEN_ROWS.
* adjoint: milliseconds per ``_Shooting.cost_and_grad`` on the planning
  problem of the plan3d workload at seed 0 (captured from its pipeline run)
  at the planner's warm start: the per-step oracle of
  ``tests/scalar_oracle.py`` (four one-state FD Jacobians per step) against
  the batched gradient (one FD call on all stage states).

Each section also counts how many block results equal their one-at-a-time
counterpart bit for bit.  The horizon of the rollouts is shortened to
HORIZON_S so that the slow oracle fits the budget; the per-step cost does
not depend on it.
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
from prcitube.planner import _Shooting  # noqa: E402
from prcitube.predictor import UncertaintyPredictor  # noqa: E402
from prcitube.systems import integrate, replay  # noqa: E402

ROWS = (1, 4, 7, 20, 100)
OPEN_ROWS = (1, 4, 8, 20)
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


def workload_config(workload: str, tmp: Path) -> harness.ExperimentConfig:
    """The seed-0 config of a perfbench workload, writing under tmp."""
    text = (ROOT / "perfbench" / "workloads" / f"{workload}.toml").read_text()
    cfg_path = tmp / f"{workload}.toml"
    cfg_path.write_text(text + f"seed = 0\nout_dir = {json.dumps(str(tmp / workload))}\n")
    return harness.ExperimentConfig.from_file(cfg_path)


def setup(workload: str, tmp: Path):
    """Seed-0 workload config, both plants, metric, predictor, and the
    largest set of references with their input signals."""
    config = workload_config(workload, tmp)
    harness.run_pipeline(config, stop_after="train")
    out = Path(config.out_dir)
    sys_nom, sys_true = harness.benchmark_systems(config)
    metric = ContractionMetric.from_json_dict(harness.read_json(out / "metric.json"))
    predictor = UncertaintyPredictor.from_json_dict(harness.read_json(out / "predictor.json"))
    n = max(ROWS)
    signals = harness.sample_reference_policies(config, sys_nom, "bench", n)
    starts = [harness.sample_initial_condition(config, "bench", i) for i in range(n)]
    refs = replay(sys_nom, starts, signals, HORIZON_S, config.dt_s)
    return sys_true, metric, predictor, refs, signals


def plan3d_problem(tmp: Path):
    """The planning problem and warm start that the plan3d workload's
    pipeline hands to ``planner.plan`` at seed 0."""
    captured = []
    solve = harness.solve_plan

    def capture(problem, init=None, max_iter=120):
        captured.append((problem, init))
        return solve(problem, init=init, max_iter=max_iter)

    harness.solve_plan = capture
    try:
        harness.run_pipeline(workload_config("plan3d", tmp), stop_after="plan")
    finally:
        harness.solve_plan = solve
    return captured[0]


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


def closed_loop(sys_true, metric, predictor, refs, plant, bench: str) -> dict:
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
        print(f"closed loop {bench} N={n}: oracle {oracle_us:.1f} us, block {block_us:.1f} us "
              f"per rollout-step, {oracle_us / block_us:.1f}x, "
              f"{per_n[str(n)]['bit_identical_rows']}/{n} rows bit-identical", flush=True)
    return per_n


def open_loop(sys_true, refs, signals, bench: str) -> dict:
    T, dt = refs[0].horizon, refs[0].dt
    n_steps = len(refs[0].times) - 1
    per_n = {}
    for n in OPEN_ROWS:
        starts = [r.states[0] for r in refs[:n]]
        sigs = signals[:n]
        loop_us, want = us_per_rollout_step(
            lambda: [integrate(sys_true, x0, s, T, dt) for x0, s in zip(starts, sigs)],
            n, n_steps)
        block_us, got = us_per_rollout_step(lambda: replay(sys_true, starts, sigs, T, dt),
                                            n, n_steps)
        per_n[str(n)] = {
            "one_state_us_per_rollout_step": loop_us,
            "block_us_per_rollout_step": block_us,
            "speedup": loop_us / block_us,
            "bit_identical_rows": sum(same_bits(a, b) for a, b in zip(got, want)),
        }
        print(f"open loop {bench} N={n}: one-state {loop_us:.1f} us, block {block_us:.1f} us "
              f"per rollout-step, {loop_us / block_us:.1f}x, "
              f"{per_n[str(n)]['bit_identical_rows']}/{n} rows bit-identical", flush=True)
    return per_n


def adjoint(tmp: Path) -> dict:
    problem, init = plan3d_problem(tmp)
    sh = _Shooting(problem)
    plant = oracle.plant_3d()
    ms = {}
    grads = {}
    for name, run in (("oracle", lambda: oracle.cost_and_grad(sh, plant, init)),
                      ("batched", lambda: sh.cost_and_grad(init))):
        samples = []
        for _ in range(REPEATS):
            t0 = CLOCK()
            grads[name] = run()[1]
            samples.append(1e3 * (CLOCK() - t0))
        ms[name] = statistics.median(samples)
    want, got = grads["oracle"], grads["batched"]
    result = {
        "workload": "plan3d",
        "steps": sh.n_steps,
        "oracle_ms_per_gradient": ms["oracle"],
        "batched_ms_per_gradient": ms["batched"],
        "speedup": ms["oracle"] / ms["batched"],
        "max_relative_gradient_difference": float(np.max(np.abs(got - want)) / np.max(np.abs(want))),
        "bit_identical_entries": int(np.sum(got == want)),
        "entries": int(want.size),
    }
    print(f"adjoint plan3d: oracle {ms['oracle']:.1f} ms, batched {ms['batched']:.1f} ms per "
          f"gradient, {result['speedup']:.1f}x, max relative difference "
          f"{result['max_relative_gradient_difference']:.2e}", flush=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_simulation.json"))
    args = ap.parse_args(argv)
    result = {
        "machine": machine(),
        "protocol": {"clock": "time.process_time", "repeats": REPEATS, "statistic": "median",
                     "horizon_s": HORIZON_S, "seed": 0, "rows": list(ROWS),
                     "open_loop_rows": list(OPEN_ROWS)},
        "benchmarks": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for bench, (workload, make_plant) in WORKLOADS.items():
            sys_true, metric, predictor, refs, signals = setup(workload, Path(tmp))
            result["benchmarks"][bench] = {
                "workload": workload, "predictor": predictor.family,
                "steps": len(refs[0].times) - 1,
                "closed_loop": closed_loop(sys_true, metric, predictor, refs, make_plant(), bench),
                "open_loop": open_loop(sys_true, refs, signals, bench),
            }
        result["adjoint"] = adjoint(Path(tmp))
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

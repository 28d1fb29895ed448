#!/usr/bin/env python3
"""Simulation and metric-stage speed: one state (or one rollout, one grid
point) at a time against one (N, n) block.

    python3 scripts/bench_simulation.py [--out BENCH_simulation.json]

Seven sections, all timed in CPU time with BLAS pinned to one thread, each
figure the median over REPEATS runs.  The two sides of a comparison run
alternately, and its speedup is the median of the per-pair ratios, so that
a drift in machine speed during the run hits both sides:

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
* plan: milliseconds per ``planner.plan`` on the same problem, warm start
  and iteration cap: the frozen loop of ``tests/scalar_oracle.py`` (a
  forward pass per cost, per gradient and for the final rollout) against
  ``plan``, which keeps each accepted trial's forward half; the forward
  passes each makes, and whether the plans are bit-identical.
* metric: for each benchmark workload, the seed-0 metric stage.  Every
  ``_worst_margin`` call of one ``synthesize_constant_metric`` run on the
  workload's synthesis grid is replayed in order through the oracle of
  ``tests/scalar_oracle.py`` (a full ``eigh`` of the grid's stack) and
  through the screen (one ``eigh`` of the leader, one LDL^T of the stack,
  ``eigh`` of the survivors), each attempt with its own warm array, its
  first call cold: microseconds per call, the mean number of points that
  survive the factorization per warm call, and how often the leader is the
  point that wins.  Then ``verify_contraction`` on the workload's fine grid,
  the per-point oracle against the batch (one FD call per function):
  milliseconds per verification.
* blocks: for each perfbench workload, the closed-loop tracking of a cold
  pipeline on its seed-0 calibration references (the calibration split of
  ``ref_data``) and test references, over the full horizon: a calibration
  block and then a test block, against the one merged block that the
  cal_data stage now tracks.  CPU seconds of each side, the median per-pair
  ratio of the two, and the merged rows equal to their separate runs.  The
  same for the nominal replays before it (input sampling included, and on
  vtol6d the waypoint-PD flights that draw the inputs, one block per
  replay): the reference dataset and then the test references, against the
  one block that the ref_data stage now replays.
* score: for each benchmark workload, the nonconformity score of each
  seed-0 calibration record (the ``cal_data`` of a pipeline run up to
  ``calibrate``, full horizon): the frozen ``residual_norms`` of
  ``tests/scalar_oracle.py``, which re-evaluates the true plant's
  uncertainty at every grid point, one point at a time, against
  ``conformal.nonconformity_score``, which reads the uncertainty the record
  stored, all grid points as one block.  Microseconds per score (each side
  scores every record SCORE_PASSES times per sample) and the residual
  traces that are bit-identical.

Each section also counts how many block results equal their one-at-a-time
counterpart bit for bit.  The horizon of the rollouts is shortened to
HORIZON_S so that the slow oracle fits the budget (except in blocks, which
has no oracle); the per-step cost does not depend on it.
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
from prcitube import metric as metric_mod  # noqa: E402
from prcitube.conformal import nonconformity_score  # noqa: E402
from prcitube.control import residual_norms, track  # noqa: E402
from prcitube.metric import ContractionMetric  # noqa: E402
from prcitube.planner import _Shooting, plan  # noqa: E402
from prcitube.predictor import UncertaintyPredictor  # noqa: E402
from prcitube.systems import integrate, replay  # noqa: E402

ROWS = (1, 4, 7, 20, 100)
OPEN_ROWS = (1, 4, 8, 20)
REPEATS = 5
SCORE_PASSES = 20
HORIZON_S = 0.5
WORKLOADS = {"threeD": ("desk3d", oracle.plant_3d), "vtol": ("vtol6d", oracle.plant_vtol)}
BLOCK_WORKLOADS = ("desk3d", "plan3d", "vtol6d")
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


def trained(workload: str, tmp: Path):
    """Seed-0 workload config run up to its predictor: the config, both
    plants, the metric and the predictor."""
    config = workload_config(workload, tmp)
    harness.run_pipeline(config, stop_after="train")
    out = Path(config.out_dir)
    sys_nom, sys_true = harness.benchmark_systems(config)
    metric = ContractionMetric.from_json_dict(harness.read_json(out / "metric.json"))
    predictor = UncertaintyPredictor.from_json_dict(harness.read_json(out / "predictor.json"))
    return config, sys_nom, sys_true, metric, predictor


def setup(workload: str, tmp: Path):
    """Seed-0 workload config, both plants, metric, predictor, and the
    largest set of references with their input signals."""
    config, sys_nom, sys_true, metric, predictor = trained(workload, tmp)
    n = max(ROWS)
    signals = harness.sample_reference_policies(config, sys_nom, "bench", n)
    starts = [harness.sample_initial_condition(config, "bench", i) for i in range(n)]
    refs = replay(sys_nom, starts, signals, HORIZON_S, config.dt_s)
    return sys_true, metric, predictor, refs, signals


def plan3d_problem(tmp: Path):
    """The planning problem, warm start and iteration cap that the plan3d
    workload's pipeline hands to ``planner.plan`` at seed 0."""
    captured = []
    solve = harness.solve_plan

    def capture(problem, init=None, max_iter=120):
        captured.append((problem, init, max_iter))
        return solve(problem, init=init, max_iter=max_iter)

    harness.solve_plan = capture
    try:
        harness.run_pipeline(workload_config("plan3d", tmp), stop_after="plan")
    finally:
        harness.solve_plan = solve
    return captured[0]


def paired(run_a, run_b):
    """run_a and run_b alternated REPEATS times, the first of each pair
    alternating too, so that a drift in machine speed hits both: the median
    CPU seconds of each, the median of the per-pair ratios a / b, and each
    one's last result."""
    seconds, results = ([], []), [None, None]
    for i in range(REPEATS):
        for j in ((0, 1) if i % 2 == 0 else (1, 0)):
            t0 = CLOCK()
            results[j] = (run_a, run_b)[j]()
            seconds[j].append(CLOCK() - t0)
    ratio = statistics.median(a / b for a, b in zip(*seconds))
    return statistics.median(seconds[0]), statistics.median(seconds[1]), ratio, *results


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
        oracle_s, block_s, speedup, want, got = paired(
            lambda: [oracle.track(plant, metric, predictor, r, x0)
                     for r, x0 in zip(sub, starts)],
            lambda: track(sys_true, metric, predictor, sub, starts))
        oracle_us, block_us = (1e6 * t / (n * n_steps) for t in (oracle_s, block_s))
        per_n[str(n)] = {
            "oracle_us_per_rollout_step": oracle_us,
            "block_us_per_rollout_step": block_us,
            "speedup": speedup,
            "bit_identical_rows": sum(same_bits(a, b) for a, b in zip(got, want)),
        }
        print(f"closed loop {bench} N={n}: oracle {oracle_us:.1f} us, block {block_us:.1f} us "
              f"per rollout-step, {speedup:.1f}x, "
              f"{per_n[str(n)]['bit_identical_rows']}/{n} rows bit-identical", flush=True)
    return per_n


def open_loop(sys_true, refs, signals, bench: str) -> dict:
    T, dt = refs[0].horizon, refs[0].dt
    n_steps = len(refs[0].times) - 1
    per_n = {}
    for n in OPEN_ROWS:
        starts = [r.states[0] for r in refs[:n]]
        sigs = signals[:n]
        loop_s, block_s, speedup, want, got = paired(
            lambda: [integrate(sys_true, x0, s, T, dt) for x0, s in zip(starts, sigs)],
            lambda: replay(sys_true, starts, sigs, T, dt))
        loop_us, block_us = (1e6 * t / (n * n_steps) for t in (loop_s, block_s))
        per_n[str(n)] = {
            "one_state_us_per_rollout_step": loop_us,
            "block_us_per_rollout_step": block_us,
            "speedup": speedup,
            "bit_identical_rows": sum(same_bits(a, b) for a, b in zip(got, want)),
        }
        print(f"open loop {bench} N={n}: one-state {loop_us:.1f} us, block {block_us:.1f} us "
              f"per rollout-step, {speedup:.1f}x, "
              f"{per_n[str(n)]['bit_identical_rows']}/{n} rows bit-identical", flush=True)
    return per_n


def adjoint(problem, init) -> dict:
    sh = _Shooting(problem)
    plant = oracle.plant_3d()
    frozen = oracle.Shooting(problem)
    oracle_s, batched_s, speedup, (_, want), (_, got) = paired(
        lambda: oracle.cost_and_grad(frozen, plant, init), lambda: sh.cost_and_grad(init))
    ms = {"oracle": 1e3 * oracle_s, "batched": 1e3 * batched_s}
    result = {
        "workload": "plan3d",
        "steps": sh.n_steps,
        "oracle_ms_per_gradient": ms["oracle"],
        "batched_ms_per_gradient": ms["batched"],
        "speedup": speedup,
        "max_relative_gradient_difference": float(np.max(np.abs(got - want)) / np.max(np.abs(want))),
        "bit_identical_entries": int(np.sum(got == want)),
        "entries": int(want.size),
    }
    print(f"adjoint plan3d: oracle {ms['oracle']:.1f} ms, batched {ms['batched']:.1f} ms per "
          f"gradient, {result['speedup']:.1f}x, max relative difference "
          f"{result['max_relative_gradient_difference']:.2e}", flush=True)
    return result


def plan_section(problem, init, max_iter) -> dict:
    passes = []
    forward = _Shooting._forward

    def counted(self, U):
        passes.append(None)
        return forward(self, U)

    oracle_s, new_s, speedup, want, _ = paired(
        lambda: oracle.plan(problem, init=init, max_iter=max_iter),
        lambda: plan(problem, init=init, max_iter=max_iter))
    ms = {"oracle": 1e3 * oracle_s, "new": 1e3 * new_s}
    _Shooting._forward = counted
    try:
        result = plan(problem, init=init, max_iter=max_iter)
    finally:
        _Shooting._forward = forward
    U, history, converged, violations, X, sh = want
    same = (result.record.inputs.tobytes() == U.tobytes()
            and result.record.states.tobytes() == X.tobytes()
            and np.array(result.cost_history).tobytes() == np.array(history).tobytes()
            and result.converged == converged and result.violations == violations)
    out = {
        "workload": "plan3d",
        "steps": sh.n_steps,
        "iterations": len(history) - 1,
        "oracle_ms_per_plan": ms["oracle"],
        "new_ms_per_plan": ms["new"],
        "speedup": speedup,
        "oracle_forward_passes": sh.forward_passes,
        "new_forward_passes": len(passes),
        "bit_identical": bool(same),
    }
    print(f"plan plan3d: oracle {ms['oracle']:.1f} ms, new {ms['new']:.1f} ms per plan, "
          f"{out['speedup']:.2f}x, forward passes {sh.forward_passes} -> {len(passes)}, "
          f"bit-identical {same}", flush=True)
    return out


def median_ms(run) -> float:
    """Median CPU milliseconds of run() over REPEATS runs."""
    samples = []
    for _ in range(REPEATS):
        t0 = CLOCK()
        run()
        samples.append(1e3 * (CLOCK() - t0))
    return statistics.median(samples)


def worst_margin_bits(result) -> bytes:
    worst, (A, w) = result
    return np.float64(worst).tobytes() + A.tobytes() + w.tobytes()


def replay_screen(attempts, jacs, cokers, check=None):
    """Every call of every attempt through the screen, each attempt with a
    fresh warm array; ``check(call, result, warm_before)`` sees each call."""
    shape = (cokers.shape[0], cokers.shape[2])
    for calls in attempts:
        warm = np.empty(shape)
        for W, lam, cold in calls:
            before = warm.copy() if check else None
            result = metric_mod._worst_margin(W, lam, jacs, cokers, warm, cold)
            if check:
                check((W, lam, cold), result, before)


def metric_stage(workload: str, tmp: Path, bench: str) -> dict:
    """The seed-0 metric stage of a workload whose pipeline ran under tmp."""
    config = workload_config(workload, tmp)
    sys_nom, _ = harness.benchmark_systems(config)
    grid = harness._metric_grid(config, sys_nom, config.metric_grid_points)
    fine = harness._metric_grid(config, sys_nom, 2 * config.metric_grid_points - 1)
    screen = metric_mod._worst_margin
    attempts = []

    def spy(W, lam, jacs, cokers, warm, cold=False):
        if cold:
            attempts.append([])
        attempts[-1].append((W, lam, cold))
        return screen(W, lam, jacs, cokers, warm, cold)

    metric_mod._worst_margin = spy
    try:
        metric = metric_mod.synthesize_constant_metric(
            sys_nom, grid, (config.lambda_lo, config.lambda_hi),
            chi_max=config.metric_chi_max, margin_target=config.metric_margin)
    finally:
        metric_mod._worst_margin = screen
    jacs, cokers = metric_mod._grid_condition_data(sys_nom, grid)
    calls = [call for calls in attempts for call in calls]
    us = {"oracle": 1e3 * median_ms(
              lambda: [oracle.worst_margin(W, lam, jacs, cokers) for W, lam, _ in calls]),
          "screen": 1e3 * median_ms(lambda: replay_screen(attempts, jacs, cokers))}
    us = {name: t / len(calls) for name, t in us.items()}

    # one more replay that counts: bits against the oracle, the survivors of
    # each warm call's factorization, and whether its leader won
    below = metric_mod._certified_below
    survivors = []
    tally = {"same": 0, "warm": 0, "leader_won": 0}

    def count(C, theta):
        ok = below(C, theta)
        survivors.append(int(ok.size - ok.sum()))
        return ok

    def check(call, result, before):
        W, lam, cold = call
        want = oracle.worst_margin(W, lam, jacs, cokers)
        tally["same"] += worst_margin_bits(result) == worst_margin_bits(want)
        if cokers.shape[2] > 1 and not cold:
            S = jacs @ W + W @ jacs.transpose(0, 2, 1) + 2.0 * lam * W
            C = metric_mod._sym(cokers.transpose(0, 2, 1) @ S @ cokers)
            lead = np.argmax(np.einsum("pi,pij,pj->p", before, C, before))
            tally["warm"] += 1
            tally["leader_won"] += int(lead == np.argmax(np.linalg.eigh(C)[0][:, -1]))

    metric_mod._certified_below = count
    try:
        replay_screen(attempts, jacs, cokers, check)
    finally:
        metric_mod._certified_below = below
    ms = {"oracle": median_ms(lambda: oracle.verify_contraction(metric, sys_nom, fine)),
          "batch": median_ms(lambda: metric_mod.verify_contraction(metric, sys_nom, fine))}
    got, _ = metric_mod._grid_margins(metric, sys_nom, fine)
    want, _, report = oracle.verify_contraction(metric, sys_nom, fine)
    same_points = int(np.sum(np.logical_and.reduce(
        [got[k].view(np.int64) == want[k].view(np.int64) for k in want])))
    warm_calls = tally["warm"]
    result = {
        "grid_points": int(grid.shape[0]),
        "condition_dim": int(cokers.shape[2]),
        "attempts": len(attempts),
        "worst_margin_calls": len(calls),
        "oracle_us_per_worst_margin": us["oracle"],
        "screen_us_per_worst_margin": us["screen"],
        "worst_margin_speedup": us["oracle"] / us["screen"],
        "bit_identical_worst_margin_calls": tally["same"],
        "warm_calls": warm_calls,
        "mean_survivors_per_warm_call": (
            statistics.mean(survivors) if survivors else None),
        "leader_hit_rate": tally["leader_won"] / warm_calls if warm_calls else None,
        "fine_grid_points": int(fine.shape[0]),
        "oracle_ms_per_verification": ms["oracle"],
        "batch_ms_per_verification": ms["batch"],
        "verification_speedup": ms["oracle"] / ms["batch"],
        "bit_identical_fine_grid_points": same_points,
        "same_verification_report": metric_mod.verify_contraction(
            metric, sys_nom, fine).to_json_dict() == report,
    }
    screen_note = (f"{result['mean_survivors_per_warm_call']:.2f} survivors per warm call, "
                   f"leader won {result['leader_hit_rate']:.0%}" if warm_calls
                   else "one-point conditions, no factorization")
    print(f"metric {bench}: _worst_margin oracle {us['oracle']:.1f} us, screen "
          f"{us['screen']:.1f} us per call, {screen_note}, {tally['same']}/{len(calls)} calls "
          f"bit-identical; verification oracle {ms['oracle']:.1f} ms, batch {ms['batch']:.1f} ms, "
          f"{same_points}/{fine.shape[0]} points bit-identical", flush=True)
    return result


def blocks(workload: str, tmp: Path) -> dict:
    """A workload's calibration and test tracking, two blocks against one."""
    config, sys_nom, sys_true, metric, predictor = trained(workload, tmp)
    ref = harness.load_dataset(Path(config.out_dir) / "ref_data")
    cal_refs = [e.record for e in ref.entries[config.n_train : config.n_train + config.n_cal]]
    _, test_refs = harness._test_references(config, sys_nom)

    def run(refs):
        return track(sys_true, metric, predictor, refs, [r.states[0] for r in refs])

    apart_s, merged_s, speedup, want, got = paired(
        lambda: run(cal_refs) + run(test_refs), lambda: run(cal_refs + test_refs))
    rows = len(cal_refs) + len(test_refs)
    result = {
        "calibration_rows": len(cal_refs),
        "test_rows": len(test_refs),
        "steps": len(cal_refs[0].times) - 1,
        "two_blocks_s": apart_s,
        "merged_block_s": merged_s,
        "speedup": speedup,
        "bit_identical_rows": sum(same_bits(a, b) for a, b in zip(got, want)),
    }
    print(f"blocks {workload}: {len(cal_refs)} + {len(test_refs)} rows, two blocks "
          f"{apart_s:.3f} s, one block {merged_s:.3f} s, {speedup:.2f}x, "
          f"{result['bit_identical_rows']}/{rows} rows bit-identical", flush=True)

    counts = {"ref": config.n_train + config.n_cal, "test": config.n_test}

    def replays(*groups):
        entries = {}
        for group in groups:
            entries.update(harness._replay_references(config, sys_nom, group))
        return [e.record for tag in counts for e in entries[tag]]

    apart_s, merged_s, speedup, want, got = paired(
        lambda: replays({"ref": counts["ref"]}, {"test": counts["test"]}),
        lambda: replays(counts))
    result["replay"] = {
        "two_blocks_s": apart_s,
        "merged_block_s": merged_s,
        "speedup": speedup,
        "bit_identical_rows": sum(
            all(getattr(a, k).tobytes() == getattr(b, k).tobytes()
                for k in ("times", "states", "inputs"))
            for a, b in zip(got, want)),
    }
    print(f"replays {workload}: {counts['ref']} + {counts['test']} rows, two blocks "
          f"{apart_s:.3f} s, one block {merged_s:.3f} s, {speedup:.2f}x, "
          f"{result['replay']['bit_identical_rows']}/{len(want)} rows bit-identical", flush=True)
    return result


def score(workload: str, tmp: Path, plant, bench: str) -> dict:
    """A workload's seed-0 calibration records scored by the oracle, which
    re-evaluates the plant, and by the library, which reads each record's
    stored uncertainty."""
    config = workload_config(workload, tmp)
    harness.run_pipeline(config, stop_after="calibrate")
    out = Path(config.out_dir)
    sys_nom, _ = harness.benchmark_systems(config)
    predictor = UncertaintyPredictor.from_json_dict(harness.read_json(out / "predictor.json"))
    records = [e.record for e in harness.load_dataset(out / "cal_data").entries]

    def passes(score_one):
        return [[score_one(r) for r in records] for _ in range(SCORE_PASSES)][-1]

    oracle_s, library_s, speedup, want, got = paired(
        lambda: passes(lambda r: float(np.max(oracle.residual_norms(plant, predictor, r)))),
        lambda: passes(lambda r: nonconformity_score(r, predictor, sys_nom)))
    us = {name: 1e6 * t / (SCORE_PASSES * len(records))
          for name, t in (("oracle", oracle_s), ("library", library_s))}
    result = {
        "records": len(records),
        "points_per_record": len(records[0].times),
        "oracle_us_per_score": us["oracle"],
        "library_us_per_score": us["library"],
        "speedup": speedup,
        "same_scores": got == want,
        "bit_identical_traces": sum(
            oracle.residual_norms(plant, predictor, r).tobytes()
            == residual_norms(sys_nom, predictor, r).tobytes()
            for r in records),
    }
    print(f"score {bench}: oracle {us['oracle']:.1f} us, library {us['library']:.1f} us per "
          f"score, {speedup:.1f}x, {result['bit_identical_traces']}/{len(records)} traces "
          f"bit-identical", flush=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_simulation.json"))
    args = ap.parse_args(argv)
    result = {
        "machine": machine(),
        "protocol": {"clock": "time.process_time", "repeats": REPEATS, "statistic": "median",
                     "horizon_s": HORIZON_S, "seed": 0, "rows": list(ROWS),
                     "open_loop_rows": list(OPEN_ROWS), "score_passes": SCORE_PASSES},
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
                "metric": metric_stage(workload, Path(tmp), bench),
                "score": score(workload, Path(tmp), make_plant(), bench),
            }
        problem, init, max_iter = plan3d_problem(Path(tmp))
        result["adjoint"] = adjoint(problem, init)
        result["plan"] = plan_section(problem, init, max_iter)
        result["blocks"] = {w: blocks(w, Path(tmp)) for w in BLOCK_WORKLOADS}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

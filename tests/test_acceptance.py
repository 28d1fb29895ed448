"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` (or -rP) to see the lines.
The two pipeline-scale criteria share session fixtures so the experiment
runs once; everything is fixed-seed and deterministic.
"""

import dataclasses
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from prcitube.conformal import calibrate, empirical_coverage
from prcitube.control import feedback_terms, min_norm_feedback, track
from prcitube.harness import ExperimentConfig, run_pipeline
from prcitube.metric import ContractionMetric, riemannian_distance
from prcitube.predictor import make_zero_predictor
from prcitube.systems import PiecewiseLinearInput, integrate
from prcitube.tube import PRCITube, project_tube_2d, sample_metric_ball
from tests.test_control import kkt_qp, random_instance
from tests.test_metric import lattice_shortest_path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "threeD_desk"
    cfg = ExperimentConfig.from_file(CONFIG_DIR / "threeD_desk.toml")
    cfg = dataclasses.replace(cfg, out_dir=str(out))
    t0 = time.time()
    report = run_pipeline(cfg)
    return report, time.time() - t0


@pytest.fixture(scope="session")
def plan_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "threeD_desk_plan"
    cfg = ExperimentConfig.from_file(CONFIG_DIR / "threeD_desk_plan.toml")
    cfg = dataclasses.replace(cfg, out_dir=str(out))
    t0 = time.time()
    report = run_pipeline(cfg, stop_after="plan")
    return report, time.time() - t0


def test_criterion_1_conformal_exactness():
    """Split-conformal marginal coverage on exchangeable synthetic scores."""
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2024)))
    reps, n2, alpha = 10_000, 50, 0.05
    hits = 0
    for _ in range(reps):
        scores = rng.uniform(size=n2)
        q = calibrate(scores, alpha).quantile_value
        hits += empirical_coverage([rng.uniform()], q)
    elapsed = time.time() - t0
    mean = hits / reps
    lo, hi = 1 - alpha, 1 - alpha + 1 / (n2 + 1)
    se = math.sqrt(mean * (1 - mean) / reps)
    assert lo - 3 * se <= mean <= hi + 3 * se
    assert elapsed < 10.0
    _report(1, f"mean coverage {mean:.4f} in [{lo:.4f}, {hi:.4f}] +- 3SE, {elapsed:.1f}s")


def test_criterion_2_desk_scale_coverage(desk_run):
    """Whole-trajectory tube containment at desk scale."""
    report, elapsed = desk_run
    cov = report["coverage"]
    assert cov["n_rollouts"] == 100
    assert report["calibration"]["n_cal"] == 50
    assert report["calibration"]["alpha"] == 0.05
    slack = 2 * math.sqrt(0.05 * 0.95 / 100)
    floor = 0.95 - slack
    assert cov["fraction"] >= floor
    assert elapsed < 300.0
    _report(2, f"containment {cov['fraction']:.3f} >= {floor:.3f}, {elapsed:.0f}s")


def test_criterion_3_envelope(desk_run):
    """Transient envelope holds on every contained rollout."""
    report, _ = desk_run
    worst = report["coverage"]["envelope_worst_excess_contained"]
    assert worst <= 0.0
    _report(3, f"worst envelope excess among contained rollouts {worst:.4f} <= 0")


def test_criterion_4_nominal_contraction(bench3d, metric3d):
    """Empirical decay rate of the tracking error without uncertainty."""
    nom, _ = bench3d
    lam = metric3d.rate
    T = 3.0 / lam
    dt = 0.01
    M = metric3d.constant_matrix
    rng = np.random.default_rng(14)
    rates = []
    for _ in range(20):
        x_ref0 = rng.uniform(-0.5, 0.5, 3)
        knots = PiecewiseLinearInput(
            np.linspace(0.0, T, 4), rng.uniform(-0.25, 0.25, (4, 2))
        )
        ref = integrate(nom, x_ref0, knots, T, dt)
        x0 = x_ref0 + rng.uniform(-0.4, 0.4, 3)
        (roll,) = track(nom, metric3d, make_zero_predictor(3, 2), [ref], [x0])
        D = roll.states - ref.states
        d = np.sqrt(np.einsum("ki,ij,kj->k", D, M, D))
        mask = d > 0
        slope = np.polyfit(roll.times[mask], np.log(d[mask]), 1)[0]
        rates.append(-slope)
    rates = np.array(rates)
    assert np.all(rates >= 0.9 * lam)
    _report(4, f"fit rates in [{rates.min():.3f}, {rates.max():.3f}] >= 0.9*lambda = {0.9 * lam:.3f}")


def test_criterion_5_qp_oracle_equivalence():
    """Closed-form min-norm feedback against a numeric one-constraint QP."""
    t0 = time.time()
    rng = np.random.default_rng(99)
    active = 0
    for _ in range(1000):
        metric, sys, x, x_ref, u_ref = random_instance(rng)
        terms = feedback_terms(metric, sys, x, x_ref, u_ref)
        kappa = min_norm_feedback(metric, sys, x, x_ref, u_ref)
        oracle = kkt_qp(terms.a, terms.b)
        assert np.max(np.abs(kappa - oracle)) <= 1e-8
        active += terms.b > 0
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(5, f"1000 instances ({active} active) match to 1e-8, {elapsed:.2f}s")


def test_criterion_6_geodesic_correctness(poly_metric_2d):
    """Constant-metric closed form and the lattice shortest-path oracle."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        A = rng.normal(size=(3, 3))
        M = A @ A.T + 0.4 * np.eye(3)
        metric = ContractionMetric.constant(M, rate=1.0)
        x, y = rng.normal(size=3), rng.normal(size=3)
        d, _ = riemannian_distance(metric, x, y)
        closed = np.sqrt((x - y) @ M @ (x - y))
        worst = max(worst, abs(d - closed))
        assert abs(d - closed) <= 1e-10 * max(1.0, closed)
    start, goal = np.array([0.0, 0.0]), np.array([1.2, 0.6])
    d_opt, geo = riemannian_distance(poly_metric_2d, start, goal, segments=24)
    assert geo.converged
    d_lat = lattice_shortest_path(
        poly_metric_2d, start, goal, [(-0.3, 1.5), (-0.4, 1.0)], spacing=0.02
    )
    rel = abs(d_opt - d_lat) / d_lat
    assert rel <= 0.01
    _report(6, f"constant worst |err| {worst:.1e} <= 1e-10; lattice gap {rel:.4%} <= 1%")


def test_criterion_7_schur_projection_soundness(metric_vtol):
    """6D tube cross-sections project inside their 2D shadow, tightly."""
    radius = 0.9
    from prcitube.systems import TrajectoryRecord

    ref = TrajectoryRecord(np.arange(3) * 0.1, np.zeros((3, 6)), np.zeros((3, 2)))
    tube = PRCITube(ref, metric_vtol, radius, alpha=0.05)
    proj = project_tube_2d(tube, (0, 1))
    P = proj.shapes[0]
    M = metric_vtol.constant_matrix
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    pts = sample_metric_ball(metric_vtol, np.zeros(6), radius, 10_000, rng)
    quad = np.einsum("ki,ij,kj->k", pts[:, :2], P, pts[:, :2])
    assert np.all(quad <= radius**2 * (1 + 1e-12))
    rest = [2, 3, 4, 5]
    Mcc = M[np.ix_(rest, rest)]
    Mcp = M[np.ix_(rest, [0, 1])]
    vals, vecs = np.linalg.eigh(P)
    touch_err = 0.0
    for k in range(2):
        y = radius / np.sqrt(vals[k]) * vecs[:, k]
        full = np.zeros(6)
        full[:2] = y
        full[rest] = -np.linalg.solve(Mcc, Mcp @ y)
        touch_err = max(touch_err, abs(full @ M @ full - radius**2))
    assert touch_err <= 1e-6
    _report(7, f"10^4 interior points sound; boundary touch error {touch_err:.1e} <= 1e-6")


def test_criterion_8_tightened_planning(plan_run):
    """Original-constraint satisfaction under tube-tightened planning."""
    report, elapsed = plan_run
    p = report["plan"]
    e2e = p["end_to_end"]
    assert e2e["n_rollouts"] == 100
    slack = 2 * math.sqrt(0.05 * 0.95 / 100)
    bound = 0.05 + slack
    assert e2e["original_violation_fraction"] <= bound
    _report(
        8,
        f"violation fraction {e2e['original_violation_fraction']:.3f} <= {bound:.3f} "
        f"(containment {e2e['containment_fraction']:.3f}), {elapsed:.0f}s",
    )


def test_criterion_9_pipeline_determinism(tmp_path):
    """Byte-identical report JSON for identical config and seed."""
    cfg = ExperimentConfig.from_dict(
        {
            "benchmark": "threeD",
            "seed": 5,
            "n_train": 4,
            "n_cal": 6,
            "n_test": 3,
            "horizon_s": 1.0,
            "dt_s": 0.01,
            "alpha": 0.4,
            "predictor_family": "linear_features",
            "metric_grid_points": 3,
            "lambda_lo": 0.3,
            "lambda_hi": 0.8,
            "plan_enabled": True,
            "two_step": True,
            "plan_start": [0.3, 0.2, 0.1],
            "plan_goal": [-0.2, 0.1, 0.0],
            "plan_max_iter": 15,
            "tighten_budget": 4,
            "out_dir": str(tmp_path / "det"),
        }
    )
    run_pipeline(cfg)
    first = (tmp_path / "det" / "report.json").read_bytes()
    shutil.rmtree(tmp_path / "det")
    run_pipeline(cfg)
    second = (tmp_path / "det" / "report.json").read_bytes()
    assert first == second
    digest = json.loads(first)["stages"]
    _report(9, f"two runs byte-identical over stages {digest}")

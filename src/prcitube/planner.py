"""Reference planning inside tightened constraints, and end-to-end runs.

Direct single shooting: the decision variables are the input values on the
simulation grid (linear interpolation between nodes, matching how the
integrator samples policies), rolled out through the nominal dynamics with
the simulator's own RK4 step (``systems.rk4_step``), so stored plans
re-integrate to themselves.  The objective is

    sum_{k=0..N} dt * ( w1_k ||u_k||^2 + w2 * P(x_k, u_k) )  +  w2 * goal_dist(x_N)^2

with w1_k = w1 before the last node and 0 at it, where P collects bounded
log-barriers on obstacle ellipses and on the (tightened) state/input boxes.
The cost is the forward half of the gradient, which a discrete adjoint
sweep through the RK4 stages completes (stage Jacobians by central
differences); descent is plain gradient with backtracking line search.
``end_to_end_run`` tracks a plan on the true plant with ``control.track``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .control import track
from .errors import InfeasiblePlan
from .metric import ContractionMetric, jacobian_fd
from .predictor import UncertaintyPredictor
from .systems import DynamicalSystem, TrajectoryRecord, _in_box, rk4_step
from .systems import integrate  # noqa: F401  (perfbench/test_perfbench.py looks it up here)
from .tube import PRCITube, rollout_containment, start_in_ball

Array = np.ndarray
log = logging.getLogger(__name__)

MU_OBSTACLE = 5.0               # barrier weight of the obstacle ellipses
MU_BOX = 1e-3                   # barrier weight of the state and input boxes


@dataclass(frozen=True, eq=False)
class ObstacleEllipse:
    """Forbidden region {y : (y-c)^T Q (y-c) < 1} in a coordinate plane."""

    center: Array
    shape: Array            # 2x2 positive definite
    coords: tuple = (0, 1)

    def clearance(self, x: Array) -> float:
        """(y-c)^T Q (y-c) - 1 at the state's plane coordinates; >0 is outside."""
        y = np.asarray(x)[list(self.coords)] - self.center
        return float(y @ self.shape @ y - 1.0)

    def inflate(self, margin: float) -> "ObstacleEllipse":
        """Grow every direction by at least ``margin`` (uniform scaling by
        the smallest semi-axis, a sound over-approximation)."""
        if margin <= 0.0:
            return self
        a_min = 1.0 / np.sqrt(np.linalg.eigvalsh(self.shape)[-1])
        s = 1.0 + margin / a_min
        return ObstacleEllipse(self.center.copy(), self.shape / s**2, self.coords)

    def to_json_dict(self) -> dict:
        return {
            "center": np.asarray(self.center).tolist(),
            "shape": np.asarray(self.shape).tolist(),
            "coords": list(self.coords),
        }


@dataclass(frozen=True, eq=False)
class PlanProblem:
    sys: DynamicalSystem                    # nominal dynamics
    T: float
    dt: float
    x0: Array
    goal: Array
    state_box: Array                        # tightened admissible states (n, 2)
    input_box: Array                        # tightened admissible inputs (m, 2)
    obstacles: tuple = ()
    w1: float = 1.0
    w2: float = 1.0
    goal_weights: Optional[Array] = None


@dataclass(frozen=True, eq=False)
class PlanResult:
    record: TrajectoryRecord
    cost: float
    cost_history: tuple
    converged: bool
    violations: dict


def _box_barrier(v: Array, box: Array, mu: float):
    """Bounded log barrier on a box; (value, gradient). inf outside."""
    lo, hi = box[:, 0], box[:, 1]
    g = np.zeros_like(v)
    val = 0.0
    for k in range(v.size):
        if not np.isfinite(lo[k]) and not np.isfinite(hi[k]):
            continue
        width = hi[k] - lo[k]
        a, b = v[k] - lo[k], hi[k] - v[k]
        if a <= 0.0 or b <= 0.0:
            return np.inf, g
        val -= mu * (np.log(2.0 * a / width) + np.log(2.0 * b / width))
        g[k] = mu * (1.0 / b - 1.0 / a)
    return val, g


def _obstacle_barrier(x: Array, obstacles, mu: float):
    """Bounded barrier mu*log(1 + 1/g) per obstacle; (value, gradient)."""
    val = 0.0
    grad = np.zeros_like(x)
    for o in obstacles:
        i, j = o.coords
        y = x[[i, j]] - o.center
        q = float(y @ o.shape @ y)
        g = q - 1.0
        if g <= 0.0:
            return np.inf, grad
        val += mu * np.log1p(1.0 / g)
        # d/dg log(1 + 1/g) = -1 / (g (g+1)); dg/dy = 2 Q y
        coef = -mu / (g * (g + 1.0)) * 2.0
        gy = coef * (o.shape @ y)
        grad[i] += gy[0]
        grad[j] += gy[1]
    return val, grad


class _Shooting:
    """Rollout, cost and adjoint gradient for a fixed problem."""

    def __init__(self, problem: PlanProblem):
        self.p = problem
        self.n_steps = int(round(problem.T / problem.dt))
        self.gw = (
            np.ones(problem.sys.state_dim)
            if problem.goal_weights is None
            else np.asarray(problem.goal_weights, dtype=float)
        )

    def _field(self, x: Array, u: Array) -> Array:
        return self.p.sys.drift(x) + self.p.sys.actuation(x) @ u

    def rollout(self, U: Array) -> Array:
        return self._forward(U)[0]

    def _forward(self, U: Array) -> tuple[Array, list]:
        """States on the grid under the input nodes U, and per step the RK4
        stage states and inputs the adjoint needs.  A diverging trial is
        NaN from the first bad step on."""
        p, F = self.p, self._field
        X = np.empty((self.n_steps + 1, p.sys.state_dim))
        X[0] = p.x0
        x = p.x0.astype(float)
        stages = []
        for k in range(self.n_steps):
            ua, ub = U[k], U[k + 1]
            um = 0.5 * (ua + ub)
            x, xs = rk4_step(lambda z, c: F(z, um if c == 0.5 else ub), x, p.dt, F(x, ua))
            stages.append(xs + (ua, um, ub))
            if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > 1e8:
                X[k + 1 :] = np.nan     # divergent trial; cost() maps it to inf
                break
            X[k + 1] = x
        return X, stages

    def _stage_cost(self, x, u, w1):
        """Barriers at one node plus w1 ||u||^2 (w1 = 0 at the last node,
        whose barrier-only term keeps the final grid point admissible)."""
        p = self.p
        vb, gb_x = _box_barrier(x, p.state_box, MU_BOX)
        vo, go_x = _obstacle_barrier(x, p.obstacles, MU_OBSTACLE)
        vu, gb_u = _box_barrier(u, p.input_box, MU_BOX)
        if not (np.isfinite(vb) and np.isfinite(vo) and np.isfinite(vu)):
            return np.inf, None, None
        val = w1 * float(u @ u) + p.w2 * (vb + vo + vu)
        gx = p.w2 * (gb_x + go_x)
        gu = 2.0 * w1 * u + p.w2 * gb_u
        return val, gx, gu

    def _objective(self, U: Array):
        """Forward half: the cost, the RK4 stages of the rollout, and the
        explicit gradients in each node's state and input.  The cost is inf
        when the rollout diverges or leaves a barrier's domain."""
        p, dt = self.p, self.p.dt
        X, stages = self._forward(U)
        run_gx = np.zeros_like(X)
        gU = np.zeros_like(U)
        if not np.all(np.isfinite(X)):
            return np.inf, stages, run_gx, gU
        total = 0.0
        for k in range(self.n_steps + 1):
            w1 = p.w1 if k < self.n_steps else 0.0
            v, gx, gu = self._stage_cost(X[k], U[k], w1)
            if not np.isfinite(v):
                return np.inf, stages, run_gx, gU
            total += dt * v
            run_gx[k] = dt * gx
            gU[k] += dt * gu
        e = self.gw * (X[-1] - p.goal)
        run_gx[-1] += 2.0 * p.w2 * self.gw * e
        return total + p.w2 * float(e @ e), stages, run_gx, gU

    def cost(self, U: Array) -> float:
        return self._objective(U)[0]

    def cost_and_grad(self, U: Array):
        dt, B, F = self.p.dt, self.p.sys.actuation, self._field
        total, stages, run_gx, gU = self._objective(U)
        if not np.isfinite(total):
            return total, gU

        # Adjoint sweep: lam = dJ/dx_k, distributed through the RK4 stages.
        lam = run_gx[-1]
        for k in range(self.n_steps - 1, -1, -1):
            x1, x2, x3, x4, ua, um, ub = stages[k]
            J1 = jacobian_fd(lambda z: F(z, ua), x1)
            J2 = jacobian_fd(lambda z: F(z, um), x2)
            J3 = jacobian_fd(lambda z: F(z, um), x3)
            J4 = jacobian_fd(lambda z: F(z, ub), x4)
            kb4 = (dt / 6.0) * lam
            xb4 = J4.T @ kb4
            kb3 = (dt / 3.0) * lam + dt * xb4
            xb3 = J3.T @ kb3
            kb2 = (dt / 3.0) * lam + 0.5 * dt * xb3
            xb2 = J2.T @ kb2
            kb1 = (dt / 6.0) * lam + 0.5 * dt * xb2
            xb1 = J1.T @ kb1
            gU[k] += B(x1).T @ kb1 + 0.5 * (B(x2).T @ kb2 + B(x3).T @ kb3)
            gU[k + 1] += 0.5 * (B(x2).T @ kb2 + B(x3).T @ kb3) + B(x4).T @ kb4
            lam = lam + xb1 + xb2 + xb3 + xb4 + run_gx[k]
        return total, gU


def plan(
    problem: PlanProblem,
    init: Optional[Array] = None,
    max_iter: int = 120,
    tol_rel: float = 1e-8,
) -> PlanResult:
    """Locally optimal plan by shooting; raises InfeasiblePlan when the
    barrier cannot be initialized, flags non-convergence otherwise."""
    p = problem
    for tag, box, v in (("start", p.state_box, p.x0), ("goal", p.state_box, p.goal)):
        if np.any(v < box[:, 0]) or np.any(v > box[:, 1]):
            raise InfeasiblePlan(f"{tag} state outside the tightened state box")
    sh = _Shooting(p)
    U = np.zeros((sh.n_steps + 1, p.sys.input_dim)) if init is None else np.array(init, dtype=float)
    if U.shape != (sh.n_steps + 1, p.sys.input_dim):
        raise ValueError("warm start has the wrong shape")

    cost = sh.cost(U)
    if not np.isfinite(cost):
        raise InfeasiblePlan("initial rollout leaves the feasible region; provide a warm start")
    history = [cost]
    step = 1.0
    converged = False
    prev_U = prev_g = None
    stall = 0
    for _ in range(max_iter):
        _, gU = sh.cost_and_grad(U)
        gn2 = float(np.sum(gU * gU))
        if gn2 == 0.0:
            converged = True
            break
        # Barzilai-Borwein trial step, safeguarded by the halving search.
        if prev_g is not None:
            dU = U - prev_U
            dg = gU - prev_g
            denom = float(np.sum(dU * dg))
            if denom > 0:
                step = float(np.sum(dU * dU)) / denom
        alpha = min(max(step, 1e-12), 1e6)
        prev_U, prev_g = U, gU
        while alpha > 1e-16:
            trial = U - alpha * gU
            c_new = sh.cost(trial)
            if c_new <= cost - 1e-4 * alpha * gn2:
                break
            alpha *= 0.5
        else:
            break       # the line search ran out: a stall, not convergence
        U, prev, cost = trial, cost, c_new
        step = alpha * 2.0
        history.append(cost)
        # BB steps make per-iteration decreases uneven; require a sustained stall
        stall = stall + 1 if (prev - cost) <= tol_rel * max(abs(prev), 1e-300) else 0
        if stall >= 3:
            converged = True
            break
    if not converged:
        log.warning("plan: not converged (cap reached or line search stalled), best iterate kept")

    X = sh.rollout(U)
    times = np.arange(sh.n_steps + 1) * p.dt
    record = TrajectoryRecord(times, X, U)
    violations = {
        "state_box_excess": float(
            np.max(
                np.maximum(
                    np.max(p.state_box[:, 0] - X, axis=0),
                    np.max(X - p.state_box[:, 1], axis=0),
                ),
            )
        ),
        "input_box_excess": float(
            np.max(
                np.maximum(
                    np.max(p.input_box[:, 0] - U, axis=0),
                    np.max(U - p.input_box[:, 1], axis=0),
                ),
            )
        ),
        "min_obstacle_clearance": (
            min(min(o.clearance(x) for x in X) for o in p.obstacles)
            if p.obstacles
            else float("inf")
        ),
        "goal_distance": float(np.linalg.norm(sh.gw * (X[-1] - p.goal))),
    }
    return PlanResult(record, float(cost), tuple(history), converged, violations)


# ---------------------------------------------------------------------------
# Closed-loop evaluation of a plan against the true system
# ---------------------------------------------------------------------------

def end_to_end_run(
    sys_true: DynamicalSystem,
    plan_result: PlanResult,
    metric: ContractionMetric,
    predictor: Optional[UncertaintyPredictor],
    calibration,
    n_rollouts: int = 10,
    seed: int = 0,
    start_radius: Optional[float] = None,
    obstacles: Sequence[ObstacleEllipse] = (),
) -> dict:
    """Track the plan with the compensated policy against the true plant.

    Reports per-rollout tube containment, original state/input constraint
    satisfaction and obstacle clearance; a diverged rollout fails all of
    them.  Rollout starts are sampled uniformly in the initial
    cross-section of radius ``start_radius`` (default: the tube radius;
    0.0 starts every rollout at the reference start).  Pass the same radius
    that generated the calibration records so starts stay exchangeable with
    them.
    """
    ref = plan_result.record
    tube = PRCITube.from_calibration(ref, metric, calibration, source_id="end-to-end")
    r0 = tube.radius if start_radius is None else float(start_radius)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    per = []
    for _ in range(n_rollouts):
        x0 = start_in_ball(metric, ref.states[0], r0, rng)
        roll = track(sys_true, metric, predictor, ref, x0)
        c = rollout_containment(tube, roll)
        row = {
            "contained": c.contained,
            # the invariance statement assumes the start lies in the tube
            "start_eligible": bool(c.start_distance <= tube.radius),
            "sup_distance": c.sup_distance,
        }
        if roll is None:
            row.update(state_ok=False, input_ok=False, min_clearance=float("-inf"))
        else:
            row.update(
                state_ok=_in_box(roll.states, sys_true.state_box),
                input_ok=_in_box(roll.inputs, sys_true.input_box),
                min_clearance=float(
                    min((o.clearance(x) for o in obstacles for x in roll.states), default=np.inf)
                ),
            )
        per.append(row)
    n = len(per)
    eligible = [r for r in per if r["start_eligible"]]
    return {
        "n_rollouts": n,
        "radius": tube.radius,
        "alpha": tube.alpha,
        "containment_fraction": sum(r["contained"] for r in per) / n,
        "n_start_eligible": len(eligible),
        "containment_fraction_eligible": (
            sum(r["contained"] for r in eligible) / len(eligible) if eligible else float("nan")
        ),
        "original_violation_fraction": sum(
            (not r["state_ok"]) or (not r["input_ok"]) for r in per
        )
        / n,
        "obstacle_violation_fraction": sum(r["min_clearance"] < 0.0 for r in per) / n,
        "rollouts": per,
    }

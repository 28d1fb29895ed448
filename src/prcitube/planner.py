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
sweep through the RK4 stages completes.  The sweep's stage Jacobians come
from one central-difference call (``metric.jacobian_fd``) on the block of
all 4 * n_steps stage states, which the plant callables take as
``(N, n)`` rows like every other block caller of ``systems``; descent is
plain gradient with backtracking line search.
``end_to_end_run`` judges the closed-loop rollouts of a plan on the true
plant, which the caller tracks with ``control.track``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InfeasiblePlan
from .metric import ContractionMetric, jacobian_fd
from .systems import DynamicalSystem, TrajectoryRecord, _in_box, matvec, rk4_step, rowdot
from .systems import integrate  # noqa: F401  (perfbench/test_perfbench.py looks it up here)
from .tube import PRCITube, rollout_containment

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


def _box_barrier(V: Array, box: Array, mu: float):
    """Bounded log barrier on a box at every node (row) of V: per node the
    value and its gradient.  A node's coordinates are summed in order,
    unbounded ones skipped.  When some node leaves the box, those nodes
    read inf and no value is computed (zeros elsewhere)."""
    lo, hi = box[:, 0], box[:, 1]
    val = np.zeros(len(V))
    g = np.zeros_like(V)
    bounded = [k for k in range(V.shape[1]) if np.isfinite(lo[k]) or np.isfinite(hi[k])]
    A, B = V - lo, hi - V
    outside = np.any((A[:, bounded] <= 0.0) | (B[:, bounded] <= 0.0), axis=1)
    if np.any(outside):
        val[outside] = np.inf
        return val, g
    for k in bounded:
        width = hi[k] - lo[k]
        a, b = A[:, k], B[:, k]
        val -= mu * (np.log(2.0 * a / width) + np.log(2.0 * b / width))
        g[:, k] = mu * (1.0 / b - 1.0 / a)
    return val, g


def _obstacle_barrier(X: Array, obstacles, mu: float):
    """Bounded barrier mu*log(1 + 1/g) per obstacle at every node (row) of
    X: per node the value and its gradient, summed over the obstacles in
    order.  When some node is inside an obstacle, those nodes read inf and
    no value is computed (zeros elsewhere)."""
    val = np.zeros(len(X))
    grad = np.zeros_like(X)
    parts = []
    for o in obstacles:
        Y = X[:, list(o.coords)] - o.center
        # g = y^T Q y - 1, rounded as y @ Q @ y
        parts.append((o, Y, rowdot(np.matmul(Y[:, None, :], o.shape)[:, 0, :], Y) - 1.0))
    inside = np.zeros(len(X), dtype=bool)
    for _, _, g in parts:
        inside |= g <= 0.0
    if np.any(inside):
        val[inside] = np.inf
        return val, grad
    for o, Y, g in parts:
        i, j = o.coords
        val += mu * np.log1p(1.0 / g)
        # d/dg log(1 + 1/g) = -1 / (g (g+1)); dg/dy = 2 Q y
        coef = -mu / (g * (g + 1.0)) * 2.0
        gy = coef[:, None] * matvec(o.shape, Y)
        grad[:, i] += gy[:, 0]
        grad[:, j] += gy[:, 1]
    return val, grad


class _Objective(NamedTuple):
    """The forward half at one input sequence U: the cost (inf when the
    rollout diverges or leaves a barrier's domain), the grid states X, the
    RK4 stage states S (n_steps, 4, n) and stage inputs V (n_steps, 3, m)
    (u_k, the midpoint input, u_{k+1}), and the explicit gradients of the
    cost in each node's state and input."""

    cost: float
    X: Array
    S: Array
    V: Array
    run_gx: Array
    gU: Array


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
        return self.p.sys.drift(x) + matvec(self.p.sys.actuation(x), u)

    def rollout(self, U: Array) -> Array:
        return self._forward(U)[0]

    def _forward(self, U: Array) -> tuple[Array, Array, Array]:
        """States on the grid under the input nodes U, and per step the RK4
        stage states (n_steps, 4, n) and stage inputs (n_steps, 3, m) the
        adjoint needs.  A diverging trial is NaN from the first bad step
        on, and its later stages are left unset."""
        p, F = self.p, self._field
        n, m = p.sys.state_dim, p.sys.input_dim
        X = np.empty((self.n_steps + 1, n))
        S = np.empty((self.n_steps, 4, n))
        V = np.empty((self.n_steps, 3, m))
        X[0] = p.x0
        x = p.x0.astype(float)
        for k in range(self.n_steps):
            ua, ub = U[k], U[k + 1]
            um = 0.5 * (ua + ub)
            x, S[k] = rk4_step(lambda z, c: F(z, um if c == 0.5 else ub), x, p.dt, F(x, ua))
            V[k] = ua, um, ub
            if not np.max(np.abs(x)) <= 1e8:      # a NaN or inf state fails too
                X[k + 1 :] = np.nan     # divergent trial; the objective maps it to inf
                break
            X[k + 1] = x
        return X, S, V

    def objective(self, U: Array) -> _Objective:
        """Forward half: the rollout under U and the cost with its explicit
        gradients.  Each node adds barriers plus w1 ||u||^2 (w1 = 0 at the
        last node, whose barrier-only term keeps the final grid point
        admissible); the nodes' terms are added in grid order."""
        p, dt = self.p, self.p.dt
        X, S, V = self._forward(U)
        run_gx = np.zeros_like(X)
        gU = np.zeros_like(U)
        if not np.all(np.isfinite(X)):
            return _Objective(np.inf, X, S, V, run_gx, gU)
        vb, gb_x = _box_barrier(X, p.state_box, MU_BOX)
        vo, go_x = _obstacle_barrier(X, p.obstacles, MU_OBSTACLE)
        vu, gb_u = _box_barrier(U, p.input_box, MU_BOX)
        barriers = vb + vo + vu
        if not np.all(np.isfinite(barriers)):
            return _Objective(np.inf, X, S, V, run_gx, gU)
        w1 = np.full(self.n_steps + 1, p.w1)
        w1[-1] = 0.0
        v = w1 * rowdot(U, U) + p.w2 * barriers
        total = np.cumsum(dt * v)[-1]       # left to right as a running sum; np.sum adds in pairs
        run_gx[:] = dt * (p.w2 * (gb_x + go_x))
        gU += dt * ((2.0 * w1)[:, None] * U + p.w2 * gb_u)
        e = self.gw * (X[-1] - p.goal)
        run_gx[-1] += 2.0 * p.w2 * self.gw * e
        return _Objective(total + p.w2 * float(e @ e), X, S, V, run_gx, gU)

    def gradient(self, obj: _Objective) -> Array:
        """Backward half: the gradient in U of a finite objective, from a
        discrete adjoint sweep through its RK4 stages."""
        dt, B, F = self.p.dt, self.p.sys.actuation, self._field
        gU = obj.gU.copy()
        # Every stage Jacobian of the rollout in one FD call: the four stage
        # states of each step as rows of one (4 n_steps, n) block, each row
        # with the input its stage saw.
        n, m = self.p.sys.state_dim, self.p.sys.input_dim
        Z = obj.S.reshape(-1, n)
        V = obj.V[:, [0, 1, 1, 2]].reshape(-1, m)
        jacs = jacobian_fd(lambda z: F(z, V), Z).reshape(self.n_steps, 4, n, n)

        # Adjoint sweep: lam = dJ/dx_k, distributed through the RK4 stages.
        lam = obj.run_gx[-1]
        for k in range(self.n_steps - 1, -1, -1):
            x1, x2, x3, x4 = obj.S[k]
            J1, J2, J3, J4 = jacs[k]
            kb4 = (dt / 6.0) * lam
            xb4 = J4.T @ kb4
            kb3 = (dt / 3.0) * lam + dt * xb4
            xb3 = J3.T @ kb3
            kb2 = (dt / 3.0) * lam + 0.5 * dt * xb3
            xb2 = J2.T @ kb2
            kb1 = (dt / 6.0) * lam + 0.5 * dt * xb2
            xb1 = J1.T @ kb1
            mid = 0.5 * (B(x2).T @ kb2 + B(x3).T @ kb3)     # midpoint stages, half to each node
            gU[k] += B(x1).T @ kb1 + mid
            gU[k + 1] += mid + B(x4).T @ kb4
            lam = lam + xb1 + xb2 + xb3 + xb4 + obj.run_gx[k]
        return gU

    def cost(self, U: Array) -> float:
        return self.objective(U).cost

    def cost_and_grad(self, U: Array):
        obj = self.objective(U)
        if not np.isfinite(obj.cost):
            return obj.cost, obj.gU
        return obj.cost, self.gradient(obj)


def plan(
    problem: PlanProblem,
    init: Optional[Array] = None,
    max_iter: int = 120,
    tol_rel: float = 1e-8,
) -> PlanResult:
    """Locally optimal plan by shooting; raises InfeasiblePlan when the
    barrier cannot be initialized, flags non-convergence otherwise.

    Each iterate's forward half is computed once: the objective of the
    accepted line-search trial gives the next gradient, and that of the
    final iterate gives the returned rollout."""
    p = problem
    for tag, box, v in (("start", p.state_box, p.x0), ("goal", p.state_box, p.goal)):
        if np.any(v < box[:, 0]) or np.any(v > box[:, 1]):
            raise InfeasiblePlan(f"{tag} state outside the tightened state box")
    sh = _Shooting(p)
    U = np.zeros((sh.n_steps + 1, p.sys.input_dim)) if init is None else np.array(init, dtype=float)
    if U.shape != (sh.n_steps + 1, p.sys.input_dim):
        raise ValueError("warm start has the wrong shape")

    obj = sh.objective(U)
    cost = obj.cost
    if not np.isfinite(cost):
        raise InfeasiblePlan("initial rollout leaves the feasible region; provide a warm start")
    history = [cost]
    step = 1.0
    converged = False
    prev_U = prev_g = None
    stall = 0
    for _ in range(max_iter):
        gU = sh.gradient(obj)
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
            trial_obj = sh.objective(trial)
            c_new = trial_obj.cost
            if c_new <= cost - 1e-4 * alpha * gn2:
                break
            alpha *= 0.5
        else:
            break       # the line search ran out: a stall, not convergence
        U, prev, cost, obj = trial, cost, c_new, trial_obj
        step = alpha * 2.0
        history.append(cost)
        # BB steps make per-iteration decreases uneven; require a sustained stall
        stall = stall + 1 if (prev - cost) <= tol_rel * max(abs(prev), 1e-300) else 0
        if stall >= 3:
            converged = True
            break
    if not converged:
        log.warning("plan: not converged (cap reached or line search stalled), best iterate kept")

    X = obj.X
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
    sys_nominal: DynamicalSystem,
    plan_result: PlanResult,
    metric: ContractionMetric,
    calibration,
    rollouts: Sequence[Optional[TrajectoryRecord]],
    obstacles: Sequence[ObstacleEllipse] = (),
) -> dict:
    """Judge closed-loop rollouts of the plan on the true plant, as
    ``control.track`` returns them (None for one that diverged).

    Reports per-rollout tube containment, original state/input constraint
    satisfaction and obstacle clearance; a diverged rollout fails all of
    them.  A start counts as eligible when it lies in the tube's initial
    cross-section.
    """
    tube = PRCITube.from_calibration(
        plan_result.record, metric, calibration, source_id="end-to-end"
    )
    per = []
    for roll in rollouts:
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
                state_ok=_in_box(roll.states, sys_nominal.state_box),
                input_ok=_in_box(roll.inputs, sys_nominal.input_box),
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

"""The per-rollout closed loop, the per-step planner adjoint, the planner
loop, the one-flight waypoint PD law and the per-point metric stage as they
were before they were stepped in blocks (or, for the planner loop, before
it kept its forward passes, and for the dataset loader, before it parsed
records on first use), frozen here as the oracles that the new paths are
checked against.

One state at a time: the plant functions index scalars, every product is
a plain one-row ``@``, the constant feedback is the scalar
``feedback_terms``, the policy keeps one delayed-input ladder and each FD
Jacobian is taken at one state.  Nothing
here imports the code under test except plain data (the constant matrices,
a metric's matrix and rate, a trained predictor's parameters, a planning
problem's plant and obstacles), for the metric stage a metric's
``evaluate`` and ``directional_partial``, none of which is batched, and for
the dataset loader the record's CSV parser and the dataset containers, which
it fills with parsed records.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from prcitube.errors import DegenerateConstraint, NonFiniteState
from prcitube.metric import GEODESIC_SEGMENTS
from prcitube.predictor import DatasetEntry, TrainingDataset, _poly_features, _unpack_mlp
from prcitube.systems import (
    _B3_NOMINAL,
    _B3_TRUE,
    _B_VTOL,
    _BLOWUP_LIMIT,
    VTOL_ARM,
    VTOL_GRAVITY,
    VTOL_INERTIA,
    VTOL_KPHIDOT,
    VTOL_KZ,
    VTOL_MASS,
    PiecewiseLinearInput,
    TrajectoryRecord,
)

PINV_RCOND = 1e-10
DEGENERATE_TOL = 1e-10


# -- plants ---------------------------------------------------------------------

def _field3(theta1, theta2, theta3, B):
    def phi(x):
        q = theta3 * (x[0] * x[0])
        return np.array([theta2 * x[2] + q, theta2 * x[1] + q])

    def drift(x):
        base = np.array([x[2] - theta1 * x[0], x[0] * x[0] - x[1], np.tanh(x[1])])
        return base - B @ phi(x)

    return drift


def plant_3d(theta=(0.4, 0.2, 0.1), delta=(0.0, 0.02, -0.01)):
    th = np.asarray(theta, dtype=float)
    dth = th + np.asarray(delta, dtype=float)
    drift_nom = _field3(*th, _B3_NOMINAL)
    drift_true = _field3(*dth, _B3_TRUE)

    def zeta(x, u):
        return (drift_true(x) + _B3_TRUE @ u) - (drift_nom(x) + _B3_NOMINAL @ u)

    return SimpleNamespace(drift=drift_nom, B=_B3_NOMINAL, zeta=zeta)


def vtol_drift(x):
    _, _, phi, vx, vz, phidot = x
    g = VTOL_GRAVITY
    return np.array(
        [
            vx * np.cos(phi) - vz * np.sin(phi),
            vx * np.sin(phi) + vz * np.cos(phi),
            phidot,
            vz * phidot - g * np.sin(phi),
            -vx * phidot - g * np.cos(phi),
            0.0,
        ]
    )


def plant_vtol():
    def zeta(x, u):
        v = np.hypot(x[3], x[4])
        un = np.linalg.norm(u)
        return _B_VTOL @ np.array([-VTOL_KZ * v + VTOL_KPHIDOT * un, VTOL_KPHIDOT * un])

    return SimpleNamespace(drift=vtol_drift, B=_B_VTOL, zeta=zeta)


# -- predictor --------------------------------------------------------------------

def predict(p, x, u):
    """One (x, u) pair through the predictor as a one-row GEMM batch."""
    XU = np.concatenate([x, u])[None, :]
    if p.family == "zero":
        return np.zeros(p.output_dim)
    lo = p.feature_spec.get("input_low")
    if lo is not None:
        XU = np.clip(XU, np.asarray(lo), np.asarray(p.feature_spec["input_high"]))
    if p.family == "linear_features":
        return (_poly_features(p._feature_columns, XU) @ p.theta.reshape(-1, p.output_dim))[0]
    spec = p.feature_spec
    Z = (XU - np.asarray(spec["input_shift"])) / np.asarray(spec["input_scale"])
    params = _unpack_mlp(p.theta, spec["layers"])
    for W, b in params[:-1]:
        Z = np.tanh(Z @ W.T + b)
    W, b = params[-1]
    raw = Z @ W.T + b
    return (raw * np.asarray(spec["output_scale"]) + np.asarray(spec["output_shift"]))[0]


# -- constant-metric feedback ---------------------------------------------------------

def min_norm_feedback(M, rate, plant, x, x_ref, u_ref):
    d = x - x_ref
    K = GEODESIC_SEGMENTS
    w = np.array([[1.0], [2.0], [K - 2.0], [K - 1.0]]) / K
    c1, c2, c_2, c_1 = (1.0 - w) * x_ref + w * x
    g0 = K * (2.0 * (c1 - x_ref) - 0.5 * (c2 - x_ref))
    g1 = K * (2.0 * (x - c_1) - 0.5 * (x - c_2))
    energy = float(d @ M @ d)
    B = plant.B
    Mg = M @ g1
    a = -(B.T @ Mg)
    t1 = g1 @ (M @ (plant.drift(x) + B @ u_ref))
    t2 = g0 @ (M @ (plant.drift(x_ref) + B @ u_ref))
    b = rate * energy + t1 - t2
    scale = rate * energy + abs(t1) + abs(t2)
    if b <= 1e-12 * scale:
        b = min(b, 0.0)
    if b <= 0.0:
        return np.zeros(B.shape[1])
    na = float(np.linalg.norm(a))
    if na <= DEGENERATE_TOL * max(float(np.linalg.norm(B) * np.linalg.norm(Mg)), DEGENERATE_TOL):
        raise DegenerateConstraint("degenerate")
    return (float(b) / (na * na)) * a


# -- policy and rollout -----------------------------------------------------------------

class Policy:
    """The compensated policy with its delayed-input ladder, one rollout."""

    def __init__(self, M, rate, plant, reference, predictor):
        self.M, self.rate, self.plant = M, rate, plant
        self.reference, self.predictor = reference, predictor
        self.dt = reference.dt
        m = plant.B.shape[1]
        self._step_index, self._u_prev, self._u_curr = -1, np.zeros(m), np.zeros(m)

    def delayed_input(self, t):
        j = int(np.floor(t / self.dt + 1e-9))
        if j <= 0:
            return np.zeros(self.plant.B.shape[1])
        if j >= self._step_index + 1:
            return self._u_curr
        return self._u_prev

    def notify_step(self, x, t):
        k = int(round(t / self.dt))
        u_minus = self._u_curr if k > 0 else np.zeros(self.plant.B.shape[1])
        u = self._compute(x, t, u_minus)
        self._u_prev, self._u_curr = self._u_curr, u
        self._step_index = k
        return u

    def __call__(self, x, t):
        return self._compute(x, t, self.delayed_input(t))

    def _compute(self, x, t, u_minus):
        x_ref = self.reference.state_at(t)
        u_ref = self.reference.interpolate(self.reference.inputs, t)
        u = u_ref + min_norm_feedback(self.M, self.rate, self.plant, x, x_ref, u_ref)
        if self.predictor is not None:
            zeta_hat = predict(self.predictor, x, u_minus)
            u = u - np.linalg.pinv(self.plant.B, rcond=PINV_RCOND) @ zeta_hat
        return u


def track(plant, metric, predictor, reference, x0):
    """One compensated closed-loop rollout of the true plant, or None when
    it diverges."""
    policy = Policy(metric.constant_matrix, metric.rate, plant, reference, predictor)
    dt = reference.dt
    n_steps = int(round(reference.horizon / dt))
    B = plant.B

    def field(x, u):
        return plant.drift(x) + B @ u + plant.zeta(x, u)

    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, B.shape[0]))
    inputs = np.empty((n_steps + 1, B.shape[1]))
    zetas = np.empty_like(states)
    x = np.asarray(x0, dtype=float).copy()
    try:
        for k in range(n_steps + 1):
            t = times[k]
            if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > _BLOWUP_LIMIT:
                raise NonFiniteState(t, x)
            u_k = policy.notify_step(x, t)
            states[k], inputs[k], zetas[k] = x, u_k, plant.zeta(x, u_k)
            if k == n_steps:
                break
            k1 = plant.drift(x) + B @ u_k + zetas[k]
            x2 = x + 0.5 * dt * k1
            k2 = field(x2, policy(x2, t + 0.5 * dt))
            x3 = x + 0.5 * dt * k2
            k3 = field(x3, policy(x3, t + 0.5 * dt))
            x4 = x + dt * k3
            k4 = field(x4, policy(x4, t + dt))
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    except NonFiniteState:
        return None
    return TrajectoryRecord(times, states, inputs, zetas)


def residual_norms(plant, predictor, record):
    """The residual trace, one grid point at a time."""
    out = np.empty(len(record.times))
    Bp = np.linalg.pinv(plant.B, rcond=PINV_RCOND)
    for k in range(len(record.times)):
        x, u = record.states[k], record.inputs[k]
        u_minus = record.inputs[k - 1] if k >= 1 else np.zeros(record.input_dim)
        r = plant.zeta(x, u) - plant.B @ (Bp @ predict(predictor, x, u_minus))
        out[k] = np.linalg.norm(r)
    return out


# -- planner adjoint ---------------------------------------------------------------------

FD_STEP = 1e-5


def jacobian_fd(func, x):
    """Central-difference Jacobian at one state (with the f(x) call that only
    gave the output shape)."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x), dtype=float)
    jac = np.empty(f0.shape + (x.size,))
    for k in range(x.size):
        h = FD_STEP * max(1.0, abs(x[k]))
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        jac[..., k] = (np.asarray(func(xp)) - np.asarray(func(xm))) / (2.0 * h)
    return jac


def cost_and_grad(shooting, plant, U):
    """``Shooting.cost_and_grad`` with four one-state FD Jacobians of the
    plant's field per step; the forward half is ``shooting._objective`` of
    a ``Shooting`` below."""
    dt, B = shooting.p.dt, plant.B

    def F(x, u):
        return plant.drift(x) + B @ u

    total, stages, run_gx, gU = shooting._objective(U)
    if not np.isfinite(total):
        return total, gU
    lam = run_gx[-1]
    for k in range(shooting.n_steps - 1, -1, -1):
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
        gU[k] += B.T @ kb1 + 0.5 * (B.T @ kb2 + B.T @ kb3)
        gU[k + 1] += 0.5 * (B.T @ kb2 + B.T @ kb3) + B.T @ kb4
        lam = lam + xb1 + xb2 + xb3 + xb4 + run_gx[k]
    return total, gU


# -- planner -----------------------------------------------------------------------------
#
# The shooting planner as it was before its forward half was kept between
# line search and gradient: one forward pass per ``cost`` and per
# ``cost_and_grad`` call, a list of per-step stage tuples, and barriers and
# node costs one node and one coordinate at a time.  The plant callables
# are the problem's own, and the adjoint's Jacobians are one rows FD call,
# so a plan equals this one bit for bit.

MU_OBSTACLE = 5.0
MU_BOX = 1e-3


def _matvec(A, v):
    return A @ v if v.ndim == 1 and A.ndim == 2 else np.matmul(A, v[..., None])[..., 0]


def jacobian_fd_rows(func, x):
    """The rows-general central-difference Jacobian (2n calls of func on
    the whole block)."""
    h = FD_STEP * np.maximum(1.0, np.abs(x))
    up, down = x + h, x - h
    cols = [
        np.asarray(func(np.where(e, up, x))) - np.asarray(func(np.where(e, down, x)))
        for e in np.eye(x.shape[-1], dtype=bool)
    ]
    jac = np.stack(cols, axis=-1)
    return jac / np.reshape(2.0 * h, x.shape[:-1] + (1,) * (jac.ndim - x.ndim) + x.shape[-1:])


def box_barrier(v, box, mu):
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


def obstacle_barrier(x, obstacles, mu):
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
        coef = -mu / (g * (g + 1.0)) * 2.0
        gy = coef * (o.shape @ y)
        grad[i] += gy[0]
        grad[j] += gy[1]
    return val, grad


class Shooting:
    """Rollout, cost and adjoint gradient for a fixed planning problem."""

    def __init__(self, problem):
        self.p = problem
        self.n_steps = int(round(problem.T / problem.dt))
        self.gw = (
            np.ones(problem.sys.state_dim)
            if problem.goal_weights is None
            else np.asarray(problem.goal_weights, dtype=float)
        )
        self.forward_passes = 0
        self.gradients = 0

    def _field(self, x, u):
        return self.p.sys.drift(x) + _matvec(self.p.sys.actuation(x), u)

    def _forward(self, U):
        self.forward_passes += 1
        p, F, dt = self.p, self._field, self.p.dt
        X = np.empty((self.n_steps + 1, p.sys.state_dim))
        X[0] = p.x0
        x = p.x0.astype(float)
        stages = []
        for k in range(self.n_steps):
            ua, ub = U[k], U[k + 1]
            um = 0.5 * (ua + ub)
            k1 = F(x, ua)
            x2 = x + 0.5 * dt * k1
            k2 = F(x2, um)
            x3 = x + 0.5 * dt * k2
            k3 = F(x3, um)
            x4 = x + dt * k3
            k4 = F(x4, ub)
            stages.append((x, x2, x3, x4, ua, um, ub))
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > 1e8:
                X[k + 1 :] = np.nan
                break
            X[k + 1] = x
        return X, stages

    def _stage_cost(self, x, u, w1):
        p = self.p
        vb, gb_x = box_barrier(x, p.state_box, MU_BOX)
        vo, go_x = obstacle_barrier(x, p.obstacles, MU_OBSTACLE)
        vu, gb_u = box_barrier(u, p.input_box, MU_BOX)
        if not (np.isfinite(vb) and np.isfinite(vo) and np.isfinite(vu)):
            return np.inf, None, None
        val = w1 * float(u @ u) + p.w2 * (vb + vo + vu)
        gx = p.w2 * (gb_x + go_x)
        gu = 2.0 * w1 * u + p.w2 * gb_u
        return val, gx, gu

    def _objective(self, U):
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

    def rollout(self, U):
        return self._forward(U)[0]

    def cost(self, U):
        return self._objective(U)[0]

    def cost_and_grad(self, U):
        self.gradients += 1
        dt, B, F = self.p.dt, self.p.sys.actuation, self._field
        total, stages, run_gx, gU = self._objective(U)
        if not np.isfinite(total):
            return total, gU
        n = self.p.sys.state_dim
        Z = np.array([s[:4] for s in stages]).reshape(-1, n)
        V = np.array([(ua, um, um, ub) for *_, ua, um, ub in stages]).reshape(len(Z), -1)
        jacs = jacobian_fd_rows(lambda z: F(z, V), Z).reshape(self.n_steps, 4, n, n)
        lam = run_gx[-1]
        for k in range(self.n_steps - 1, -1, -1):
            x1, x2, x3, x4 = stages[k][:4]
            J1, J2, J3, J4 = jacs[k]
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


def plan(problem, init=None, max_iter=120, tol_rel=1e-8):
    """The planner loop: (U, cost history, converged, violations, shooting),
    the last with its count of forward passes."""
    p = problem
    sh = Shooting(p)
    U = np.zeros((sh.n_steps + 1, p.sys.input_dim)) if init is None else np.array(init, dtype=float)
    cost = sh.cost(U)
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
            break
        U, prev, cost = trial, cost, c_new
        step = alpha * 2.0
        history.append(cost)
        stall = stall + 1 if (prev - cost) <= tol_rel * max(abs(prev), 1e-300) else 0
        if stall >= 3:
            converged = True
            break
    X = sh.rollout(U)
    violations = {
        "state_box_excess": float(np.max(np.maximum(
            np.max(p.state_box[:, 0] - X, axis=0), np.max(X - p.state_box[:, 1], axis=0)))),
        "input_box_excess": float(np.max(np.maximum(
            np.max(p.input_box[:, 0] - U, axis=0), np.max(U - p.input_box[:, 1], axis=0)))),
        "min_obstacle_clearance": (
            min(min(o.clearance(x) for x in X) for o in p.obstacles)
            if p.obstacles else float("inf")
        ),
        "goal_distance": float(np.linalg.norm(sh.gw * (X[-1] - p.goal))),
    }
    return U, tuple(history), converged, violations, X, sh


# -- metric stage ---------------------------------------------------------------------

RANK_REL_TOL = 1e-8
TOL_KILL = 1e-6
TOL_BOUNDS = 1e-8


def _sym(a):
    return 0.5 * (a + a.T)


def cokernel_basis(B):
    n = B.shape[0]
    u, s, _ = np.linalg.svd(B, full_matrices=True)
    rank = int(np.sum(s > RANK_REL_TOL * (s[0] if s.size else 1.0)))
    return u[:, rank:] if rank < n else np.empty((n, 0))


def nullspace_basis(A):
    m, n = A.shape
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > RANK_REL_TOL * (s[0] if s.size else 1.0)))
    return vt[rank:].T if rank < n else np.empty((n, 0))


def grid_condition_data(sys, grid):
    """Per grid point: stacked drift Jacobians and cokernel bases of B."""
    jacs, cokers = [], []
    for x in grid:
        jacs.append(jacobian_fd(sys.drift, x))
        P = cokernel_basis(sys.actuation(x))
        if P.shape[1] == 0:
            P = np.eye(sys.state_dim)
        cokers.append(P)
    if len({P.shape for P in cokers}) != 1:
        raise ValueError("actuation rank changes over the grid; refine the box")
    return np.stack(jacs), np.stack(cokers)


def worst_margin(W, lam, jacs, cokers):
    """max over grid of lambda_max(P^T (A W + W A^T + 2 lam W) P), with argmax,
    from a full ``eigh`` of the stack."""
    S = jacs @ W + W @ jacs.transpose(0, 2, 1) + 2.0 * lam * W
    C = cokers.transpose(0, 2, 1) @ S @ cokers
    C = 0.5 * (C + C.transpose(0, 2, 1))
    vals, vecs = np.linalg.eigh(C)
    g = int(np.argmax(vals[:, -1]))
    worst = float(vals[g, -1])
    return worst, (jacs[g], cokers[g] @ vecs[g, :, -1])


def contraction_condition_matrix(metric, sys, x):
    """df^T M + M df + d_f M + 2 lambda M at one state."""
    M = metric.evaluate(x)
    A = jacobian_fd(sys.drift, x)
    G = A.T @ M + M @ A + metric.directional_partial(x, sys.drift(x)) + 2.0 * metric.rate * M
    return _sym(G)


def verify_contraction(metric, sys, grid):
    """The three margins at each grid point, one point at a time, as
    ``({name: (P,) array}, fully_actuated, report)``; ``report`` is the
    ``VerificationReport.to_json_dict()`` of the per-point loop, which keeps a
    point only if its margin is below the worst so far."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    margins = {"bounds": [], "killing": [], "contraction": []}
    fully_actuated = False
    for x in grid:
        M = metric.evaluate(x)
        eig = np.linalg.eigvalsh(M)
        margins["bounds"].append(min(eig[0] - metric.lower_bound, metric.upper_bound - eig[-1]))

        B = sys.actuation(x)
        dB = jacobian_fd(sys.actuation, x)           # (n, m, n)
        k_val = 0.0
        for j in range(sys.input_dim):
            dbj = dB[:, j, :]
            C = dbj.T @ M + M @ dbj + metric.directional_partial(x, B[:, j])
            k_val = max(k_val, float(np.max(np.abs(np.linalg.eigvalsh(_sym(C))))))
        margins["killing"].append(TOL_KILL - k_val)

        G = contraction_condition_matrix(metric, sys, x)
        Q = nullspace_basis(B.T @ M)
        if Q.shape[1] == 0:
            fully_actuated = True
            Q = np.eye(sys.state_dim)
        margins["contraction"].append(-float(np.max(np.linalg.eigvalsh(_sym(Q.T @ G @ Q)))))

    conditions = []
    for name, tol in (("bounds", TOL_BOUNDS), ("killing", 0.0), ("contraction", 0.0)):
        worst, point = np.inf, grid[0]
        for margin, x in zip(margins[name], grid):
            if margin < worst:
                worst, point = margin, x
        conditions.append({"name": name, "worst_margin": float(worst),
                           "worst_point": list(point), "passed": bool(worst >= -tol)})
    report = {"passed": all(c["passed"] for c in conditions), "n_points": grid.shape[0],
              "fully_actuated": fully_actuated, "conditions": conditions}
    return {k: np.array(v, dtype=float) for k, v in margins.items()}, fully_actuated, report


# -- reference sampler ---------------------------------------------------------------------

def waypoint_pd_policy(target, input_box):
    """The hover PD law that flies one VTOL reference to its waypoint."""
    m, J, g, arm = VTOL_MASS, VTOL_INERTIA, VTOL_GRAVITY, VTOL_ARM

    def pd_policy(x, t):
        px, pz, phi, vx, vz, phidot = x
        vx_des = np.clip(0.8 * (target[0] - px), -0.6, 0.6)
        phi_des = np.clip(-0.5 * (vx_des - vx), -0.25, 0.25)
        thrust = m * (g + 1.2 * (target[1] - pz) - 1.6 * vz) / max(np.cos(phi), 0.5)
        torque = J * (9.0 * (phi_des - phi) - 4.0 * phidot)
        u1 = 0.5 * (thrust + torque / arm)
        u2 = 0.5 * (thrust - torque / arm)
        return np.clip(np.array([u1, u2]), input_box[:, 0], input_box[:, 1])

    return pd_policy


# -- dataset loader ------------------------------------------------------------------------

def load_dataset(directory, reference_dir=None):
    """The eager loader: every record CSV of the manifest, and each
    reference CSV from ``reference_dir``, parsed at load into in-memory
    entries, each with its input signal: a reference's own signal file, a
    perturbed entry's reference's one in ``reference_dir``."""
    directory = Path(directory)
    with open(directory / "manifest.json") as fh:
        manifest = json.load(fh)
    entries = []
    for item in manifest["entries"]:
        record = TrajectoryRecord.load_csv(directory / item["csv"])
        policy = reference = None
        if not item.get("reference_id"):
            policy = PiecewiseLinearInput.load_json(directory / f"{item['id']}.signal.json")
        elif reference_dir is not None:
            policy = PiecewiseLinearInput.load_json(
                Path(reference_dir) / f"{item['reference_id']}.signal.json")
            reference = TrajectoryRecord.load_csv(Path(reference_dir) / f"{item['reference_id']}.csv")
        entries.append(DatasetEntry(item["id"], record, policy, reference))
    return TrainingDataset(tuple(entries), manifest["split_tag"])

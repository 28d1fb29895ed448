"""The per-rollout closed loop, the per-step planner adjoint and the
one-flight waypoint PD law as they were before they were stepped in blocks,
frozen here as the oracles that the batched paths are checked against.

One state at a time: the plant functions index scalars (``x[0] ** 2`` is a
NumPy-scalar power), every product is a plain one-row ``@``, the constant
feedback is the scalar ``feedback_terms``, the policy keeps one
delayed-input ladder and each FD Jacobian is taken at one state.  Nothing
here imports the code under test except plain data (the constant matrices,
a metric's matrix and rate, a trained predictor's parameters) and, for the
adjoint, the forward half of a planner's ``_Shooting``, which is not
batched.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from prcitube.errors import DegenerateConstraint, NonFiniteState
from prcitube.metric import GEODESIC_SEGMENTS
from prcitube.predictor import _poly_features, _unpack_mlp
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
    TrajectoryRecord,
)

PINV_RCOND = 1e-10
DEGENERATE_TOL = 1e-10


# -- plants ---------------------------------------------------------------------

def _field3(theta1, theta2, theta3, B):
    def phi(x):
        q = theta3 * x[0] ** 2
        return np.array([theta2 * x[2] + q, theta2 * x[1] + q])

    def drift(x):
        base = np.array([x[2] - theta1 * x[0], x[0] ** 2 - x[1], np.tanh(x[1])])
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
        u_ref = self.reference.input_at(t)
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
    """``_Shooting.cost_and_grad`` with four one-state FD Jacobians of the
    plant's field per step; the forward half is ``shooting._objective``."""
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

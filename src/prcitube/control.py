"""Contracting tracking feedback, the uncertainty-compensated closed loop,
and the residual traces that calibration scores.

The nominal policy is u_c(x, t) = u_ref(t) + kappa(x, x_ref(t)) where kappa
solves the min-norm program

    min ||kappa||^2   s.t.   a^T kappa >= b

whose single inequality asks the geodesic energy between the tracked and
reference states to decay at the metric's rate.  With one constraint the
solution is the projection of the origin onto the halfspace, so no QP
solver is involved:  kappa = 0 when b <= 0, else (b/||a||^2) a.  Constant
metrics take the constraint data in closed form on the straight segment;
state-dependent metrics compute a discretized geodesic.

The compensated policy subtracts the predicted uncertainty through the
actuation pseudo-inverse, u = u_c - B(x)^+ zeta_hat(x, u_minus), where
u_minus is the input committed at the previous controller tick (zero before
the first).  The tick ladder is driven by the integrator's notify_step
hook, so u_minus at time t is exactly the input computed at grid time
floor(t/dt)*dt - dt.  notify_step returns the input it commits, and the
integrator uses that input as the step's first RK4 stage, so the policy
is evaluated once per grid point plus three times per step.  Every
compensated closed-loop rollout of the true plant is built in one place,
``track``.

``residual_norms`` is the residual trace of a stored rollout: the norm of
the uncertainty left after compensation at every grid point, whose
supremum is the conformal score.
"""

from __future__ import annotations

import logging
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateConstraint, NonFiniteState
from .metric import GEODESIC_SEGMENTS, ContractionMetric, riemannian_distance
from .systems import DynamicalSystem, TrajectoryRecord, integrate

Array = np.ndarray
log = logging.getLogger(__name__)

PINV_RCOND = 1e-10
DEGENERATE_TOL = 1e-10


class FeedbackTerms(NamedTuple):
    a: Array            # constraint coefficient: a^T kappa >= b
    b: float
    energy: float
    a_scale: float      # magnitude a would have absent cancellation


def feedback_terms(
    metric: ContractionMetric,
    sys_nominal: DynamicalSystem,
    x: Array,
    x_ref: Array,
    u_ref: Array,
) -> FeedbackTerms:
    """Constraint data (a, b) of the min-norm program.

    The constraint is a^T kappa >= b, with the geodesic oriented
    gamma(0) = x_ref, gamma(1) = x.  A constant metric's geodesic is the
    straight segment and is not built: the energy is d^T M d, d = x - x_ref,
    and the tangents are ``Geodesic.endpoint_tangents`` of its discretization
    at the four nodes they read.  They equal d in exact arithmetic only; VTOL
    closed loops amplify that last-bit gap to 3e-4 in a calibration quantile.
    """
    if metric.is_constant:
        d = x - x_ref
        K = GEODESIC_SEGMENTS
        w = np.array([[1.0], [2.0], [K - 2.0], [K - 1.0]]) / K
        c1, c2, c_2, c_1 = (1.0 - w) * x_ref + w * x
        g0 = K * (2.0 * (c1 - x_ref) - 0.5 * (c2 - x_ref))
        g1 = K * (2.0 * (x - c_1) - 0.5 * (x - c_2))
        M_x = M_r = metric.constant_matrix
        energy = float(d @ M_x @ d)
    else:
        _, geo = riemannian_distance(metric, x_ref, x)
        g0, g1 = geo.endpoint_tangents()
        M_x = metric.evaluate(x)
        M_r = metric.evaluate(x_ref)
        energy = geo.energy
    fx = sys_nominal.drift(x)
    Bx = sys_nominal.actuation(x)
    fr = sys_nominal.drift(x_ref)
    Br = sys_nominal.actuation(x_ref)
    Mg = M_x @ g1
    a = -(Bx.T @ Mg)
    t1 = g1 @ (M_x @ (fx + Bx @ u_ref))
    t2 = g0 @ (M_r @ (fr + Br @ u_ref))
    b = metric.rate * energy + t1 - t2
    # roundoff floor: at x == x_ref all terms vanish in exact arithmetic
    scale = metric.rate * energy + abs(t1) + abs(t2)
    if b <= 1e-12 * scale:
        b = min(b, 0.0)
    a_scale = float(np.linalg.norm(Bx) * np.linalg.norm(Mg))
    return FeedbackTerms(a, float(b), energy, a_scale)


def min_norm_feedback(
    metric: ContractionMetric,
    sys_nominal: DynamicalSystem,
    x: Array,
    x_ref: Array,
    u_ref: Array,
) -> Array:
    """Smallest feedback satisfying the geodesic energy-decay inequality.

    Raises DegenerateConstraint when the constraint is violated but its
    coefficient vanishes relative to its constituents (the tracking
    direction is uncontrollable at this state).
    """
    terms = feedback_terms(metric, sys_nominal, x, x_ref, u_ref)
    if terms.b <= 0.0:
        return np.zeros(sys_nominal.input_dim)
    na = float(np.linalg.norm(terms.a))
    if na <= DEGENERATE_TOL * max(terms.a_scale, DEGENERATE_TOL):
        raise DegenerateConstraint(
            f"constraint violated (b={terms.b:.3e}) with ||a||={na:.3e}"
        )
    return (terms.b / (na * na)) * terms.a


class ContractingPolicy:
    """Closed-loop tracking policy with optional uncertainty compensation.

    Carries the sampled-and-held delayed input, so an instance is confined
    to one rollout at a time; the state resets whenever the integrator
    notifies a step at t = 0.  The composed input is never clipped: input
    constraints belong to the planner, and excursions outside the input box
    are only recorded in ``saturation_events``.
    """

    def __init__(
        self,
        metric: ContractionMetric,
        sys_nominal: DynamicalSystem,
        reference: TrajectoryRecord,
        predictor=None,
    ):
        self.metric = metric
        self.sys_nominal = sys_nominal
        self.reference = reference
        self.predictor = predictor
        self.dt = reference.dt
        self.reset()

    def reset(self) -> None:
        m = self.sys_nominal.input_dim
        self._step_index = -1
        self._u_prev = np.zeros(m)
        self._u_curr = np.zeros(m)
        self.saturation_events: list[float] = []

    # -- delayed-input ladder ------------------------------------------------

    def delayed_input(self, t: float) -> Array:
        """u_minus at time t: the input committed at floor(t/dt)*dt - dt."""
        j = int(np.floor(t / self.dt + 1e-9))
        if j <= 0:
            return np.zeros(self.sys_nominal.input_dim)
        if j >= self._step_index + 1:
            return self._u_curr
        return self._u_prev

    def notify_step(self, x: Array, t: float) -> Array:
        """Commit the input of the grid step starting at (x, t) and return
        it; the integrator uses it as that step's first RK4 stage."""
        k = int(round(t / self.dt))
        if abs(t - k * self.dt) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"notify_step at off-grid time t={t!r}")
        if k == 0:
            self.reset()
        u_minus = self._u_curr if k > 0 else np.zeros(self.sys_nominal.input_dim)
        u = self._compute(x, t, u_minus)
        self._u_prev, self._u_curr = self._u_curr, u
        self._step_index = k
        return u

    def __call__(self, x: Array, t: float) -> Array:
        return self._compute(x, t, self.delayed_input(t))

    # -- composition -----------------------------------------------------------

    def _compute(self, x: Array, t: float, u_minus: Array) -> Array:
        x_ref = self.reference.state_at(t)
        u_ref = self.reference.input_at(t)
        kappa = min_norm_feedback(self.metric, self.sys_nominal, x, x_ref, u_ref)
        u = u_ref + kappa
        if self.predictor is not None:
            zeta_hat = self.predictor.predict(x, u_minus)
            B = self.sys_nominal.actuation(x)
            u = u - np.linalg.pinv(B, rcond=PINV_RCOND) @ zeta_hat
        box = self.sys_nominal.input_box
        if np.any(u < box[:, 0]) or np.any(u > box[:, 1]):
            self.saturation_events.append(float(t))
        return u


def track(
    sys_true: DynamicalSystem,
    metric: ContractionMetric,
    predictor,
    reference: TrajectoryRecord,
    x0: Array,
) -> Optional[TrajectoryRecord]:
    """One compensated closed-loop rollout of the true plant from x0,
    tracking ``reference`` on its own time grid.

    This is the event the tube's guarantee is about; calibration records,
    evaluation, the second calibration step and ``end_to_end_run`` all
    simulate it here.  Returns None (and logs the NonFiniteState) when the
    rollout diverges.
    """
    policy = ContractingPolicy(metric, sys_true.nominal, reference, predictor=predictor)
    try:
        return integrate(sys_true, x0, policy, reference.horizon, reference.dt)
    except NonFiniteState as err:
        log.warning("closed-loop rollout diverged: %s", err)
        return None


def residual_norms(
    sys_true: DynamicalSystem, predictor, trajectory: TrajectoryRecord
) -> Array:
    """||zeta(x_k, u_k) - B B^+ zeta_hat(x_k, u_minus_k)|| on the grid.

    u_minus follows the tick ladder of the stored inputs: zero at k = 0,
    inputs[k-1] after.  ``predictor`` may be None (no compensation).
    """
    n_pts = len(trajectory.times)
    out = np.empty(n_pts)
    m = trajectory.input_dim
    for k in range(n_pts):
        x = trajectory.states[k]
        u = trajectory.inputs[k]
        zeta = (
            sys_true.uncertainty(x, u)
            if sys_true.uncertainty is not None
            else np.zeros(sys_true.state_dim)
        )
        r = zeta
        if predictor is not None:
            u_minus = trajectory.inputs[k - 1] if k >= 1 else np.zeros(m)
            B = sys_true.actuation(x)
            r = zeta - B @ (np.linalg.pinv(B, rcond=PINV_RCOND) @ predictor.predict(x, u_minus))
        out[k] = np.linalg.norm(r)
    return out


"""Contracting tracking feedback, the uncertainty-compensated closed loop,
and the residual traces that calibration scores.

The nominal policy is u_c(x, t) = u_ref(t) + kappa(x, x_ref(t)) where kappa
solves the min-norm program

    min ||kappa||^2   s.t.   a^T kappa >= b

whose single inequality asks the geodesic energy between the tracked and
reference states to decay at the metric's rate.  With one constraint the
solution is the projection of the origin onto the halfspace, so no QP
solver is involved:  kappa = 0 when b <= 0, else (b/||a||^2) a.  The
geodesic's endpoint tangents and energy are ``metric.geodesic_ends``, which
alone decides how to find them (in closed form for a constant metric).

The compensated policy subtracts the predicted uncertainty through the
actuation pseudo-inverse, u = u_c - B(x)^+ zeta_hat(x, u_minus), where
u_minus is the input committed at the previous controller tick (zero before
the first).  The tick ladder is driven by the integrator's notify_step
hook, so u_minus at time t is exactly the input computed at grid time
floor(t/dt)*dt - dt.  notify_step returns the input it commits, and the
integrator uses that input as the step's first RK4 stage, so the policy
is evaluated once per grid point plus three times per step.  Each of
those evaluations reads the nominal drift f(x) at the tracked state, which
the plant field (and through it the 3D uncertainty) needs at the same state
too; the integrator computes it once and passes it to both (the policy takes
it as ``policy(x, t, fx)`` and hands it to ``min_norm_feedback``), so a
closed-loop stage makes one nominal drift evaluation (and, on the 3D
plant, one true one).  Every compensated closed-loop rollout of the true
plant is built in one place, ``track``, which steps all rollouts of one
call as an (N, n) block: each policy evaluation makes one
``min_norm_feedback``, one ``predict`` and one pseudo-inverse of the
actuation matrix for the whole block.  The reference side of the
constraint, v_r = M(x_ref) (f(x_ref) + B(x_ref) u_ref), does not depend
on the tracked state; the policy tabulates it with x_ref and u_ref at
the stage times of many steps at once (``reference_side``), so a policy
evaluation calls the plant only at the tracked states.

Feedback, policy and residuals take (..., n) rows, and every per-row
product is a stacked matrix product (``systems.matvec``, ``rowdot``,
``rownorm``), never a GEMM over the rows, so each row of a block rounds
exactly as the same row run alone (see ``systems``).

``residual_norms`` is the residual trace of a stored rollout: the norm of
the uncertainty it recorded, less the compensation through the nominal
actuation, at every grid point; its supremum is the conformal score.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateConstraint
from .metric import ContractionMetric, geodesic_ends
from .systems import (
    DynamicalSystem,
    TrajectoryRecord,
    integrate,
    matvec,
    rowdot,
    rownorm,
)

Array = np.ndarray

PINV_RCOND = 1e-10
DEGENERATE_TOL = 1e-10
STAGE_OFFSETS = np.array([0.0, 0.5, 1.0])      # RK4 stage times of a grid step, in steps
TABLE_STEPS = 50        # grid steps per table of the reference side


class FeedbackTerms(NamedTuple):
    """Per state; for an (N, n) block, a is (N, m) and the rest are (N,)."""

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
    v_ref: Optional[Array] = None,
    fx: Optional[Array] = None,
) -> FeedbackTerms:
    """Constraint data (a, b) of the min-norm program, for one state or for
    every row of an (N, n) block (then b, energy and a_scale are (N,)).

    The constraint is a^T kappa >= b, with the geodesic oriented
    gamma(0) = x_ref, gamma(1) = x.  ``v_ref`` is the reference side
    ``reference_velocity(metric, sys_nominal, x_ref, u_ref)`` and ``fx`` the
    nominal drift ``sys_nominal.drift(x)``, each computed here when not
    given.  The geodesic's tangents and energy are ``metric.geodesic_ends``.
    """
    g0, g1, energy = geodesic_ends(metric, x_ref, x)
    M_x = metric.evaluate(x)
    if v_ref is None:
        v_ref = reference_velocity(metric, sys_nominal, x_ref, u_ref)
    if fx is None:
        fx = sys_nominal.drift(x)
    Bx = sys_nominal.actuation(x)
    Mg = matvec(M_x, g1)
    a = -matvec(np.swapaxes(Bx, -1, -2), Mg)
    t1 = rowdot(g1, matvec(M_x, fx + matvec(Bx, u_ref)))
    t2 = rowdot(g0, v_ref)
    decay = metric.rate * energy
    b = decay + t1 - t2
    # roundoff floor: at x == x_ref all terms vanish in exact arithmetic
    scale = decay + np.abs(t1) + np.abs(t2)
    b = np.where((b <= 1e-12 * scale) & (b > 0.0), 0.0, b)
    a_scale = rownorm(np.reshape(Bx, Bx.shape[:-2] + (-1,))) * rownorm(Mg)
    # [()] turns the 0-d results of one state into scalars
    return FeedbackTerms(a, b[()], np.asarray(energy)[()], np.asarray(a_scale)[()])


def reference_velocity(
    metric: ContractionMetric, sys_nominal: DynamicalSystem, x_ref: Array, u_ref: Array
) -> Array:
    """v_r = M(x_ref) (f(x_ref) + B(x_ref) u_ref), the reference side of the
    feedback constraint (t2 = g0^T v_r), for one reference state or every
    row of a block of them; it does not depend on the tracked state."""
    Br = sys_nominal.actuation(x_ref)
    return matvec(metric.evaluate(x_ref), sys_nominal.drift(x_ref) + matvec(Br, u_ref))


def min_norm_feedback(
    metric: ContractionMetric,
    sys_nominal: DynamicalSystem,
    x: Array,
    x_ref: Array,
    u_ref: Array,
    v_ref: Optional[Array] = None,
    fx: Optional[Array] = None,
) -> Array:
    """Smallest feedback satisfying the geodesic energy-decay inequality,
    for one state or for every row of an (N, n) block; ``v_ref`` and ``fx``
    as in ``feedback_terms``.

    Raises DegenerateConstraint when, in some row, the constraint is violated
    but its coefficient vanishes relative to its constituents (the tracking
    direction is uncontrollable at that state).
    """
    terms = feedback_terms(metric, sys_nominal, x, x_ref, u_ref, v_ref, fx)
    active = terms.b > 0.0
    na = rownorm(terms.a)
    degenerate = active & (na <= DEGENERATE_TOL * np.maximum(terms.a_scale, DEGENERATE_TOL))
    if np.any(degenerate):
        i = np.flatnonzero(degenerate)[0]
        raise DegenerateConstraint(
            f"constraint violated (b={np.ravel(terms.b)[i]:.3e}) with ||a||={np.ravel(na)[i]:.3e}"
        )
    step = np.where(active, terms.b, 0.0) / np.where(active, na * na, 1.0)
    return np.where(active[..., None], step[..., None] * terms.a, 0.0)


class ContractingPolicy:
    """Closed-loop tracking policy with uncertainty compensation.

    ``references`` is a sequence of N records on one time grid, tracked row
    by row from an ``(N, n)`` block (one reference is a one-row block); the
    delayed input and ``saturation_events`` are kept per row.  Carries the
    sampled-and-held delayed input, so an instance is confined to one block
    at a time; the state resets whenever the integrator notifies a step at
    t = 0.  The composed input is never clipped: input constraints belong to
    the planner, and excursions outside the input box are only recorded in
    ``saturation_events``, one list of times per row.

    The reference side of an evaluation (x_ref, u_ref and v_r, see
    ``reference_side``) does not depend on the tracked state.  It is
    tabulated as one block at the stage times t_k, t_k + 0.5 dt and
    t_k + 1.0 dt of TABLE_STEPS grid steps at a time, the floats that
    ``integrate`` evaluates the policy at; an evaluation at any other time
    computes it for that one time.

    An evaluation ``policy(x, t, fx)`` takes the drift fx at x of the plant
    that ``integrate`` steps, and the feedback reads it as
    ``sys_nominal.drift(x)``: the policy must be integrated on a plant whose
    ``drift`` is its nominal plant's drift, as ``track`` does with
    ``sys_true`` and ``sys_true.nominal``.
    """

    def __init__(
        self,
        metric: ContractionMetric,
        sys_nominal: DynamicalSystem,
        references: Sequence[TrajectoryRecord],
        predictor,
    ):
        self.metric = metric
        self.sys_nominal = sys_nominal
        self.references = references
        self.predictor = predictor
        self._grid = references[0]
        # grid-major (T, N, .) tables: one interpolation samples every row
        self._ref_states = np.stack([r.states for r in references], axis=1)
        self._ref_inputs = np.stack([r.inputs for r in references], axis=1)
        self.dt = self._grid.dt
        self._table_steps = range(0)       # grid steps that self._table covers
        self._table = None
        self._slots: dict = {}             # stage time -> row of self._table
        self.reset()

    def reset(self) -> None:
        self._step_index = -1
        self._u_prev = self._zero_input()
        self._u_curr = self._zero_input()
        self.saturation_events = [[] for _ in self.references]

    def _zero_input(self) -> Array:
        return np.zeros((len(self.references), self.sys_nominal.input_dim))

    # -- delayed-input ladder ------------------------------------------------

    def delayed_input(self, t: float) -> Array:
        """u_minus at time t: the input committed at floor(t/dt)*dt - dt."""
        j = int(np.floor(t / self.dt + 1e-9))
        if j <= 0:
            return self._zero_input()
        if j >= self._step_index + 1:
            return self._u_curr
        return self._u_prev

    def notify_step(self, x: Array, t: float, fx: Array) -> Array:
        """Commit the input of the grid step starting at (x, t) and return
        it; the integrator uses it as that step's first RK4 stage."""
        k = int(round(t / self.dt))
        if abs(t - k * self.dt) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"notify_step at off-grid time t={t!r}")
        if k == 0:
            self.reset()
        grid = self._grid.times
        if k not in self._table_steps and k < len(grid) and grid[k] == t:
            # integrate's stage times t_k + c * dt on the next TABLE_STEPS steps
            self._table_steps = range(k, k + TABLE_STEPS)
            times = (grid[k : k + TABLE_STEPS, None] + STAGE_OFFSETS * self.dt).ravel()
            times = times[times <= grid[-1] + 1e-9]
            self._table = self.reference_side(times)
            self._slots = {s: j for j, s in enumerate(times.tolist())}
        u_minus = self._u_curr if k > 0 else self._zero_input()
        u = self._compute(x, t, u_minus, fx)
        self._u_prev, self._u_curr = self._u_curr, u
        self._step_index = k
        return u

    def __call__(self, x: Array, t: float, fx: Array) -> Array:
        return self._compute(x, t, self.delayed_input(t), fx)

    # -- composition -----------------------------------------------------------

    def reference_side(self, times: Array) -> tuple[Array, Array, Array]:
        """x_ref, u_ref and v_r = M_r (f(x_ref) + B(x_ref) u_ref) at each of
        ``times``, each with a leading axis over the times."""
        x_ref = self._grid.interpolate(self._ref_states, times)
        u_ref = self._grid.interpolate(self._ref_inputs, times)
        return x_ref, u_ref, reference_velocity(self.metric, self.sys_nominal, x_ref, u_ref)

    def _compute(self, x: Array, t: float, u_minus: Array, fx: Array) -> Array:
        j = self._slots.get(t)
        if j is None:
            j, table = 0, self.reference_side(np.array([t]))
        else:
            table = self._table
        x_ref, u_ref, v_ref = table[0][j], table[1][j], table[2][j]
        kappa = min_norm_feedback(self.metric, self.sys_nominal, x, x_ref, u_ref, v_ref, fx)
        zeta_hat = self.predictor.predict(x, u_minus)
        B = self.sys_nominal.actuation(x)
        u = u_ref + kappa - matvec(np.linalg.pinv(B, rcond=PINV_RCOND), zeta_hat)
        box = self.sys_nominal.input_box
        outside = np.any((u < box[:, 0]) | (u > box[:, 1]), axis=-1)
        for i in np.flatnonzero(outside):
            self.saturation_events[i].append(float(t))
        return u


def track(
    sys_true: DynamicalSystem,
    metric: ContractionMetric,
    predictor,
    references: Sequence[TrajectoryRecord],
    starts: Sequence[Array],
) -> list[Optional[TrajectoryRecord]]:
    """Compensated closed-loop rollouts of the true plant, one from each
    start, tracking the matching reference; all references share one time
    grid, and the rollouts are stepped together as one (N, n) block.

    This is the event the tube's guarantee is about.  The harness's
    per-run ``_Simulations`` tracks the calibration records with the test
    rollouts here as one block (the test rollouts alone when calibration
    data is reused), and the plan stage its second calibration step with
    its end-to-end rollouts as one block.
    Returns one record per reference, None (logged by ``integrate``) for a
    rollout that diverged.
    """
    if not references:
        return []
    grid = references[0]
    if any(not np.array_equal(r.times, grid.times) for r in references):
        raise ValueError("references of one track call must share a time grid")
    policy = ContractingPolicy(metric, sys_true.nominal, references, predictor)
    x0 = np.reshape(np.asarray(starts, dtype=float), (len(references), sys_true.state_dim))
    return integrate(sys_true, x0, policy, grid.horizon, grid.dt)


def residual_norms(
    sys_nominal: DynamicalSystem, predictor, trajectory: TrajectoryRecord
) -> Array:
    """||zeta_k - B B^+ zeta_hat(x_k, u_minus_k)|| on the grid, over all
    grid points as one block of rows: zeta_k is the uncertainty the rollout
    recorded and B the nominal actuation at x_k.

    u_minus follows the tick ladder of the stored inputs: zero at k = 0,
    inputs[k-1] after.  A record without uncertainties (a reference) raises
    ``ValueError``.
    """
    if trajectory.uncertainties is None:
        raise ValueError("residual_norms needs a record of its realized uncertainty")
    X, U = trajectory.states, trajectory.inputs
    U_minus = np.concatenate([np.zeros_like(U[:1]), U[:-1]])
    B = sys_nominal.actuation(X)
    zeta_hat = predictor.predict(X, U_minus)
    return rownorm(
        trajectory.uncertainties - matvec(B, matvec(np.linalg.pinv(B, rcond=PINV_RCOND), zeta_hat))
    )

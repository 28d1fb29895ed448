"""Perturbed control-affine plants and fixed-step simulation.

Systems have the form

    xdot = f(x) + B(x) u + zeta(x, u)

with drift f, actuation B (full column rank on the admissible box) and an
optional additive uncertainty zeta.  Two benchmarks are provided: a 3D
nonlinear system with parametric uncertainty and input-matrix mismatch, and
a planar VTOL aircraft with a thrust-channel disturbance.

Every plant callable takes ``(..., n)`` state rows (and ``(..., m)``
input rows), so one state is simply one row and ``integrate`` can step N
rollouts that share a time grid as one ``(N, n)`` block.  A block row must
round exactly as the same row stepped alone, so per-row products are
written as stacked matrix products (``matvec``, ``rowdot``, ``rownorm``):
NumPy evaluates each slice of a stacked ``matmul`` with the same
matrix-vector or dot kernel as the one-row product, while a GEMM over the
rows, ``einsum``, ``sum(-1)`` or ``norm(axis=-1)`` round differently.

Block callers: ``control.track`` steps the closed-loop rollouts and
``replay`` the open-loop ones.  The harness's per-run ``_Simulations``
owns the blocks that the dataset and evaluate stages ask for: one nominal
``replay`` of the reference dataset with the test references, after one
flight of every tag's waypoint PD references (VTOL), and one ``track`` of
the calibration records with the test rollouts (the test set alone when a
stage before it is reused).  The train_data stage replays the training
records as one block, the plan stage tracks its second calibration step
with its end-to-end rollouts as one block, and the planner's adjoint takes
all its stage Jacobians from one FD call on a block of stage states.

Simulation is classical fixed-step RK4, written once in ``rk4_step`` and
shared by ``integrate`` and the planner's shooting rollouts.  Feedback
policies are sampled at every RK4 stage; policies that carry
sampled-and-held internal state (the delayed input of the compensated
controller) are notified once per grid step through the optional
``notify_step`` hook, which returns the input committed at that grid
point and so also supplies the step's first stage.

Each state that ``integrate`` evaluates (a grid point or an RK4 stage
state) has its drift fx = f(x) computed once and passed on as an argument:
to the policy, ``policy(x, t, fx)``, whose feedback constraint reads it,
and into the nominal field f = fx + B(x) u, which the uncertainty is
handed as ``uncertainty(x, u, f)``: the 3D plant's subtracts it from the
true field.  Per evaluated state the 3D true plant makes one nominal and
one true drift evaluation, open or closed loop, and the VTOL one drift
evaluation.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonFiniteState

Array = np.ndarray
log = logging.getLogger(__name__)

# Divergence guard: magnitudes beyond this are treated as non-finite even
# before overflow produces an actual inf.
_BLOWUP_LIMIT = 1e12


def csv_rows(table: Array) -> str:
    """The rows of a 2-D table as CSV lines, each value ``%.17g``: the text
    ``np.savetxt(fh, table, fmt="%.17g", delimiter=",")`` writes, formatted
    in one pass instead of one ``%`` per row."""
    rows, cols = table.shape
    return ((",".join(["%.17g"] * cols) + "\n") * rows) % tuple(table.ravel().tolist())


def matvec(A: Array, v: Array) -> Array:
    """``A @ v`` for every row of v (and of A, when A is stacked too)."""
    if v.ndim == 1 and A.ndim == 2:
        return A @ v            # the same kernel, without the stacking cost
    return np.matmul(A, v[..., None])[..., 0]


def rowdot(a: Array, b: Array) -> Array:
    """``a @ b`` for every pair of rows."""
    if a.ndim == 1 and b.ndim == 1:
        return a @ b
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def rownorm(a: Array) -> Array:
    """Euclidean norm of every row, rounded as ``np.linalg.norm`` of the row."""
    return np.sqrt(rowdot(a, a))


def _components(x: Array):
    """Coordinates of x along its last axis: floats for one state, arrays of
    the leading shape for rows."""
    return x.tolist() if x.ndim == 1 else [x[..., i] for i in range(x.shape[-1])]


def _compose(parts) -> Array:
    """Inverse of ``_components``: coordinates back along a last axis
    (the first part sets the leading shape; later ones may be constants)."""
    if not isinstance(parts[0], np.ndarray):
        return np.array(parts)
    out = np.empty(np.shape(parts[0]) + (len(parts),))
    for i, part in enumerate(parts):
        out[..., i] = part
    return out


def _readonly(a) -> Array:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class DynamicalSystem:
    """Control-affine plant ``xdot = f(x) + B(x) u + zeta(x, u)``.

    The callables take ``(..., n)`` state rows and ``(..., m)`` input rows;
    ``actuation`` returns ``(..., n, m)`` or, for a constant input matrix,
    one ``(n, m)`` matrix that every row shares.  ``uncertainty(x, u, f)``
    is also handed the nominal field f = f(x) + B(x) u at (x, u), and is
    None for nominal plants.  ``state_box`` and ``input_box`` are (n, 2) /
    (m, 2) arrays of per-coordinate bounds.
    """

    state_dim: int
    input_dim: int
    drift: Callable[[Array], Array]
    actuation: Callable[[Array], Array]
    state_box: Array
    input_box: Array
    uncertainty: Optional[Callable[[Array, Array, Array], Array]] = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "state_box", _readonly(self.state_box))
        object.__setattr__(self, "input_box", _readonly(self.input_box))
        if self.state_box.shape != (self.state_dim, 2):
            raise ValueError("state_box must be (n, 2)")
        if self.input_box.shape != (self.input_dim, 2):
            raise ValueError("input_box must be (m, 2)")

    @property
    def nominal(self) -> "DynamicalSystem":
        """The same plant with the uncertainty removed."""
        if self.uncertainty is None:
            return self
        return replace(self, uncertainty=None, name=self.name + "-nominal")


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Time-indexed samples of state, input and realized uncertainty.

    All sequences share the length of ``times``; the grid is uniform.
    ``uncertainties`` is None for reference (nominal) records.
    ``left_state_box`` flags that some committed state left the admissible
    box during simulation (recorded, not an error).
    """

    times: Array
    states: Array
    inputs: Array
    uncertainties: Optional[Array] = None
    left_state_box: bool = False

    def __post_init__(self):
        object.__setattr__(self, "times", _readonly(self.times))
        object.__setattr__(self, "states", _readonly(self.states))
        object.__setattr__(self, "inputs", _readonly(self.inputs))
        if self.uncertainties is not None:
            object.__setattr__(self, "uncertainties", _readonly(self.uncertainties))
        k = len(self.times)
        if self.states.shape[0] != k or self.inputs.shape[0] != k:
            raise ValueError("states/inputs length must match times")
        if self.uncertainties is not None and self.uncertainties.shape[0] != k:
            raise ValueError("uncertainties length must match times")
        if k >= 2:
            steps = np.diff(self.times)
            if np.any(np.abs(steps - steps[0]) > 1e-12 * max(abs(steps[0]), 1e-300)):
                raise ValueError("time grid is not uniform")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def interpolate(self, table: Array, t) -> Array:
        """Row of a grid-major ``table`` (first axis on this record's grid)
        at time t, linear between grid points; for an array of times, one
        such row per time (the formula is elementwise, so each equals its
        one-time call bit for bit)."""
        tt = self.times
        t = np.asarray(t, dtype=float)
        outside = (t < tt[0] - 1e-9) | (t > tt[-1] + 1e-9)
        if np.any(outside):
            bad = float(t.flat[np.flatnonzero(outside)[0]])
            raise ValueError(f"t={bad:.6g} outside record horizon [0, {tt[-1]:.6g}]")
        if len(tt) == 1:
            return table[np.zeros(t.shape, dtype=int)]
        pos = (np.clip(t, tt[0], tt[-1]) - tt[0]) / self.dt
        i = np.minimum(pos.astype(int), len(tt) - 2)
        w = np.reshape(pos - i, t.shape + (1,) * (table.ndim - 1))
        return (1.0 - w) * table[i] + w * table[i + 1]

    def state_at(self, t) -> Array:
        """Reference state at time t (or at each of an array of times),
        linear interpolation between grid points."""
        return self.interpolate(self.states, t)

    # -- serialization -----------------------------------------------------

    def csv_header(self) -> str:
        n, m = self.state_dim, self.input_dim
        cols = ["t"]
        cols += [f"x_{i + 1}" for i in range(n)]
        cols += [f"u_{j + 1}" for j in range(m)]
        if self.uncertainties is not None:
            cols += [f"zeta_{i + 1}" for i in range(n)]
        return ",".join(cols)

    def to_csv(self) -> str:
        blocks = [self.times[:, None], self.states, self.inputs]
        if self.uncertainties is not None:
            blocks.append(self.uncertainties)
        return self.csv_header() + "\n" + csv_rows(np.hstack(blocks))

    def save_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    @staticmethod
    def from_csv(text: str) -> "TrajectoryRecord":
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        n = sum(1 for c in header if c.startswith("x_"))
        m = sum(1 for c in header if c.startswith("u_"))
        has_zeta = any(c.startswith("zeta_") for c in header)
        table = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
        times = table[:, 0]
        states = table[:, 1 : 1 + n]
        inputs = table[:, 1 + n : 1 + n + m]
        zeta = table[:, 1 + n + m : 1 + 2 * n + m] if has_zeta else None
        return TrajectoryRecord(times, states, inputs, zeta)

    @staticmethod
    def load_csv(path) -> "TrajectoryRecord":
        with open(path) as fh:
            return TrajectoryRecord.from_csv(fh.read())

    def envelope(self, benchmark: str = "") -> dict:
        """JSON envelope with the system metadata for this record."""
        return {
            "benchmark": benchmark,
            "state_dim": self.state_dim,
            "input_dim": self.input_dim,
            "dt_s": self.dt if len(self.times) > 1 else 0.0,
            "horizon_s": self.horizon,
            "samples": int(len(self.times)),
            "has_uncertainty": self.uncertainties is not None,
            "left_state_box": bool(self.left_state_box),
        }


@dataclass(frozen=True, eq=False)
class PiecewiseLinearInput:
    """Open-loop input signal, linear between knots, held beyond the last.

    Knot values are ``(n_knots, m)`` for one signal, or ``(n_knots, N, m)``
    for N signals on shared knot times (``stack``), which drive the N rows
    of a block: interpolation is elementwise, so each row gets exactly the
    input its own signal gives.
    """

    knot_times: Array
    knot_values: Array      # (n_knots, m) or (n_knots, N, m)

    def __post_init__(self):
        object.__setattr__(self, "knot_times", _readonly(self.knot_times))
        object.__setattr__(self, "knot_values", _readonly(np.atleast_2d(self.knot_values)))

    def __call__(self, x: Array, t: float, fx: Optional[Array] = None) -> Array:
        """The input at time t; the state x and its drift fx are not read."""
        tt = self.knot_times
        if t <= tt[0]:
            return self.knot_values[0]
        if t >= tt[-1]:
            return self.knot_values[-1]
        i = int(np.searchsorted(tt, t, side="right")) - 1
        w = (t - tt[i]) / (tt[i + 1] - tt[i])
        return (1.0 - w) * self.knot_values[i] + w * self.knot_values[i + 1]

    @staticmethod
    def stack(signals: Sequence["PiecewiseLinearInput"]) -> "PiecewiseLinearInput":
        """One input for the rows of a block, signal i driving row i."""
        times = signals[0].knot_times
        if any(not np.array_equal(s.knot_times, times) for s in signals):
            raise ValueError("signals of one block must share knot times")
        return PiecewiseLinearInput(times, np.stack([s.knot_values for s in signals], axis=1))

    def to_json_dict(self) -> dict:
        return {
            "knot_times": self.knot_times.tolist(),
            "knot_values": self.knot_values.tolist(),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "PiecewiseLinearInput":
        return PiecewiseLinearInput(np.array(d["knot_times"]), np.array(d["knot_values"]))

    def save_json(self, path) -> None:
        """Write ``to_json_dict`` as one line of JSON; floats are written in
        their shortest round-trip form, so ``load_json`` gives every knot
        back bit for bit."""
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)
            fh.write("\n")

    @staticmethod
    def load_json(path) -> "PiecewiseLinearInput":
        with open(path) as fh:
            return PiecewiseLinearInput.from_json_dict(json.load(fh))


def _in_box(x: Array, box: Array) -> bool:
    return bool(np.all(x >= box[:, 0]) and np.all(x <= box[:, 1]))


def rk4_step(
    slope: Callable[[Array, float], Array], x: Array, dt: float, k1: Array
) -> tuple[Array, tuple[Array, Array, Array, Array]]:
    """One classical RK4 step from x, given the first-stage slope k1.

    ``slope(z, c)`` is the vector field at stage state z and stage time
    t + c*dt, called with c = 0.5, 0.5, 1.  Returns the next state and the
    four stage states (x, x2, x3, x4).
    """
    x2 = x + 0.5 * dt * k1
    k2 = slope(x2, 0.5)
    x3 = x + 0.5 * dt * k2
    k3 = slope(x3, 0.5)
    x4 = x + dt * k3
    k4 = slope(x4, 1.0)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (x, x2, x3, x4)


def integrate(
    sys: DynamicalSystem,
    x0: Array,
    policy: Callable[[Array, float, Array], Array],
    T: float,
    dt: float,
) -> TrajectoryRecord | list[Optional[TrajectoryRecord]]:
    """Simulate the closed loop with classical fixed-step RK4.

    Each evaluated state x (a grid point or an RK4 stage state) has its
    drift fx = ``sys.drift(x)`` computed once, which the policy
    ``policy(x, t, fx)`` and the nominal field f = fx + B(x) u read; the
    uncertainty ``sys.uncertainty(x, u, f)`` reads f, and the plant field is
    f + zeta.  The policy is evaluated at every RK4 stage.  If the policy
    object has a ``notify_step(x, t, fx)`` method it is called once at the
    start of each grid step (and at the final grid point) instead of the
    first-stage call; it advances sampled-and-held controller state and
    returns the input it commits, which is stored and drives the first
    stage, as does the stored uncertainty of the true plant at that grid
    point.

    ``x0`` is one state ``(n,)`` or a block of N starts ``(N, n)`` on the
    same grid, which the plant and the policy then see as ``(N, n)`` rows.
    One state returns its TrajectoryRecord and raises NonFiniteState as soon
    as a committed state goes NaN/inf.  A block returns one record per row,
    None for a row that diverged: that row is logged and frozen at its last
    finite state, and the other rows go on as if it were not there.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < dt:
        raise ValueError("T must be at least dt")
    n_steps = int(round(T / dt))
    x0 = np.asarray(x0, dtype=float)
    rows = x0.shape[:-1]

    first_input = getattr(policy, "notify_step", policy)

    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1,) + x0.shape)
    inputs = np.empty((n_steps + 1,) + rows + (sys.input_dim,))
    zetas = np.empty_like(states) if sys.uncertainty is not None else None

    x = x0.copy()
    held = np.zeros_like(x0)                # where a frozen row stays
    frozen = np.zeros(rows, dtype=bool)
    any_frozen = False

    def evaluate(z, t_z, law):
        """Input of ``law``, uncertainty and field at z, all reading one drift."""
        fz = sys.drift(z)
        u = law(z, t_z, fz)
        dz = fz + matvec(sys.actuation(z), u)
        if sys.uncertainty is None:
            return u, None, dz
        zeta = sys.uncertainty(z, u, dz)
        return u, zeta, dz + zeta

    def slope(z, c):
        # a frozen row is only ever evaluated at its last finite state
        if any_frozen:
            z = np.where(frozen[..., None], held, z)
        return evaluate(z, t + c * dt, policy)[2]

    for k in range(n_steps + 1):
        t = times[k]
        bad = ~(np.abs(x).max(axis=-1) <= _BLOWUP_LIMIT)     # a NaN or inf row fails too
        if (bad & ~frozen).any():
            if not rows:
                raise NonFiniteState(t, x)
            for i in np.flatnonzero(bad & ~frozen):
                log.warning("rollout %d of %d diverged: %s", i, len(x), NonFiniteState(t, x[i]))
            frozen |= bad
            any_frozen = True
        if any_frozen:
            x = np.where(frozen[..., None], held, x)
        held = x
        u_k, zeta_k, k1 = evaluate(x, t, first_input)
        states[k] = x
        inputs[k] = u_k
        if zetas is not None:
            zetas[k] = zeta_k
        if k == n_steps:
            break
        x, _ = rk4_step(slope, x, dt, k1)

    # a row left the box when some stored state of it did
    lo, hi = sys.state_box[:, 0], sys.state_box[:, 1]
    left_box = (~((states >= lo) & (states <= hi)).all(axis=-1)).any(axis=0)
    if not rows:
        return TrajectoryRecord(times, states, inputs, zetas, left_state_box=bool(left_box))
    return [
        None if frozen[i] else TrajectoryRecord(
            times, states[:, i], inputs[:, i], None if zetas is None else zetas[:, i],
            left_state_box=bool(left_box[i]),
        )
        for i in range(len(x0))
    ]


def replay(
    sys: DynamicalSystem,
    starts: Sequence[Array],
    signals: Sequence[PiecewiseLinearInput],
    T: float,
    dt: float,
) -> list[Optional[TrajectoryRecord]]:
    """Open-loop rollouts, start i driven by input signal i, all stepped as
    one (N, n) block; one record per start, None for a row that diverged
    (logged by ``integrate``)."""
    if not signals:
        return []
    x0 = np.reshape(np.asarray(starts, dtype=float), (len(signals), sys.state_dim))
    return integrate(sys, x0, PiecewiseLinearInput.stack(signals), T, dt)


# ---------------------------------------------------------------------------
# 3D benchmark: parametric uncertainty plus input-matrix mismatch
# ---------------------------------------------------------------------------

_B3_NOMINAL = _readonly([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
_B3_TRUE = _readonly([[0.0, 0.0], [0.5, 0.0], [1.0, 0.5]])


def _field3(theta1, theta2, theta3, B):
    """The drift of xdot = [x3 - th1 x1, x1^2 - x2, tanh x2] + B (u - phi(x)),
    phi(x) = [th2 x3 + th3 x1^2, th2 x2 + th3 x1^2]."""

    def drift(x):
        x1, x2, x3 = _components(x)
        sq = x1 * x1
        q = theta3 * sq
        base = _compose([x3 - theta1 * x1, sq - x2, np.tanh(x2)])
        return base - matvec(B, _compose([theta2 * x3 + q, theta2 * x2 + q]))

    return drift


def make_benchmark_3d(
    theta=(0.4, 0.2, 0.1),
    delta=(0.0, 0.02, -0.01),
    true_actuation=None,
) -> tuple[DynamicalSystem, DynamicalSystem]:
    """The 3D benchmark pair (nominal, true).

    The true plant carries the perturbed parameters theta + delta and a
    mismatched input matrix (pass ``true_actuation=_B3_NOMINAL`` for the
    matched case); it is returned in the additive nominal form,
    zeta(x, u) = f_true(x, u) - f_nom(x, u), and the nominal plant is its
    ``.nominal`` twin.  zeta reads f_nom(x, u) from the nominal field it is
    handed, so it evaluates only the true drift itself.
    """
    th = np.asarray(theta, dtype=float)
    dth = th + np.asarray(delta, dtype=float)
    B_true = _B3_TRUE if true_actuation is None else np.asarray(true_actuation, dtype=float)

    drift_nom = _field3(*th, _B3_NOMINAL)
    drift_true = _field3(*dth, B_true)

    def zeta(x, u, f_nom):
        return drift_true(x) + matvec(B_true, u) - f_nom

    state_box = np.array([[-15.0, 15.0]] * 3)
    input_box = np.array([[-1.5, 1.5]] * 2)

    true = DynamicalSystem(
        3, 2, drift_nom, lambda x: _B3_NOMINAL, state_box, input_box,
        uncertainty=zeta, name="threeD",
    )
    return true.nominal, true


# ---------------------------------------------------------------------------
# Planar VTOL benchmark
# ---------------------------------------------------------------------------

VTOL_MASS = 0.486       # kg
VTOL_INERTIA = 0.00383  # kg m^2
VTOL_GRAVITY = 9.81     # m/s^2
VTOL_ARM = 0.25         # m
VTOL_KZ = 0.04
VTOL_KPHIDOT = 0.05

_B_VTOL = _readonly(
    [
        [0.0, 0.0],
        [0.0, 0.0],
        [0.0, 0.0],
        [0.0, 0.0],
        [1.0 / VTOL_MASS, 1.0 / VTOL_MASS],
        [VTOL_ARM / VTOL_INERTIA, -VTOL_ARM / VTOL_INERTIA],
    ]
)


def vtol_drift(x: Array) -> Array:
    """State x = [p_x, p_z, phi, v_x, v_z, phidot]; velocities body-fixed."""
    _, _, phi, vx, vz, phidot = _components(x)
    g = VTOL_GRAVITY
    return _compose(
        [
            vx * np.cos(phi) - vz * np.sin(phi),
            vx * np.sin(phi) + vz * np.cos(phi),
            phidot,
            vz * phidot - g * np.sin(phi),
            -vx * phidot - g * np.cos(phi),
            0.0,
        ]
    )


def vtol_thrust_disturbance(x: Array, u: Array) -> Array:
    """Disturbance entering through the two thrust channels,
    [-k_z ||v|| + k_phidot ||u||,  k_phidot ||u||]."""
    _, _, _, vx, vz, _ = _components(x)
    v = np.hypot(vx, vz)
    un = rownorm(u)
    return _compose([-VTOL_KZ * v + VTOL_KPHIDOT * un, VTOL_KPHIDOT * un])


def make_benchmark_vtol() -> DynamicalSystem:
    """Planar VTOL with the thrust-channel disturbance (the true plant).
    Use ``.nominal`` for the unperturbed twin."""

    def zeta(x, u, f):
        return matvec(_B_VTOL, vtol_thrust_disturbance(x, u))

    # Published benchmark bounds: phi, phidot within +-60 deg(/s),
    # v_x in [-2,2], v_z in [-1,1]; positions are free in the dynamics,
    # bounded here so planners have a box to tighten.
    rad60 = np.deg2rad(60.0)
    state_box = np.array(
        [
            [-10.0, 10.0],
            [-10.0, 10.0],
            [-rad60, rad60],
            [-2.0, 2.0],
            [-1.0, 1.0],
            [-rad60, rad60],
        ]
    )
    hover = VTOL_MASS * VTOL_GRAVITY / 2.0
    input_box = np.array([[0.0, 4.0 * hover], [0.0, 4.0 * hover]])
    return DynamicalSystem(
        6, 2, vtol_drift, lambda x: _B_VTOL, state_box, input_box,
        uncertainty=zeta, name="vtol",
    )

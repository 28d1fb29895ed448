"""Probabilistic tracking-error tubes, constraint tightening, projections.

The tube is a fixed Riemannian radius around a reference trajectory,

    radius = sqrt(m_upper) * quantile / rate,

containing perturbed closed-loop trajectories with probability at least
1 - alpha whenever they start inside it.  The transient envelope

    (d0 - c2) e^(-rate t) + c2,   c2 = radius

bounds the tracking error pathwise.  Where a closed-loop rollout starts
(``start_in_ball``) and whether it stayed in the tube, a diverged rollout
counting as not contained (``rollout_containment``), are decided here once.

Tightening shrinks admissible boxes by the tube's worst-case excursion:
exact per-axis ellipsoid extents for constant metrics, the conservative
Euclidean outer bound radius/sqrt(m_lower) otherwise.  Input tightening is
a sampled supremum of the feedback over tube cross-sections (inner
approximation, inflated 10%).  2D projections marginalize the remaining
coordinates with the Schur complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .conformal import CalibrationResult
from .control import min_norm_feedback
from .errors import SingularBlock
from .metric import ContractionMetric, riemannian_distance
from .systems import DynamicalSystem, TrajectoryRecord, csv_rows

Array = np.ndarray

ENVELOPE_SLACK = 0.05           # envelope tolerance, a share of the radius c2
INPUT_INFLATION = 0.10          # sampled feedback reach is inflated by this share
INPUT_MAX_SECTIONS = 20         # tube cross-sections sampled by input tightening
SCHUR_REL_TOL = 1e-12           # complementary block counts as singular below this


@dataclass(frozen=True)
class IEBEnvelope:
    """Exponential tracking-error envelope (d0 - c2) e^(-rate t) + c2."""

    d0: float
    rate: float
    asymptote: float    # c2

    @property
    def c1(self) -> float:
        return abs(self.d0 - self.asymptote)


def envelope_at(e: IEBEnvelope, t):
    """Envelope value at time t, a scalar or an array of times."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    return (e.d0 - e.asymptote) * np.exp(-e.rate * t) + e.asymptote


def tube_radius(metric: ContractionMetric, calibration: CalibrationResult) -> float:
    """sqrt(m_upper) * quantile / rate: the radius of every tube of this
    metric and calibration, whatever its reference."""
    return float(np.sqrt(metric.upper_bound) * calibration.quantile_value / metric.rate)


@dataclass(frozen=True, eq=False)
class PRCITube:
    """Fixed-radius Riemannian neighborhood of a reference trajectory."""

    reference: TrajectoryRecord
    metric: ContractionMetric
    radius: float
    alpha: float
    quantile_source: str = ""

    @staticmethod
    def from_calibration(
        reference: TrajectoryRecord,
        metric: ContractionMetric,
        calibration: CalibrationResult,
        source_id: str = "",
    ) -> "PRCITube":
        return PRCITube(
            reference, metric, tube_radius(metric, calibration), calibration.alpha, source_id
        )

    def envelope(self, d0: float) -> IEBEnvelope:
        return IEBEnvelope(float(d0), self.metric.rate, self.radius)

    def to_json_dict(self) -> dict:
        return {
            "radius": self.radius,
            "alpha": self.alpha,
            "quantile_source": self.quantile_source,
            "metric": self.metric.to_json_dict(),
            "horizon_s": self.reference.horizon,
        }


class Containment(NamedTuple):
    contained: bool
    margin: float
    distance: float


def tube_contains(tube: PRCITube, x: Array, t: float) -> Containment:
    """Membership of x in the cross-section at time t (reference linearly
    interpolated between grid points)."""
    x_ref = tube.reference.state_at(t)
    d, _ = riemannian_distance(tube.metric, np.asarray(x, dtype=float), x_ref)
    return Containment(bool(d <= tube.radius), float(tube.radius - d), float(d))


def trajectory_distances(tube: PRCITube, rollout: TrajectoryRecord) -> Array:
    """Riemannian tracking error at every rollout grid time."""
    ref = tube.reference
    same_grid = len(rollout.times) == len(ref.times) and np.allclose(
        rollout.times, ref.times, rtol=0, atol=1e-12
    )
    ref_states = ref.states if same_grid else ref.state_at(rollout.times)
    if tube.metric.is_constant:
        D = rollout.states - ref_states
        M = tube.metric.constant_matrix
        return np.sqrt(np.maximum(np.einsum("ki,ij,kj->k", D, M, D), 0.0))
    return np.array(
        [
            riemannian_distance(tube.metric, x, r)[0]
            for x, r in zip(rollout.states, ref_states)
        ]
    )


class RolloutContainment(NamedTuple):
    sup_distance: float
    start_distance: float       # tracking error at t = 0
    contained: bool             # sup_distance <= radius
    envelope_excess: float      # worst excess over the envelope + ENVELOPE_SLACK*c2;
                                # nonpositive means the envelope holds at every grid time
                                # (-inf for an infinite tube)


def rollout_containment(tube: PRCITube, rollout: Optional[TrajectoryRecord]) -> RolloutContainment:
    """Whether one closed-loop rollout stayed in the tube, and by how much.

    A rollout counts as contained only if its tracking error stays at or
    below the tube radius at every grid time.  ``None`` stands for a
    rollout that diverged: not contained, at distance inf.
    """
    if rollout is None:
        return RolloutContainment(np.inf, np.inf, False, np.inf)
    d = trajectory_distances(tube, rollout)
    sup = float(np.max(d))
    if np.isinf(tube.radius):   # the envelope would read inf - inf; nothing exceeds it
        excess = -np.inf
    else:
        env = envelope_at(tube.envelope(float(d[0])), rollout.times)
        excess = float(np.max(d - (env + ENVELOPE_SLACK * tube.radius)))
    return RolloutContainment(sup, float(d[0]), bool(sup <= tube.radius), excess)


def containment_experiment(
    tubes: Sequence[PRCITube], rollouts: Sequence[Optional[TrajectoryRecord]]
) -> dict:
    """Whole-trajectory containment fraction over paired (tube, rollout).

    Each pair is decided by ``rollout_containment``, so a diverged rollout
    (``None``) counts against the fraction.  Also reports the worst
    envelope excess over the contained rollouts (-inf when none is).
    """
    if len(tubes) != len(rollouts):
        raise ValueError("need one tube per rollout")
    per = [rollout_containment(t, r) for t, r in zip(tubes, rollouts)]
    contained = sum(c.contained for c in per)
    n = len(rollouts)
    return {
        "n_rollouts": n,
        "contained": int(contained),
        "fraction": contained / n if n else float("nan"),
        "alpha": tubes[0].alpha if n else None,
        "radius": tubes[0].radius if n else None,
        "sup_distances": [c.sup_distance for c in per],
        "envelope_worst_excess_contained": max(
            (c.envelope_excess for c in per if c.contained), default=float("-inf")
        ),
    }


# ---------------------------------------------------------------------------
# Constraint tightening
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TightenedBox:
    box: Array          # (n, 2); meaningless when empty
    margins: Array      # per-coordinate shrink applied to both sides
    empty: bool


def _shrink(box: Array, margins: Array) -> TightenedBox:
    lo = box[:, 0] + margins
    hi = box[:, 1] - margins
    return TightenedBox(np.stack([lo, hi], axis=1), margins, bool(np.any(lo > hi)))


def tighten_state_box(state_box: Array, radius: float, metric: ContractionMetric) -> TightenedBox:
    """Admissible-state box minus the tube's worst per-axis excursion.

    Constant metrics use the exact ellipsoid extents radius*sqrt((M^-1)_ii);
    state-dependent metrics fall back to the Euclidean outer bound
    radius/sqrt(m_lower) on every axis (sound, conservative).
    """
    state_box = np.asarray(state_box, dtype=float)
    n = state_box.shape[0]
    if radius == 0.0:
        return TightenedBox(state_box.copy(), np.zeros(n), False)
    if metric.is_constant:
        Minv = np.linalg.inv(metric.constant_matrix)
        margins = radius * np.sqrt(np.diag(Minv))
    else:
        margins = np.full(n, radius / np.sqrt(metric.lower_bound))
    return _shrink(state_box, margins)


def sample_metric_ball(
    metric: ContractionMetric, center: Array, radius: float, count: int, rng
) -> Array:
    """Uniform samples in {x : (x-c)^T M(c) (x-c) <= r^2}, center first."""
    n = center.size
    out = np.empty((count, n))
    out[0] = center
    if count == 1:
        return out
    M = metric.evaluate(center)
    vals, vecs = np.linalg.eigh(M)
    A = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T       # M^(-1/2)
    for i in range(1, count):
        z = rng.normal(size=n)
        z /= np.linalg.norm(z)
        r = rng.uniform() ** (1.0 / n)
        out[i] = center + radius * (A @ (r * z))
    return out


def start_in_ball(metric: ContractionMetric, center: Array, radius: float, rng) -> Array:
    """One start drawn uniformly in the metric ball of ``radius`` around
    ``center`` (the second point of ``sample_metric_ball``), or ``center``
    itself when the radius is not finite."""
    if not np.isfinite(radius):
        return center
    return sample_metric_ball(metric, center, radius, 2, rng)[1]


def tighten_input_box(
    input_box: Array,
    tube: PRCITube,
    metric: ContractionMetric,
    sys_nominal: DynamicalSystem,
    budget: int = 32,
    seed: int = 0,
) -> TightenedBox:
    """Input box minus a sampled estimate of the feedback's reach.

    Estimates sup over tube cross-sections of |kappa_j(xi, x_ref)| by
    Monte-Carlo (``budget`` points per section, drawn from a nested stream
    so the estimate is monotone in the budget) on INPUT_MAX_SECTIONS evenly
    strided cross-sections, inflated by INPUT_INFLATION.  A section's
    points are the rows of one ``min_norm_feedback`` block, its reference
    state and input broadcast to every row.
    A sampled inner approximation of the exact tightened set.
    """
    input_box = np.asarray(input_box, dtype=float)
    m = input_box.shape[0]
    if not np.isfinite(tube.radius):
        return TightenedBox(input_box.copy(), np.full(m, np.inf), True)
    ref = tube.reference
    stride = max(1, len(ref.times) // INPUT_MAX_SECTIONS)
    margins = np.zeros(m)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    for k in range(0, len(ref.times), stride):
        xi = sample_metric_ball(metric, ref.states[k], tube.radius, budget, rng)
        x_ref = np.broadcast_to(ref.states[k], xi.shape)
        u_ref = np.broadcast_to(ref.inputs[k], (budget, m))
        kappa = min_norm_feedback(metric, sys_nominal, xi, x_ref, u_ref)
        margins = np.maximum(margins, np.abs(kappa).max(axis=0))
    margins = margins * (1.0 + INPUT_INFLATION)
    return _shrink(input_box, margins)


# ---------------------------------------------------------------------------
# 2D projection via Schur complement
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TubeProjection:
    """Per-time cross-section ellipses {y : (y-c)^T P (y-c) <= radius^2}."""

    coords: tuple
    times: Array
    centers: Array      # (T, 2)
    shapes: Array       # (T, 2, 2)
    radius: float

    def to_csv(self) -> str:
        i, j = self.coords
        rows = np.column_stack(
            [
                self.times,
                self.centers,
                self.shapes[:, 0, 0],
                self.shapes[:, 0, 1],
                self.shapes[:, 1, 1],
                np.full(len(self.times), self.radius),
            ]
        )
        return f"t,center_{i + 1},center_{j + 1},a11,a12,a22,radius\n" + csv_rows(rows)

    def save_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    def max_extent(self) -> float:
        """Largest Euclidean reach of any cross-section ellipse."""
        worst = 0.0
        for P in self.shapes:
            worst = max(worst, self.radius / np.sqrt(np.linalg.eigvalsh(P)[0]))
        return float(worst)


def schur_projection(M: Array, coords: tuple) -> Array:
    """Schur complement of the complementary block, restricted to coords."""
    n = M.shape[0]
    i, j = coords
    keep = [i, j]
    rest = [k for k in range(n) if k not in keep]
    if not rest:
        return M[np.ix_(keep, keep)]
    Mcc = M[np.ix_(rest, rest)]
    eig = np.linalg.eigvalsh(Mcc)
    if eig[0] <= SCHUR_REL_TOL * max(float(np.max(np.abs(M))), 1e-300):
        raise SingularBlock("complementary metric block is singular")
    Mpp = M[np.ix_(keep, keep)]
    Mpc = M[np.ix_(keep, rest)]
    return Mpp - Mpc @ np.linalg.solve(Mcc, Mpc.T)


def project_tube_2d(tube: PRCITube, coords: tuple) -> TubeProjection:
    """Project the tube onto a coordinate plane, metric frozen at the
    reference point of each cross-section."""
    i, j = coords
    ref = tube.reference
    centers = ref.states[:, [i, j]]
    if tube.metric.is_constant:
        P = schur_projection(tube.metric.constant_matrix, coords)
        shapes = np.broadcast_to(P, (len(ref.times), 2, 2)).copy()
    else:
        shapes = np.array(
            [schur_projection(tube.metric.evaluate(x), coords) for x in ref.states]
        )
    return TubeProjection((i, j), ref.times.copy(), centers, shapes, tube.radius)

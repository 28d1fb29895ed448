"""Contraction metrics, Riemannian distances and grid certification.

A metric is a positive-definite matrix field M(x) with uniform eigenvalue
bounds m_lower I <= M(x) <= m_upper I and a contraction rate.  Distances are
computed on discretized curves: the energy of a K-segment polyline is

    E = sum_i K * (c_{i+1}-c_i)^T M(midpoint_i) (c_{i+1}-c_i)

and the minimizing geodesic is found by gradient descent over the interior
nodes, so for state-dependent metrics the result is a local minimizer from
the straight-segment start and the distance an upper bound.  For constant
metrics the straight segment is exact and used in closed form.

Certification is sample-based: the three contraction conditions (eigenvalue
bounds, the Killing-type condition on the actuation columns, and negativity
of the projected drift condition) are checked at grid points, with Jacobians
by central finite differences.  Synthesis searches constant metrics only,
via bisection on the rate and a subgradient descent on the Cholesky factor
of the inverse metric against the worst grid margin.  Each step finds that
margin exactly, bit for bit what a full ``eigh`` of the grid's stack gives:
one ``eigh`` of the point that the attempt's warm eigenvectors rank first,
then an LDL^T factorization of the whole stack that certifies which points
lie below it, and an ``eigh`` of the few that are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InfeasibleMetric
from .systems import DynamicalSystem

Array = np.ndarray

GEODESIC_SEGMENTS = 16          # default K
GEODESIC_TOL = 1e-9             # relative energy decrease at convergence
GEODESIC_MAX_ITER = 500


def _sym(a: Array) -> Array:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


@dataclass(frozen=True, eq=False)
class ContractionMetric:
    """Matrix field M(x) = sum_t C_t * prod_k x_k^(e_t[k]).

    ``parameterization`` is "constant" (single zero-exponent term) or
    "polynomial".  ``lower_bound``/``upper_bound`` are the uniform
    eigenvalue bounds, ``rate`` the certified contraction rate.
    """

    parameterization: str
    terms: tuple
    lower_bound: float
    upper_bound: float
    rate: float

    def __post_init__(self):
        if self.parameterization not in ("constant", "polynomial"):
            raise ValueError(f"unknown parameterization {self.parameterization!r}")
        if self.lower_bound <= 0 or self.upper_bound < self.lower_bound:
            raise ValueError("need 0 < lower_bound <= upper_bound")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        fixed = []
        for expo, mat in self.terms:
            mat = np.asarray(mat, dtype=float)
            if np.max(np.abs(mat - mat.T)) > 1e-10 * max(1.0, np.max(np.abs(mat))):
                raise ValueError("metric term matrix is not symmetric")
            m = _sym(mat)
            m.flags.writeable = False
            fixed.append((tuple(int(e) for e in expo), m))
        object.__setattr__(self, "terms", tuple(fixed))

    @classmethod
    def constant(cls, matrix, rate: float, lower=None, upper=None) -> "ContractionMetric":
        matrix = _sym(np.asarray(matrix, dtype=float))
        eig = np.linalg.eigvalsh(matrix)
        lo = float(eig[0]) if lower is None else float(lower)
        hi = float(eig[-1]) if upper is None else float(upper)
        n = matrix.shape[0]
        return cls("constant", ((tuple([0] * n), matrix),), lo, hi, float(rate))

    @classmethod
    def polynomial(cls, terms, rate: float, lower: float, upper: float) -> "ContractionMetric":
        return cls("polynomial", tuple(terms), float(lower), float(upper), float(rate))

    @property
    def dim(self) -> int:
        return self.terms[0][1].shape[0]

    @property
    def is_constant(self) -> bool:
        return self.parameterization == "constant"

    @property
    def constant_matrix(self) -> Array:
        if not self.is_constant:
            raise ValueError("metric is not constant")
        return self.terms[0][1]

    def evaluate(self, x: Array) -> Array:
        """M(x), symmetric by construction."""
        if self.is_constant:
            return self.terms[0][1]
        x = np.asarray(x, dtype=float)
        out = np.zeros((self.dim, self.dim))
        for expo, mat in self.terms:
            mono = 1.0
            for k, e in enumerate(expo):
                if e:
                    mono *= x[k] ** e
            out += mono * mat
        return out

    def partial(self, x: Array, k: int) -> Array:
        """dM/dx_k, exact for the polynomial parameterization."""
        if self.is_constant:
            return np.zeros((self.dim, self.dim))
        x = np.asarray(x, dtype=float)
        out = np.zeros((self.dim, self.dim))
        for expo, mat in self.terms:
            e = expo[k]
            if e == 0:
                continue
            mono = float(e)
            for j, ej in enumerate(expo):
                p = ej - 1 if j == k else ej
                if p:
                    mono *= x[j] ** p
            out += mono * mat
        return out

    def directional_partial(self, x: Array, p: Array) -> Array:
        """sum_k (dM/dx_k) p_k."""
        if self.is_constant:
            return np.zeros((self.dim, self.dim))
        out = np.zeros((self.dim, self.dim))
        for k in range(self.dim):
            if p[k] != 0.0:
                out += self.partial(x, k) * p[k]
        return out

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        d = {
            "parameterization": self.parameterization,
            "m_lower": self.lower_bound,
            "m_upper": self.upper_bound,
            "lambda": self.rate,
        }
        if self.is_constant:
            d["matrix"] = self.constant_matrix.tolist()
        else:
            d["terms"] = [
                {"exponents": list(expo), "matrix": mat.tolist()} for expo, mat in self.terms
            ]
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "ContractionMetric":
        if d["parameterization"] == "constant":
            return ContractionMetric.constant(
                np.array(d["matrix"]), d["lambda"], d["m_lower"], d["m_upper"]
            )
        terms = [(tuple(t["exponents"]), np.array(t["matrix"])) for t in d["terms"]]
        return ContractionMetric.polynomial(terms, d["lambda"], d["m_lower"], d["m_upper"])


@dataclass(frozen=True, eq=False)
class Geodesic:
    """Discretized curve gamma(mu) at mu_i = i/K, with its energy."""

    nodes: Array            # (K+1, n)
    energy: float
    converged: bool = True

    @property
    def segments(self) -> int:
        return self.nodes.shape[0] - 1

    def endpoint_tangents(self) -> tuple[Array, Array]:
        """(gamma_mu(0), gamma_mu(1)) by one-sided second-order differences,
        written in difference form so coincident nodes give exact zeros."""
        c = self.nodes
        K = self.segments
        if K == 1:
            d = c[1] - c[0]
            return K * d, K * d
        g0 = K * (2.0 * (c[1] - c[0]) - 0.5 * (c[2] - c[0]))
        g1 = K * (2.0 * (c[-1] - c[-2]) - 0.5 * (c[-1] - c[-3]))
        return g0, g1

    def length(self, metric: ContractionMetric) -> float:
        c = self.nodes
        K = self.segments
        total = 0.0
        for i in range(K):
            d = c[i + 1] - c[i]
            m = metric.evaluate(0.5 * (c[i] + c[i + 1]))
            total += np.sqrt(max(d @ m @ d, 0.0))
        return float(total)


def discrete_energy(metric: ContractionMetric, nodes: Array) -> float:
    K = nodes.shape[0] - 1
    diffs = nodes[1:] - nodes[:-1]
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    total = 0.0
    for i in range(K):
        total += diffs[i] @ metric.evaluate(mids[i]) @ diffs[i]
    return float(K * total)


def _energy_gradient(metric: ContractionMetric, nodes: Array) -> Array:
    """Gradient of the discrete energy w.r.t. interior nodes, (K-1, n)."""
    K = nodes.shape[0] - 1
    n = nodes.shape[1]
    diffs = nodes[1:] - nodes[:-1]
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    Ms = [metric.evaluate(m) for m in mids]
    grad = np.zeros((K - 1, n))
    for j in range(1, K):
        g = 2.0 * (Ms[j - 1] @ diffs[j - 1]) - 2.0 * (Ms[j] @ diffs[j])
        if not metric.is_constant:
            for k in range(n):
                dm_prev = metric.partial(mids[j - 1], k)
                dm_next = metric.partial(mids[j], k)
                g[k] += 0.5 * (diffs[j - 1] @ dm_prev @ diffs[j - 1])
                g[k] += 0.5 * (diffs[j] @ dm_next @ diffs[j])
        grad[j - 1] = K * g
    return grad


def riemannian_distance(
    metric: ContractionMetric, x: Array, y: Array, segments: int = GEODESIC_SEGMENTS
) -> tuple[float, Geodesic]:
    """Distance between x and y and the minimizing geodesic.

    Constant metrics use the exact straight-line closed form.  Otherwise
    the discrete energy is minimized by gradient descent with backtracking
    line search from the straight-segment initialization; if the relative
    energy decrease stays above GEODESIC_TOL at the iteration cap the best
    iterate is returned with ``converged=False``.
    """
    if segments < 1:
        raise ValueError("segments must be >= 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.linspace(0.0, 1.0, segments + 1)[:, None]
    nodes = (1.0 - w) * x[None, :] + w * y[None, :]

    if metric.is_constant:
        d = y - x
        energy = float(d @ metric.constant_matrix @ d)
        return np.sqrt(max(energy, 0.0)), Geodesic(nodes, energy, converged=True)

    if np.array_equal(x, y):
        return 0.0, Geodesic(nodes, 0.0, converged=True)

    # Precondition with the inverse path Laplacian: the discrete energy's
    # Hessian is 2K (T (x) M) for flat metrics, and plain gradient descent
    # stalls at condition number O(K^2).
    K = segments
    T_lap = 2.0 * np.eye(K - 1) - np.eye(K - 1, k=1) - np.eye(K - 1, k=-1) if K > 1 else None

    energy = discrete_energy(metric, nodes)
    step = 1.0 / metric.upper_bound
    converged = False
    for _ in range(GEODESIC_MAX_ITER):
        grad = _energy_gradient(metric, nodes)
        if K > 1:
            direction = np.linalg.solve(T_lap, grad) / (2.0 * K)
        else:
            direction = grad
        descent = float(np.sum(direction * grad))
        if descent <= 0.0:
            converged = True
            break
        alpha = step
        while alpha > 1e-18:
            trial = nodes.copy()
            trial[1:-1] -= alpha * direction
            e_new = discrete_energy(metric, trial)
            if e_new <= energy - 1e-4 * alpha * descent:
                break
            alpha *= 0.5
        else:
            converged = True   # no descent at machine scale
            break
        nodes, e_prev, energy = trial, energy, e_new
        step = min(alpha * 2.0, 4.0 / metric.lower_bound)
        if (e_prev - energy) <= GEODESIC_TOL * max(e_prev, 1e-300):
            converged = True
            break
    return np.sqrt(max(energy, 0.0)), Geodesic(nodes, energy, converged=converged)


# ---------------------------------------------------------------------------
# Finite-difference Jacobians (black-box drift/actuation)
# ---------------------------------------------------------------------------

FD_STEP = 1e-5
RANK_REL_TOL = 1e-8             # singular values below this share of the largest are zero


def jacobian_fd(func: Callable[[Array], Array], x: Array) -> Array:
    """Central-difference Jacobian at one state ``(n,)`` or at every row of
    an ``(..., n)`` block, each step scaled by its row's coordinate
    magnitude: ``func``'s output shape plus a last axis of n.

    ``func`` sees the whole block, 2n times whatever the number of rows,
    and must map rows to rows; with a row-exact ``func`` each row equals
    its one-state Jacobian bit for bit.  An actuation that returns one
    constant ``(n, m)`` matrix must be broadcast to ``(..., n, m)`` first.
    """
    x = np.asarray(x, dtype=float)
    h = FD_STEP * np.maximum(1.0, np.abs(x))
    up, down = x + h, x - h
    # coordinate k moved in every row, the others exactly as in x
    cols = [
        np.asarray(func(np.where(e, up, x))) - np.asarray(func(np.where(e, down, x)))
        for e in np.eye(x.shape[-1], dtype=bool)
    ]
    jac = np.stack(cols, axis=-1)
    return jac / np.reshape(2.0 * h, x.shape[:-1] + (1,) * (jac.ndim - x.ndim) + x.shape[-1:])


def cokernel_basis(B: Array) -> Array:
    """Orthonormal basis of coker(B) = null(B^T) as columns, possibly empty."""
    n = B.shape[0]
    u, s, _ = np.linalg.svd(B, full_matrices=True)
    rank = int(np.sum(s > RANK_REL_TOL * (s[0] if s.size else 1.0)))
    return u[:, rank:] if rank < n else np.empty((n, 0))


def nullspace_basis(A: Array) -> Array:
    """Orthonormal basis of null(A) (right null space) as columns."""
    m, n = A.shape
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > RANK_REL_TOL * (s[0] if s.size else 1.0)))
    return vt[rank:].T if rank < n else np.empty((n, 0))


# ---------------------------------------------------------------------------
# Grid verification of the contraction conditions
# ---------------------------------------------------------------------------

TOL_KILL = 1e-6
TOL_BOUNDS = 1e-8               # eigenvalue-bound violation tolerated as roundoff


@dataclass(frozen=True)
class ConditionReport:
    name: str
    worst_margin: float     # >= 0 means satisfied with that much room
    worst_point: tuple
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "worst_margin": self.worst_margin,
            "worst_point": list(self.worst_point),
            "passed": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    bounds: ConditionReport
    killing: ConditionReport
    contraction: ConditionReport
    n_points: int
    fully_actuated: bool

    @property
    def passed(self) -> bool:
        return self.bounds.passed and self.killing.passed and self.contraction.passed

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "n_points": self.n_points,
            "fully_actuated": self.fully_actuated,
            "conditions": [
                c.to_json_dict() for c in (self.bounds, self.killing, self.contraction)
            ],
        }


def box_grid(box: Array, points_per_dim) -> Array:
    """Uniform grid over a (n,2) box, (prod(points), n)."""
    box = np.asarray(box, dtype=float)
    n = box.shape[0]
    if np.isscalar(points_per_dim):
        points_per_dim = [int(points_per_dim)] * n
    axes = [np.linspace(box[k, 0], box[k, 1], points_per_dim[k]) for k in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _actuation_rows(sys: DynamicalSystem) -> Callable[[Array], Array]:
    """``sys.actuation`` as a map of rows to rows: a constant input matrix is
    broadcast to ``(..., n, m)``, as ``jacobian_fd`` needs."""
    shape = (sys.state_dim, sys.input_dim)
    return lambda x: np.broadcast_to(sys.actuation(x), np.shape(x)[:-1] + shape)


def _eigvalsh(C: Array) -> Array:
    """Ascending eigenvalues of each matrix of a ``(P, k, k)`` stack; a matrix
    with a non-finite entry gets NaNs instead of failing the whole stack."""
    finite = np.isfinite(C).all(axis=(-2, -1))
    vals = np.full(C.shape[:-1], np.nan)
    vals[finite] = np.linalg.eigvalsh(C[finite])
    return vals


def contraction_condition_matrix(
    metric: ContractionMetric, sys: DynamicalSystem, grid: Array
) -> Array:
    """df^T M + M df + d_f M + 2 lambda M at each grid row, ``(P, n, n)``
    (the time-varying term is zero)."""
    Ms = np.stack([metric.evaluate(x) for x in grid])
    A = jacobian_fd(sys.drift, grid)
    dM = np.stack([metric.directional_partial(x, f) for x, f in zip(grid, sys.drift(grid))])
    return _sym(np.swapaxes(A, 1, 2) @ Ms + Ms @ A + dM + 2.0 * metric.rate * Ms)


def _grid_margins(metric: ContractionMetric, sys: DynamicalSystem, grid: Array):
    """Room to spare in each condition at every grid row, ``{name: (P,)}``,
    and whether B^T M has a trivial null space at some row.

    The FD Jacobians are one call on the whole grid for the drift and one
    for the actuation.  M(x), its directional derivatives and the null-space
    projection (whose rank may change between rows) are taken row by row.
    """
    n = sys.state_dim
    Ms = np.stack([metric.evaluate(x) for x in grid])
    eig = _eigvalsh(Ms)
    bounds = np.minimum(eig[:, 0] - metric.lower_bound, metric.upper_bound - eig[:, -1])

    actuation = _actuation_rows(sys)
    B = actuation(grid)
    dB = jacobian_fd(actuation, grid)              # (P, n, m, n)
    k_val = np.zeros(grid.shape[0])
    for j in range(sys.input_dim):
        dbj = dB[:, :, j, :]
        dM = np.stack([metric.directional_partial(x, b) for x, b in zip(grid, B[:, :, j])])
        C = _sym(np.swapaxes(dbj, 1, 2) @ Ms + Ms @ dbj + dM)
        k_val = np.maximum(k_val, np.max(np.abs(_eigvalsh(C)), axis=-1))

    G = contraction_condition_matrix(metric, sys, grid)
    Qs = [nullspace_basis(b.T @ m) for b, m in zip(B, Ms)]
    fully_actuated = any(Q.shape[1] == 0 for Q in Qs)
    Qs = [Q if Q.shape[1] else np.eye(n) for Q in Qs]
    contraction = np.empty(grid.shape[0])
    for rank in {Q.shape[1] for Q in Qs}:
        rows = [i for i, Q in enumerate(Qs) if Q.shape[1] == rank]
        Q = np.stack([Qs[i] for i in rows])
        H = _sym(np.swapaxes(Q, 1, 2) @ G[rows] @ Q)
        contraction[rows] = -np.max(_eigvalsh(H), axis=-1)

    margins = {"bounds": bounds, "killing": TOL_KILL - k_val, "contraction": contraction}
    return margins, fully_actuated


def verify_contraction(
    metric: ContractionMetric, sys: DynamicalSystem, grid: Array
) -> VerificationReport:
    """Check the three contraction conditions at each grid point.

    Violations are report content, not errors.  Margins are "room to
    spare": eigenvalue-bound margin, (TOL_KILL - killing norm), and the
    negated top eigenvalue of the projected drift condition.  For fully
    actuated systems ker(B^T M) is trivial and the drift condition is
    evaluated unprojected (conservative).  Each condition reports its first
    smallest margin, or its first non-finite one, which fails it.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    margins, fully_actuated = _grid_margins(metric, sys, grid)

    def report(name, tol):
        m = margins[name]
        bad = ~np.isfinite(m)
        i = int(np.argmax(bad)) if bad.any() else int(np.argmin(m))
        passed = not bad.any() and m[i] >= -tol
        return ConditionReport(name, float(m[i]), tuple(grid[i]), bool(passed))

    return VerificationReport(
        bounds=report("bounds", TOL_BOUNDS),
        killing=report("killing", 0.0),
        contraction=report("contraction", 0.0),
        n_points=grid.shape[0],
        fully_actuated=fully_actuated,
    )


# ---------------------------------------------------------------------------
# Constant-metric synthesis: bisection on the rate, subgradient on W
# ---------------------------------------------------------------------------

BISECTION_STEPS = 12            # rate halvings after the two end points
SEARCH_ITERS = 400              # subgradient steps per attempted rate


def _grid_condition_data(sys: DynamicalSystem, grid: Array):
    """Stacked drift Jacobians (one FD call on the grid) and cokernel bases
    of B at the grid rows."""
    cokers = [cokernel_basis(B) for B in _actuation_rows(sys)(grid)]
    # fully actuated: unprojected condition
    cokers = [P if P.shape[1] else np.eye(sys.state_dim) for P in cokers]
    if len({P.shape for P in cokers}) != 1:
        raise ValueError("actuation rank changes over the grid; refine the box")
    return jacobian_fd(sys.drift, grid), np.stack(cokers)


def _certified_below(C: Array, theta: float) -> Array:
    """Points of a ``(P, k, k)`` stack whose unpivoted LDL^T of theta I - C_i
    completes with every pivot > 0, vectorised over the grid.

    The stack is laid out ``(k, k, P)`` so that each entry is one contiguous
    row.  A NaN pivot compares false, so a non-finite C_i is never below."""
    k = C.shape[-1]
    H = np.negative(C.transpose(1, 2, 0), order="C")
    d = H.reshape(k * k, -1)[:: k + 1]          # the pivots, a view
    d += theta
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(k - 1):
            r = H[j, j + 1:]
            H[j + 1:, j + 1:] -= r[:, None] * (r / d[j])
    return d.min(axis=0) > 0


def _worst_margin(W: Array, lam: float, jacs: Array, cokers: Array, warm: Array,
                  cold: bool = False):
    """max over grid of lambda_max(P^T (A W + W A^T + 2 lam W) P), with argmax.

    Bit for bit what ``np.argmax`` over a full ``eigh`` of the stack picks,
    from one ``eigh`` of a likely top point and one factorization of the
    stack.  ``warm``, a ``(P, k)`` array, holds each point's last known top
    eigenvector and is updated in place; a ``cold`` call (an attempt's
    first) fills it from a full ``eigh``.

    The leader is the point with the largest Rayleigh quotient of its warm
    vector; the top t of its ``eigh`` sets theta = t - tol with
    ``tol = 1e-9 * max|C|``.  A point is dropped only if the LDL^T of
    theta I - C_i completes with positive pivots.  The computed factors are
    then exact for a perturbation of theta I - C_i of norm O(k^2 eps ||C||)
    (Higham 2002, Accuracy and Stability of Numerical Algorithms, 10.1), so
    lambda_max(C_i) < theta + O(k^2 eps ||C||), some 10^5 below ``tol``;
    ``eigh`` is backward stable, so its value for a dropped point stays
    below t, which is at most the largest ``eigh`` value of the stack.
    Every point holding that value survives, ties included; the survivors
    get an ``eigh`` in grid order and the first with the largest value
    wins.  Stale warm vectors cost time, never bits.  A non-finite C makes
    ``tol`` non-finite, so no point is dropped and the whole stack goes to
    ``eigh``.  With k = 1 the entry is the eigenvalue (LAPACK returns a 1x1
    matrix's entry and the vector 1), and ``warm`` is not used.
    """
    S = jacs @ W + W @ jacs.transpose(0, 2, 1) + 2.0 * lam * W
    C = _sym(cokers.transpose(0, 2, 1) @ S @ cokers)
    if C.shape[-1] == 1:
        top = C[:, 0, 0]
        g = int(top.argmax())
        return float(top[g]), (jacs[g], cokers[g] @ np.ones(1))
    if cold:
        near = np.arange(C.shape[0])
        vals, vecs = np.linalg.eigh(C)
    else:
        lead = int(np.matmul(warm[:, None, :], np.matmul(C, warm[:, :, None])).argmax())
        vals, vecs = np.linalg.eigh(C[lead:lead + 1])
        theta = vals[0, -1] - 1e-9 * np.abs(C).max()
        near = np.flatnonzero(~_certified_below(C, theta))
        if near.size != 1 or near[0] != lead:
            vals, vecs = np.linalg.eigh(C[near])
    warm[near] = vecs[:, :, -1]
    i = int(vals[:, -1].argmax())
    g = near[i]
    return float(vals[i, -1]), (jacs[g], cokers[g] @ vecs[i, :, -1])


def _normalize_w(W: Array, chi_max: float) -> Array:
    vals, vecs = np.linalg.eigh(_sym(W))
    vals = np.maximum(vals, max(vals[-1] / chi_max, 1e-12))  # np.clip's own body
    W = (vecs * vals) @ vecs.T
    return _sym(W / np.linalg.eigvalsh(W)[0])               # ascending: [0] is the min


def _search_constant_w(jacs, cokers, lam, n, W0, chi_max, target):
    """Subgradient descent on the Cholesky factor of W against the worst margin.

    Starts from W0 (the identity when None) and returns (W, margin) for the
    best iterate found; W is normalized so its smallest eigenvalue is 1.
    When the best iterate is below ``target`` (feasible), it is pulled toward
    the identity as far as the margin stays below the target: anisotropy
    (chi) costs tube volume downstream, so among feasible metrics flatter is
    better.  The attempt owns one warm array of top eigenvectors, which its
    first ``_worst_margin`` call fills and every later one, the shrink's
    included, reads and refreshes.
    """
    W = np.eye(n) if W0 is None else _normalize_w(W0, chi_max)
    L = np.linalg.cholesky(W)
    warm = np.empty((cokers.shape[0], cokers.shape[2]))
    best_margin, _ = _worst_margin(W, lam, jacs, cokers, warm, cold=True)
    best_w = W
    tri = np.tri(n, dtype=bool)
    step = 0.5
    for _ in range(SEARCH_ITERS):
        margin, (A, w) = _worst_margin(L @ L.T, lam, jacs, cokers, warm)
        if margin < best_margin:
            best_margin, best_w = margin, _normalize_w(L @ L.T, chi_max)
        # d margin / d W = A^T w w^T + w w^T A + 2 lam w w^T; chain to L.
        # np.outer, np.tril and np.linalg.norm, written as their own bodies
        Gw = (A.T @ w)[:, None] * w[None, :]
        Gw = Gw + Gw.T + 2.0 * lam * (w[:, None] * w[None, :])
        gL = 2.0 * np.where(tri, Gw @ L, 0.0)
        g = gL.ravel()
        gn = np.sqrt(g.dot(g))
        if gn < 1e-14:
            break
        L = L - (step / gn) * gL
        W = _normalize_w(L @ L.T, chi_max)
        L = np.linalg.cholesky(W)
        step *= 0.995
    if best_margin < target:
        best_w, best_margin = _shrink_toward_identity(
            best_w, best_margin, lam, jacs, cokers, warm, chi_max, target
        )
    return best_w, best_margin


def _shrink_toward_identity(W, margin, lam, jacs, cokers, warm, chi_max, target):
    """Blend a feasible W toward the identity while the margin holds."""
    for _ in range(60):
        improved = False
        for beta in (0.5, 0.2, 0.05):
            cand = _normalize_w((1.0 - beta) * W + beta * np.eye(W.shape[0]), chi_max)
            m, _ = _worst_margin(cand, lam, jacs, cokers, warm)
            if m < target:
                W, margin, improved = cand, m, True
                break
        if not improved:
            break
    return W, margin


def synthesize_constant_metric(
    sys: DynamicalSystem,
    grid: Array,
    lambda_range: tuple[float, float],
    chi_max: float = 1e4,
    margin_target: float = 0.0,
) -> ContractionMetric:
    """Largest-rate feasible constant metric on the sampled grid.

    For constant W the Killing condition is exact whenever B is constant;
    the drift condition is certified at the grid points with margin below
    ``margin_target`` (callers wanting refinement headroom pass a negative
    target).  Under the smallest-eigenvalue normalization of W the tube
    objective (score/lambda)^2 * m_upper is minimized by the largest
    feasible rate, so the bisection returns that rate.

    Raises InfeasibleMetric if no rate in ``lambda_range`` admits a
    feasible metric.
    """
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if lo <= 0 or hi < lo:
        raise ValueError("lambda_range must be positive with lo <= hi")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    n = sys.state_dim
    jacs, cokers = _grid_condition_data(sys, grid)
    target = margin_target if margin_target < 0 else -1e-9

    def attempt(lam, W0):
        W, margin = _search_constant_w(jacs, cokers, lam, n, W0, chi_max, target)
        return (W, margin) if margin < target else (None, margin)

    W_hi, _ = attempt(hi, None)
    if W_hi is not None:
        best_lam, best_w = hi, W_hi
    else:
        W_lo, _ = attempt(lo, None)
        if W_lo is None:
            raise InfeasibleMetric(
                f"no feasible constant metric for lambda in [{lo:.4g}, {hi:.4g}]"
            )
        best_lam, best_w = lo, W_lo
        a, b = lo, hi
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (a + b)
            W_mid, _ = attempt(mid, best_w)
            if W_mid is not None:
                best_lam, best_w, a = mid, W_mid, mid
            else:
                b = mid
    M = np.linalg.inv(best_w)
    M = _sym(M)
    eig = np.linalg.eigvalsh(M)
    slack = 1.0 + 1e-12
    return ContractionMetric.constant(
        M, best_lam, lower=eig[0] / slack, upper=eig[-1] * slack
    )

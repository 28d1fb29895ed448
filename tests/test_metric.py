import heapq
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prcitube import metric as metric_mod
from prcitube.errors import InfeasibleMetric
from prcitube.harness import read_json, write_json
import scalar_oracle as oracle
from prcitube.metric import (
    ContractionMetric,
    box_grid,
    discrete_energy,
    jacobian_fd,
    riemannian_distance,
    synthesize_constant_metric,
    verify_contraction,
)
from prcitube.systems import VTOL_CERTIFIED_BOX, DynamicalSystem


def scalar_system():
    return DynamicalSystem(
        1,
        1,
        drift=lambda x: -x,
        actuation=lambda x: np.eye(1),
        state_box=np.array([[-2.0, 2.0]]),
        input_box=np.array([[-1.0, 1.0]]),
    )


# ---------------------------------------------------------------------------
# Finite-difference Jacobians
# ---------------------------------------------------------------------------

def test_jacobian_fd_calls_func_2n_times_for_a_state_or_a_block():
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return np.sin(x) * x[..., :1]

    x = np.array([0.3, -1.2, 2.5, 0.0])
    J = jacobian_fd(f, x)
    assert calls == [(4,)] * 8
    assert J.shape == (4, 4)
    calls.clear()
    block = jacobian_fd(f, np.stack([x, 2.0 * x, -x]))
    assert calls == [(3, 4)] * 8
    assert block[0].tobytes() == J.tobytes()


def test_one_state_jacobians_are_the_old_ones_bit_for_bit(bench3d, vtol):
    """A one-state Jacobian of the drift or of the actuation, as the per-point
    metric-stage oracles take them, must not move."""
    rng = np.random.default_rng(6)
    for sys in (bench3d[0], vtol.nominal):
        for x in rng.uniform(sys.state_box[:, 0], sys.state_box[:, 1], (50, sys.state_dim)):
            for func in (sys.drift, sys.actuation):
                assert jacobian_fd(func, x).tobytes() == oracle.jacobian_fd(func, x).tobytes()


# ---------------------------------------------------------------------------
# The metric field on rows
# ---------------------------------------------------------------------------

# |row call - frozen scalar call| <= ROW_GAP_ULPS * eps * max|scalar call|;
# the largest measured on 50,000 states was 5.0 (directional partial, cubic
# metric), from powers taken as products of factors
ROW_GAP_ULPS = 8.0


def cubic_metric_3d():
    A = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])
    terms = [((0, 0, 0), 2.0 * np.eye(3)), ((1, 1, 0), 0.3 * A),
             ((3, 0, 0), np.diag([0.2, 0.1, 0.0])), ((0, 2, 1), 0.05 * A),
             ((1, 0, 2), 0.02 * np.eye(3))]
    return ContractionMetric.polynomial(terms, rate=0.5, lower=0.5, upper=10.0)


@pytest.mark.parametrize("which", ["poly_metric_2d", "cubic_metric_3d"])
def test_metric_rows_are_one_state_calls_and_the_scalar_oracle(which, poly_metric_2d):
    """Each row of a row call is its one-state call bit for bit, and the
    frozen one-state loops of ``scalar_oracle`` within ROW_GAP_ULPS."""
    metric = poly_metric_2d if which == "poly_metric_2d" else cubic_metric_3d()
    n = metric.dim
    rng = np.random.default_rng(31)
    X = rng.uniform(-2.25, 2.25, (3, 40, n))
    Pdir = rng.normal(size=X.shape)
    Pdir[:, ::2, 0] = 0.0                       # a zero component adds nothing
    eps = np.finfo(float).eps

    def check(rows, one, frozen, idx):
        assert rows[idx].tobytes() == one.tobytes()
        gap = ROW_GAP_ULPS * eps * np.max(np.abs(frozen))
        np.testing.assert_allclose(one, frozen, rtol=0, atol=gap)

    evaluated = metric.evaluate(X)
    partials = [metric.partial(X, k) for k in range(n)]
    directional = metric.directional_partial(X, Pdir)
    for idx in np.ndindex(X.shape[:-1]):
        x, p = X[idx], Pdir[idx]
        check(evaluated, metric.evaluate(x), oracle.metric_evaluate(metric, x), idx)
        for k in range(n):
            check(partials[k], metric.partial(x, k), oracle.metric_partial(metric, x, k), idx)
        check(directional, metric.directional_partial(x, p),
              oracle.metric_directional_partial(metric, x, p), idx)


def test_constant_metric_answers_rows_with_its_one_matrix(metric3d):
    X = np.random.default_rng(2).normal(size=(7, 3))
    assert metric3d.evaluate(X) is metric3d.constant_matrix
    assert metric3d.evaluate(X[0]) is metric3d.constant_matrix
    np.testing.assert_array_equal(metric3d.partial(X, 1), np.zeros((7, 3, 3)))
    np.testing.assert_array_equal(metric3d.directional_partial(X, X), np.zeros((3, 3)))


def test_only_metric_tells_the_kinds_of_metric_apart():
    """No module but ``metric`` branches on a metric's kind."""
    names = ("is_constant", "constant_matrix", "parameterization")
    package = Path(metric_mod.__file__).parent
    found = [
        f"{path.name}: {name}"
        for path in sorted(package.glob("*.py")) if path.name != "metric.py"
        for name in names if name in path.read_text()
    ]
    assert not found


# ---------------------------------------------------------------------------
# Distances: constant metrics
# ---------------------------------------------------------------------------

def test_identity_metric_is_euclidean():
    m = ContractionMetric.constant(np.eye(3), rate=1.0)
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([1.0, -1.0, 0.5])
    d, geo = riemannian_distance(m, x, y)
    assert d == pytest.approx(np.linalg.norm(x - y), abs=1e-12)
    # straight line: interior nodes are convex combinations of the endpoints
    for i, node in enumerate(geo.nodes):
        w = i / geo.segments
        np.testing.assert_allclose(node, (1 - w) * x + w * y, atol=1e-12)


def test_scaled_axis_distance():
    m = ContractionMetric.constant(np.diag([4.0, 1.0]), rate=1.0)
    d, _ = riemannian_distance(m, np.zeros(2), np.array([1.0, 0.0]))
    assert d == pytest.approx(2.0, abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_constant_metric_closed_form(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, 3))
    M = A @ A.T + 0.5 * np.eye(3)
    metric = ContractionMetric.constant(M, rate=1.0)
    x, y = rng.normal(size=3), rng.normal(size=3)
    d, geo = riemannian_distance(metric, x, y)
    closed = np.sqrt((x - y) @ M @ (x - y))
    assert d == pytest.approx(closed, abs=1e-10 * max(1.0, closed))
    assert geo.energy == pytest.approx(d * d, rel=1e-12)


# ---------------------------------------------------------------------------
# Distances: state-dependent metric vs lattice shortest path
# ---------------------------------------------------------------------------

def _lattice_dijkstra(metric, start, box, spacing, goal=None):
    """Dijkstra over a dense lattice with gcd-reduced moves up to radius 3.

    An independent upper-bound oracle for the Riemannian distance; each
    edge is scored by 4-piece midpoint quadrature of the metric length.
    Stops early when ``goal`` (a node) is supplied, else fills the field.
    """
    moves = sorted(
        {
            (dx, dy)
            for dx in range(-3, 4)
            for dy in range(-3, 4)
            if (dx, dy) != (0, 0) and math.gcd(abs(dx), abs(dy)) == 1
        }
    )
    nx = int(round((box[0][1] - box[0][0]) / spacing)) + 1
    ny = int(round((box[1][1] - box[1][0]) / spacing)) + 1

    def pos(i, j):
        return np.array([box[0][0] + i * spacing, box[1][0] + j * spacing])

    def edge_len(p, q):
        total = 0.0
        for k in range(4):
            a = p + (q - p) * (k / 4.0)
            b = p + (q - p) * ((k + 1) / 4.0)
            mid = 0.5 * (a + b)
            d = b - a
            total += np.sqrt(d @ metric.evaluate(mid) @ d)
        return total

    def nearest(p):
        return (
            int(round((p[0] - box[0][0]) / spacing)),
            int(round((p[1] - box[1][0]) / spacing)),
        )

    s = nearest(start)
    dist = {s: 0.0}
    heap = [(0.0, s)]
    visited = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        if goal is not None and node == goal:
            return dist, nearest
        visited.add(node)
        i, j = node
        p = pos(i, j)
        for dx, dy in moves:
            ii, jj = i + dx, j + dy
            if not (0 <= ii < nx and 0 <= jj < ny) or (ii, jj) in visited:
                continue
            nd = d + edge_len(p, pos(ii, jj))
            if nd < dist.get((ii, jj), np.inf):
                dist[(ii, jj)] = nd
                heapq.heappush(heap, (nd, (ii, jj)))
    if goal is not None:
        raise RuntimeError("goal unreachable")
    return dist, nearest


def lattice_distance_field(metric, start, box, spacing):
    return _lattice_dijkstra(metric, start, box, spacing)


def lattice_shortest_path(metric, start, goal, box, spacing):
    dist, nearest = _lattice_dijkstra(metric, start, box, spacing, goal=None)
    return dist[nearest(goal)]


def test_state_dependent_metric_vs_lattice(poly_metric_2d):
    start = np.array([0.0, 0.0])
    goal = np.array([1.2, 0.6])
    d_opt, geo = riemannian_distance(poly_metric_2d, start, goal, segments=24)
    assert geo.converged
    d_lattice = lattice_shortest_path(
        poly_metric_2d, start, goal, [(-0.3, 1.5), (-0.4, 1.0)], spacing=0.02
    )
    assert d_opt == pytest.approx(d_lattice, rel=0.01)


def test_geodesic_symmetry(poly_metric_2d):
    x = np.array([-0.4, 0.3])
    y = np.array([0.9, -0.2])
    d1, _ = riemannian_distance(poly_metric_2d, x, y)
    d2, _ = riemannian_distance(poly_metric_2d, y, x)
    assert d1 == pytest.approx(d2, rel=1e-6)


def test_triangle_inequality(poly_metric_2d):
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b, c = rng.uniform(-1, 1, (3, 2))
        dab, _ = riemannian_distance(poly_metric_2d, a, b)
        dbc, _ = riemannian_distance(poly_metric_2d, b, c)
        dac, _ = riemannian_distance(poly_metric_2d, a, c)
        assert dac <= (dab + dbc) * 1.02


def test_energy_identities(poly_metric_2d):
    x = np.array([0.2, -0.5])
    y = np.array([1.1, 0.4])
    d, geo = riemannian_distance(poly_metric_2d, x, y)
    assert d * d == pytest.approx(geo.energy, rel=1e-8)
    L = geo.length(poly_metric_2d)
    assert L * L <= geo.energy * (1 + 1e-12)          # Cauchy-Schwarz
    assert geo.energy == pytest.approx(L * L, rel=1e-5)  # equalized at optimum
    # endpoints never move
    np.testing.assert_array_equal(geo.nodes[0], x)
    np.testing.assert_array_equal(geo.nodes[-1], y)


def test_energy_no_worse_than_straight_line(poly_metric_2d):
    x = np.array([-0.8, 0.1])
    y = np.array([1.3, 0.7])
    _, geo = riemannian_distance(poly_metric_2d, x, y)
    w = np.linspace(0, 1, geo.segments + 1)[:, None]
    straight = (1 - w) * x + w * y
    assert geo.energy <= discrete_energy(poly_metric_2d, straight) + 1e-12


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def test_verify_scalar_passes_with_expected_margin():
    metric = ContractionMetric.constant(np.eye(1), rate=0.5)
    report = verify_contraction(metric, scalar_system(), np.linspace(-1, 1, 7)[:, None])
    assert report.passed
    # df M + M df + 2 lam M = -2 + 2*0.5 = -1, so margin 1 = 2 - 2 lam
    assert report.contraction.worst_margin == pytest.approx(1.0, abs=1e-6)
    assert report.killing.worst_margin == pytest.approx(1e-6, abs=1e-12)
    assert report.fully_actuated


def test_verify_scalar_fails_above_true_rate():
    metric = ContractionMetric.constant(np.eye(1), rate=1.5)
    report = verify_contraction(metric, scalar_system(), np.linspace(-1, 1, 7)[:, None])
    assert not report.passed
    assert not report.contraction.passed
    assert report.contraction.worst_margin == pytest.approx(-1.0, abs=1e-6)


def test_a_nan_condition_fails_verification():
    """A point whose drift is NaN has a NaN margin: it fails the contraction
    condition and is reported as its worst point, ahead of finite margins."""
    sys = DynamicalSystem(
        1,
        1,
        drift=lambda x: np.where(x > 0.9, np.nan, -x),
        actuation=lambda x: np.eye(1),
        state_box=np.array([[-2.0, 2.0]]),
        input_box=np.array([[-1.0, 1.0]]),
    )
    metric = ContractionMetric.constant(np.eye(1), rate=0.5)
    report = verify_contraction(metric, sys, [[1.0]])
    assert not report.passed
    assert not report.contraction.passed
    assert math.isnan(report.contraction.worst_margin)
    assert report.contraction.worst_point == (1.0,)
    assert report.bounds.passed and report.killing.passed
    report = verify_contraction(metric, sys, [[0.0], [1.0], [0.5]])
    assert not report.contraction.passed
    assert report.contraction.worst_point == (1.0,)


def independent_condition_margin(metric, sys, x):
    """Re-derivation of the projected drift condition with its own FD code."""
    n = sys.state_dim
    M = metric.evaluate(x)
    h = 1e-6
    A = np.empty((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h * max(1.0, abs(x[k]))
        A[:, k] = (sys.drift(x + e) - sys.drift(x - e)) / (2 * e[k])
    G = A.T @ M + M @ A + 2.0 * metric.rate * M
    MB = M @ sys.actuation(x)
    # null space of (MB)^T via QR of MB
    q, r = np.linalg.qr(sys.actuation(x).T @ M.T @ np.eye(n).T @ np.eye(n))
    u, s, vt = np.linalg.svd(MB.T)
    null = vt[np.sum(s > 1e-8 * s.max()) :].T
    if null.shape[1] == 0:
        null = np.eye(n)
    return -float(np.max(np.linalg.eigvalsh(null.T @ G @ null)))


def test_verify_3d_matches_independent_eigen_oracle(bench3d, metric3d):
    nom, _ = bench3d
    rng = np.random.default_rng(7)
    pts = rng.uniform(-10, 10, (20, 3))
    for x in pts:
        rep = verify_contraction(metric3d, nom, x[None, :])
        oracle = independent_condition_margin(metric3d, nom, x)
        assert rep.contraction.worst_margin == pytest.approx(oracle, rel=1e-4, abs=1e-8)
        assert rep.contraction.passed == (oracle >= 0)


def test_killing_condition_exact_zero_for_constant_B(bench3d, metric3d):
    nom, _ = bench3d
    rep = verify_contraction(metric3d, nom, np.zeros((1, 3)))
    assert rep.killing.worst_margin == pytest.approx(1e-6, abs=1e-15)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def linear_system(A, B):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return DynamicalSystem(
        A.shape[0],
        B.shape[1],
        drift=lambda x: x @ A.T,
        actuation=lambda x: B,
        state_box=np.array([[-1.0, 1.0]] * A.shape[0]),
        input_box=np.array([[-1.0, 1.0]] * B.shape[1]),
    )


def test_synthesis_isotropic_linear_returns_largest_rate():
    sys = linear_system(-np.eye(2), np.array([[1.0], [0.0]]))
    grid = box_grid(sys.state_box, 3)
    metric = synthesize_constant_metric(sys, grid, (0.5, 0.9))
    assert metric.rate == pytest.approx(0.9)
    assert verify_contraction(metric, sys, grid).passed


def test_synthesis_infeasible_range():
    sys = linear_system(-np.eye(2), np.array([[1.0], [0.0]]))
    grid = box_grid(sys.state_box, 3)
    with pytest.raises(InfeasibleMetric):
        synthesize_constant_metric(sys, grid, (1.5, 2.0))


def test_synthesis_3d_passes_on_finer_grid(bench3d, metric3d):
    nom, _ = bench3d
    fine = box_grid(nom.state_box, 9)
    report = verify_contraction(metric3d, nom, fine)
    assert report.passed
    assert 0.3 <= metric3d.rate <= 1.0
    # normalization: largest eigenvalue of M pinned to one
    assert metric3d.upper_bound == pytest.approx(1.0, rel=1e-9)


def test_metric_json_roundtrip(tmp_path, metric3d, poly_metric_2d):
    for m in (metric3d, poly_metric_2d):
        path = tmp_path / "m.json"
        write_json(path, m.to_json_dict())
        back = ContractionMetric.from_json_dict(read_json(path))
        assert back.parameterization == m.parameterization
        assert back.rate == m.rate
        x = np.array([0.3, -0.2] if m.dim == 2 else [0.3, -0.2, 0.5])
        np.testing.assert_allclose(back.evaluate(x), m.evaluate(x), atol=1e-15)


def test_verification_report_json(tmp_path, bench3d, metric3d):
    nom, _ = bench3d
    rep = verify_contraction(metric3d, nom, box_grid(nom.state_box, 3))
    path = tmp_path / "verify.json"
    write_json(path, rep.to_json_dict())
    data = read_json(path)
    assert data["passed"] is True
    assert len(data["conditions"]) == 3
    names = [c["name"] for c in data["conditions"]]
    assert names == ["bounds", "killing", "contraction"]


# ---------------------------------------------------------------------------
# The metric stage against its per-point oracle (tests/scalar_oracle.py)
# ---------------------------------------------------------------------------

def workload_grids(bench3d, vtol, points):
    """(plant, grid) of the desk3d and vtol6d metric stages: ``points`` per
    axis on the 3D state box and on the near-hover VTOL box."""
    nom = bench3d[0]
    return {
        "desk3d": (nom, box_grid(nom.state_box, points)),
        "vtol6d": (vtol.nominal, box_grid(VTOL_CERTIFIED_BOX, [1, 1] + [points] * 4)),
    }


def outcome(func, *args):
    """func(*args) as bytes, or the type of what it raised."""
    try:
        worst, (A, w) = func(*args)
    except np.linalg.LinAlgError as err:
        return type(err)
    return np.float64(worst).tobytes() + A.tobytes() + w.tobytes()


def test_grid_condition_data_is_the_per_point_oracle_bit_for_bit(bench3d, vtol):
    for sys, grid in workload_grids(bench3d, vtol, 3).values():
        jacs, cokers = metric_mod._grid_condition_data(sys, grid)
        want_j, want_c = oracle.grid_condition_data(sys, grid)
        assert jacs.tobytes() == want_j.tobytes()
        assert cokers.tobytes() == want_c.tobytes()


@pytest.mark.parametrize("workload, points, lam, chi_max", [
    ("vtol6d", 3, 0.6, 300.0),
    ("desk3d", 5, 1.0, 100.0),
])
def test_every_worst_margin_call_of_an_attempt_is_the_oracle(
    bench3d, vtol, monkeypatch, workload, points, lam, chi_max
):
    """One full 400-step attempt at the top of the workload's rate range:
    each screened call, with the attempt's own warm array, returns what the
    full ``eigh`` of the oracle returns; only the first call is cold."""
    sys, grid = workload_grids(bench3d, vtol, points)[workload]
    jacs, cokers = oracle.grid_condition_data(sys, grid)
    screened = metric_mod._worst_margin
    calls, colds, warms = [], [], set()

    def both(W, lam_, jacs_, cokers_, warm, cold=False):
        got = screened(W, lam_, jacs_, cokers_, warm, cold)
        calls.append(outcome(lambda: got) == outcome(oracle.worst_margin, W, lam_, jacs_, cokers_))
        colds.append(cold)
        warms.add(id(warm))
        return got

    monkeypatch.setattr(metric_mod, "_worst_margin", both)
    metric_mod._search_constant_w(jacs, cokers, lam, sys.state_dim, None, chi_max, -1e-9)
    assert len(calls) > metric_mod.SEARCH_ITERS
    assert all(calls)
    assert colds == [True] + [False] * (len(colds) - 1)
    assert len(warms) == 1


def test_worst_margin_on_ties_and_nans_is_the_oracle():
    rng = np.random.default_rng(10)
    for trial in range(40):
        P, n, r = 30, 4, int(rng.integers(1, 4))
        jacs = rng.normal(size=(P, n, n))
        cokers = np.linalg.qr(rng.normal(size=(P, n, r)))[0]
        W = np.eye(n) + 0.1 * np.diag(rng.uniform(size=n))
        lam = float(rng.uniform(0.1, 1.0))
        warm = np.empty((P, r))     # top vectors of the stack before the ties
        metric_mod._worst_margin(W, lam, jacs, cokers, warm, cold=True)
        _, (A, _) = oracle.worst_margin(W, lam, jacs, cokers)
        g = int(np.flatnonzero((jacs == A).all(axis=(1, 2)))[0])
        # exact ties at the worst point, some of them before it; a flipped
        # cokernel basis gives the same condition but a flipped direction w,
        # so the returned bits show which of the tied points won
        for k, i in enumerate(rng.choice(P, 4, replace=False)):
            jacs[i], cokers[i] = jacs[g], (-1.0) ** k * cokers[g]
        # near ties: one ulp off the worst point's drift Jacobian
        for i in rng.choice(P, 3, replace=False):
            jacs[i] = np.nextafter(jacs[g], np.inf if trial % 2 else -np.inf)
            cokers[i] = cokers[g]
        assert outcome(metric_mod._worst_margin, W, lam, jacs, cokers, warm) == outcome(
            oracle.worst_margin, W, lam, jacs, cokers)
        jacs[int(rng.integers(P)), 0, 0] = np.nan
        assert outcome(metric_mod._worst_margin, W, lam, jacs, cokers, warm) == outcome(
            oracle.worst_margin, W, lam, jacs, cokers)
    # one-dimensional conditions: a NaN is a value, not a LAPACK failure
    jacs = rng.normal(size=(6, 2, 2))
    jacs[3, 1, 1] = np.nan
    cokers = np.tile(np.array([[[0.0], [1.0]]]), (6, 1, 1))
    warm = np.empty((6, 1))
    got = outcome(metric_mod._worst_margin, np.eye(2), 0.5, jacs, cokers, warm)
    assert got == outcome(oracle.worst_margin, np.eye(2), 0.5, jacs, cokers)
    assert math.isnan(metric_mod._worst_margin(np.eye(2), 0.5, jacs, cokers, warm)[0])


def test_worst_margin_with_adversarial_warm_vectors_is_the_oracle(monkeypatch):
    """Warm vectors choose only which point is factored first, so none of
    them can change the bits: stale vectors from another W, a leader aimed
    at a low point, exact ties before and after the leader, one-ulp near
    ties and NaN stacks all give what the full ``eigh`` gives."""
    def eigvalsh(*_):
        raise AssertionError("_worst_margin called eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    rng = np.random.default_rng(20)
    P, n = 24, 5
    for trial in range(48):
        k = trial % 4 + 1
        jacs = rng.normal(size=(P, n, n))
        cokers = np.linalg.qr(rng.normal(size=(P, n, k)))[0]
        W = np.eye(n) + 0.1 * np.diag(rng.uniform(size=n))
        lam = float(rng.uniform(0.1, 1.0))

        def check(warm):
            want = outcome(oracle.worst_margin, W, lam, jacs, cokers)
            assert outcome(metric_mod._worst_margin, W, lam, jacs, cokers, warm) == want

        def stack():
            S = jacs @ W + W @ jacs.transpose(0, 2, 1) + 2.0 * lam * W
            C = cokers.transpose(0, 2, 1) @ S @ cokers
            return 0.5 * (C + C.transpose(0, 2, 1))

        def leader(warm):
            return int(np.argmax(np.einsum("pi,pij,pj->p", warm, stack(), warm)))

        # stale: the top vectors of a far-off W
        stale = np.empty((P, k))
        metric_mod._worst_margin(np.diag(rng.uniform(1.0, 50.0, size=n)), lam, jacs, cokers,
                                 stale, cold=True)
        check(stale.copy())
        # the leader aimed at the lowest point with a positive top: its top
        # vector scaled up, the worst point given its bottom vector
        vals, vecs = np.linalg.eigh(stack())
        g = int(np.argmax(vals[:, -1]))
        j = int(np.argmin(np.where(vals[:, -1] > 0, vals[:, -1], np.inf)))
        aimed = vecs[:, :, -1].copy()
        aimed[g] = vecs[g, :, 0]
        aimed[j] *= 1e3
        assert k == 1 or leader(aimed) == j != g
        check(aimed.copy())
        # exact ties with the worst point before and after the leader (a
        # flipped cokernel basis gives the same condition but a flipped w, so
        # the returned bits show which copy won), the leader aimed at a copy
        # in the middle, and one-ulp near ties around it
        copies = np.sort(rng.choice(np.delete(np.arange(P), g), 5, replace=False))
        for c, i in enumerate(copies):
            jacs[i], cokers[i] = jacs[g], (-1.0) ** c * cokers[g]
        for i in rng.choice(np.setdiff1d(np.arange(P), np.append(copies, g)), 3, replace=False):
            jacs[i] = np.nextafter(jacs[g], np.inf if trial % 2 else -np.inf)
            cokers[i] = cokers[g]
        tied = np.linalg.eigh(stack())[1][:, :, -1].copy()
        tied[copies[2]] *= 1e3
        assert k == 1 or leader(tied) == copies[2]
        check(tied.copy())
        check(stale.copy())
        # a NaN at the leader, and one elsewhere
        for i in (copies[2], int(rng.integers(P))):
            saved = jacs[i, 0, 0]
            jacs[i, 0, 0] = np.nan
            check(tied.copy())
            jacs[i, 0, 0] = saved


def assert_verification_is_the_oracle(metric, sys, grid):
    margins, fully_actuated = metric_mod._grid_margins(metric, sys, grid)
    want, want_fully, report = oracle.verify_contraction(metric, sys, grid)
    for name in ("bounds", "killing", "contraction"):
        assert margins[name].tobytes() == want[name].tobytes(), name
    assert fully_actuated == want_fully
    assert verify_contraction(metric, sys, grid).to_json_dict() == report
    G = metric_mod.contraction_condition_matrix(metric, sys, grid)
    want_G = np.stack([oracle.contraction_condition_matrix(metric, sys, x) for x in grid])
    assert G.tobytes() == want_G.tobytes()


def test_verification_is_the_per_point_oracle_on_both_fine_grids(
    bench3d, vtol, metric3d, metric_vtol
):
    """Bit for bit on both benchmarks: the 3D drift's squares give the same
    bits on rows as on one state here, so no gap needs quoting."""
    for workload, points, metric in (("desk3d", 9, metric3d), ("vtol6d", 5, metric_vtol)):
        sys, grid = workload_grids(bench3d, vtol, points)[workload]
        assert_verification_is_the_oracle(metric, sys, grid)


def test_verification_is_the_per_point_oracle_on_small_plants(poly_metric_2d):
    """The scalar plant, and a polynomial metric on an underactuated 2D plant
    whose actuation moves with the state (nonzero Killing term)."""
    assert_verification_is_the_oracle(
        ContractionMetric.constant(np.eye(1), rate=0.5), scalar_system(),
        np.linspace(-1, 1, 7)[:, None],
    )
    plant = DynamicalSystem(
        2,
        1,
        drift=lambda x: np.stack([x[..., 1], -x[..., 0] - x[..., 1] + 0.3 * x[..., 0] ** 3],
                                 axis=-1),
        actuation=lambda x: np.stack([0.2 * np.sin(x[..., :1]), 1.0 + 0.1 * x[..., :1] ** 2],
                                     axis=-2),
        state_box=np.array([[-1.0, 1.0]] * 2),
        input_box=np.array([[-1.0, 1.0]]),
    )
    assert plant.actuation(np.zeros(2)).shape == (2, 1)
    assert_verification_is_the_oracle(poly_metric_2d, plant, box_grid(plant.state_box, 7))


def test_synthesis_with_the_oracle_patched_in_is_byte_identical(
    bench3d, vtol, metric3d, monkeypatch
):
    vsys, vgrid = workload_grids(bench3d, vtol, 3)["vtol6d"]
    vtol_args = (vsys, vgrid, (0.1, 0.6))
    vtol_kw = dict(chi_max=300.0, margin_target=-0.02)
    got = {"vtol6d": synthesize_constant_metric(*vtol_args, **vtol_kw), "desk3d": metric3d}
    monkeypatch.setattr(metric_mod, "_worst_margin",
                        lambda W, lam, jacs, cokers, warm, cold=False:
                        oracle.worst_margin(W, lam, jacs, cokers))
    monkeypatch.setattr(metric_mod, "_grid_condition_data", oracle.grid_condition_data)
    want = {
        "vtol6d": synthesize_constant_metric(*vtol_args, **vtol_kw),
        "desk3d": synthesize_constant_metric(  # the metric3d fixture's arguments
            bench3d[0], box_grid(bench3d[0].state_box, 5), (0.3, 1.0), chi_max=100.0,
            margin_target=-0.05),
    }
    for name in got:
        assert json.dumps(got[name].to_json_dict()) == json.dumps(want[name].to_json_dict())

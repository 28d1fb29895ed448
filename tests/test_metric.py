import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from prcitube.systems import DynamicalSystem


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
    """Synthesis, verification and contraction_condition_matrix take one-state
    Jacobians of the drift and of the actuation: they must not move."""
    rng = np.random.default_rng(6)
    for sys in (bench3d[0], vtol.nominal):
        for x in rng.uniform(sys.state_box[:, 0], sys.state_box[:, 1], (50, sys.state_dim)):
            for func in (sys.drift, sys.actuation):
                assert jacobian_fd(func, x).tobytes() == oracle.jacobian_fd(func, x).tobytes()


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
        drift=lambda x: A @ x,
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

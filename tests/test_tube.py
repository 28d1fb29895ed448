import numpy as np
import pytest

from prcitube.conformal import calibrate
from prcitube.errors import SingularBlock
from prcitube.metric import ContractionMetric
from prcitube.predictor import make_zero_predictor
from prcitube.systems import DynamicalSystem, PiecewiseLinearInput, TrajectoryRecord, integrate
from prcitube.tube import (
    IEBEnvelope,
    PRCITube,
    containment_experiment,
    envelope_at,
    project_tube_2d,
    rollout_containment,
    sample_metric_ball,
    schur_projection,
    start_in_ball,
    tighten_input_box,
    tighten_state_box,
    trajectory_distances,
    tube_contains,
    TubeProjection,
)


def constant_reference(n, m, T=1.0, dt=0.1, value=0.0):
    k = int(round(T / dt)) + 1
    times = np.arange(k) * dt
    return TrajectoryRecord(times, np.full((k, n), value), np.zeros((k, m)))


def flat_tube(n=2, radius=1.0, rate=1.0):
    metric = ContractionMetric.constant(np.eye(n), rate=rate)
    return PRCITube(constant_reference(n, 1), metric, radius, alpha=0.05)


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------

def test_envelope_values():
    e = IEBEnvelope(d0=2.0, rate=1.0, asymptote=1.0)
    assert envelope_at(e, 0.0) == pytest.approx(2.0)
    assert envelope_at(e, np.log(2.0)) == pytest.approx(1.5)
    assert e.c1 == pytest.approx(1.0)
    const = IEBEnvelope(d0=1.0, rate=2.0, asymptote=1.0)
    for t in (0.0, 0.3, 5.0):
        assert envelope_at(const, t) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        envelope_at(e, -0.1)


def test_envelope_limit():
    e = IEBEnvelope(d0=0.2, rate=0.5, asymptote=1.3)
    assert envelope_at(e, 40.0) == pytest.approx(1.3, abs=1e-8)


# ---------------------------------------------------------------------------
# Tube membership
# ---------------------------------------------------------------------------

def test_radius_formula_and_self_membership(metric3d):
    cal = calibrate([0.2, 0.4, 0.3, 0.6], 0.25)
    ref = constant_reference(3, 2)
    tube = PRCITube.from_calibration(ref, metric3d, cal)
    expected = np.sqrt(metric3d.upper_bound) * cal.quantile_value / metric3d.rate
    assert tube.radius == pytest.approx(expected)
    res = tube_contains(tube, ref.states[0], 0.35)
    assert res.contained
    assert res.margin == pytest.approx(tube.radius)
    assert res.distance == 0.0


def test_flat_metric_membership():
    tube = flat_tube(radius=1.0)
    res = tube_contains(tube, np.array([2.0, 0.0]), 0.5)
    assert not res.contained
    assert res.margin == pytest.approx(-1.0)
    assert res.distance == pytest.approx(2.0)


def test_radius_monotonicity():
    cal_small = calibrate([0.1, 0.2, 0.3], 0.3)
    cal_big = calibrate([0.2, 0.4, 0.6], 0.3)
    ref = constant_reference(2, 1)
    m_slow = ContractionMetric.constant(np.eye(2), rate=0.5)
    m_fast = ContractionMetric.constant(np.eye(2), rate=1.0)
    assert (
        PRCITube.from_calibration(ref, m_fast, cal_small).radius
        < PRCITube.from_calibration(ref, m_slow, cal_small).radius
    )
    assert (
        PRCITube.from_calibration(ref, m_slow, cal_small).radius
        < PRCITube.from_calibration(ref, m_slow, cal_big).radius
    )


def test_membership_matches_lattice_oracle(poly_metric_2d):
    from tests.test_metric import lattice_distance_field

    ref = constant_reference(2, 1, value=0.3)
    tube = PRCITube(ref, poly_metric_2d, radius=0.8, alpha=0.1)
    rng = np.random.default_rng(21)
    box = [(-1.0, 1.6), (-1.0, 1.6)]
    field, nearest = lattice_distance_field(
        poly_metric_2d, ref.states[0], box, spacing=0.02
    )
    checked = 0
    for _ in range(50):
        x = rng.uniform(-0.6, 1.2, 2)
        t = rng.uniform(0.0, 1.0)
        d_lat = field[nearest(x)]
        if abs(d_lat - tube.radius) < 0.02 * tube.radius:
            continue    # too close to the boundary to compare decisions
        res = tube_contains(tube, x, t)
        assert res.contained == (d_lat <= tube.radius)
        checked += 1
    assert checked >= 40


def test_containment_experiment_nominal(metric3d, bench3d):
    nom, _ = bench3d
    cal = calibrate([0.05, 0.1, 0.2], 0.3)
    tubes, rollouts = [], []
    rng = np.random.default_rng(3)
    for i in range(4):
        x0 = rng.uniform(-0.5, 0.5, 3)
        pol = PiecewiseLinearInput(np.array([0.0, 1.0]), rng.uniform(-0.3, 0.3, (2, 2)))
        ref = integrate(nom, x0, pol, 1.0, 0.01)
        tubes.append(PRCITube.from_calibration(ref, metric3d, cal))
        rollouts.append(ref)     # perfect start, no uncertainty: the same path
    result = containment_experiment(tubes, rollouts)
    assert result["fraction"] == 1.0
    assert result["contained"] == 4
    assert max(result["sup_distances"]) == 0.0


def test_rollout_containment_decides_once_and_fails_diverged_rollouts():
    tube = flat_tube(n=2, radius=1.0)
    ref = tube.reference
    k = len(ref.times)
    inside = TrajectoryRecord(ref.times, np.tile([0.6, 0.0], (k, 1)), ref.inputs)
    outside = TrajectoryRecord(ref.times, np.tile([0.0, 1.5], (k, 1)), ref.inputs)
    c = rollout_containment(tube, inside)
    assert (c.sup_distance, c.start_distance, c.contained) == (0.6, 0.6, True)
    np.testing.assert_allclose(c.envelope_excess, -0.05)
    assert not rollout_containment(tube, outside).contained
    assert rollout_containment(tube, None) == (np.inf, np.inf, False, np.inf)
    result = containment_experiment([tube] * 3, [inside, None, outside])
    assert result["n_rollouts"] == 3 and result["contained"] == 1
    assert result["sup_distances"] == [0.6, np.inf, 1.5]
    assert result["envelope_worst_excess_contained"] == c.envelope_excess


def test_infinite_tube_envelope_is_never_exceeded():
    """An infinite radius (too few calibration scores for alpha) contains
    every finite rollout, and its envelope (d0 - inf) e^(-rate t) + inf
    cannot be exceeded: the excess is -inf, not NaN."""
    tube = flat_tube(n=2, radius=np.inf)
    ref = tube.reference
    rollout = TrajectoryRecord(ref.times, np.tile([0.0, 3.0], (len(ref.times), 1)), ref.inputs)
    c = rollout_containment(tube, rollout)
    assert (c.sup_distance, c.contained, c.envelope_excess) == (3.0, True, -np.inf)
    result = containment_experiment([tube] * 2, [rollout, None])
    assert result["contained"] == 1
    assert result["envelope_worst_excess_contained"] == -np.inf


def test_start_in_ball_is_the_second_ball_sample(metric3d):
    center = np.array([0.2, -0.1, 0.3])
    for seed in range(5):
        a = start_in_ball(metric3d, center, 0.4, np.random.default_rng(seed))
        b = sample_metric_ball(metric3d, center, 0.4, 2, np.random.default_rng(seed))[1]
        np.testing.assert_array_equal(a, b)
    rng = np.random.default_rng(0)
    assert start_in_ball(metric3d, center, np.inf, rng) is center
    assert rng.uniform() == np.random.default_rng(0).uniform()     # no draw consumed


def test_start_in_zero_ball_is_the_center(metric3d):
    rng = np.random.default_rng(11)
    for _ in range(100):
        center = rng.uniform(-1.0, 1.0, 3)
        assert start_in_ball(metric3d, center, 0.0, rng).tobytes() == center.tobytes()


def test_envelope_at_takes_arrays():
    e = IEBEnvelope(d0=2.0, rate=1.0, asymptote=1.0)
    times = np.array([0.0, 0.5, np.log(2.0)])
    values = envelope_at(e, times)
    assert values.shape == (3,)
    assert list(values) == [envelope_at(e, t) for t in times]
    with pytest.raises(ValueError):
        envelope_at(e, np.array([0.0, -0.1]))


def test_envelope_violation_nonpositive_for_nominal(metric3d, bench3d):
    nom, _ = bench3d
    from prcitube.control import track

    rng = np.random.default_rng(5)
    pol = PiecewiseLinearInput(np.array([0.0, 1.0]), rng.uniform(-0.2, 0.2, (2, 2)))
    ref = integrate(nom, np.array([0.2, -0.1, 0.3]), pol, 1.0, 0.01)
    cal = calibrate([0.05, 0.08, 0.12], 0.3)
    tube = PRCITube.from_calibration(ref, metric3d, cal)
    (roll,) = track(nom, metric3d, make_zero_predictor(3, 2), [ref], [ref.states[0]])
    assert rollout_containment(tube, roll).envelope_excess <= 0.0


# ---------------------------------------------------------------------------
# State-box tightening
# ---------------------------------------------------------------------------

def test_tighten_state_zero_radius():
    box = np.array([[-1.0, 1.0], [-2.0, 3.0]])
    m = ContractionMetric.constant(np.eye(2), rate=1.0)
    out = tighten_state_box(box, 0.0, m)
    np.testing.assert_array_equal(out.box, box)
    assert not out.empty


def test_tighten_state_euclidean_ball():
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    m = ContractionMetric.constant(np.eye(2), rate=1.0)
    out = tighten_state_box(box, 0.5, m)
    np.testing.assert_allclose(out.box, np.array([[-0.5, 0.5], [-0.5, 0.5]]))


def test_tighten_state_anisotropic_with_boundary_sampling_oracle():
    M = np.diag([4.0, 1.0])
    m = ContractionMetric.constant(M, rate=1.0)
    out = tighten_state_box(np.array([[-3.0, 3.0], [-3.0, 3.0]]), 1.0, m)
    np.testing.assert_allclose(out.margins, [0.5, 1.0], atol=1e-12)
    # boundary-sampling oracle: coordinate extremes over the metric sphere
    rng = np.random.default_rng(11)
    z = rng.normal(size=(100_000, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    pts = z @ np.linalg.inv(np.linalg.cholesky(M)).T   # boundary of the unit ball
    extremes = np.max(np.abs(pts), axis=0)
    np.testing.assert_allclose(extremes, out.margins, rtol=1e-3)


def test_tighten_state_empty_flag():
    m = ContractionMetric.constant(np.eye(2), rate=1.0)
    out = tighten_state_box(np.array([[-0.2, 0.2], [-5.0, 5.0]]), 0.5, m)
    assert out.empty


def test_tighten_state_dependent_uses_conservative_bound(poly_metric_2d):
    box = np.array([[-10.0, 10.0], [-10.0, 10.0]])
    out = tighten_state_box(box, 1.0, poly_metric_2d)
    expected = 1.0 / np.sqrt(poly_metric_2d.lower_bound)
    np.testing.assert_allclose(out.margins, [expected, expected])


# ---------------------------------------------------------------------------
# Input tightening
# ---------------------------------------------------------------------------

def linear_scalar_setup(rate=0.5, a_dyn=0.5, m_val=2.0, radius=0.8):
    sys = DynamicalSystem(
        1,
        1,
        drift=lambda x: a_dyn * x,
        actuation=lambda x: np.eye(1),
        state_box=np.array([[-5.0, 5.0]]),
        input_box=np.array([[-10.0, 10.0]]),
    )
    metric = ContractionMetric.constant(np.array([[m_val]]), rate=rate)
    ref = constant_reference(1, 1, T=1.0, dt=0.1)
    tube = PRCITube(ref, metric, radius, alpha=0.05)
    return sys, metric, tube


def test_tighten_input_center_budget_is_identity():
    sys, metric, tube = linear_scalar_setup()
    box = sys.input_box
    out = tighten_input_box(box, tube, metric, sys, budget=1, seed=0)
    np.testing.assert_array_equal(out.margins, np.zeros(1))
    np.testing.assert_array_equal(out.box, box)


def test_tighten_input_monotone_in_budget():
    sys, metric, tube = linear_scalar_setup()
    box = sys.input_box
    margins = [
        tighten_input_box(box, tube, metric, sys, budget=b, seed=3).margins[0]
        for b in (2, 8, 32, 128)
    ]
    assert all(m2 >= m1 for m1, m2 in zip(margins, margins[1:]))


def test_tighten_input_matches_linear_closed_form():
    # For xdot = a x + u with constant metric and straight geodesics the
    # feedback on the ball is kappa = -(rate + a) * delta, so the exact
    # margin is (rate + a) * radius / sqrt(m).
    rate, a_dyn, m_val, radius = 0.5, 0.5, 2.0, 0.8
    sys, metric, tube = linear_scalar_setup(rate, a_dyn, m_val, radius)
    exact = (rate + a_dyn) * radius / np.sqrt(m_val)
    out = tighten_input_box(sys.input_box, tube, metric, sys, budget=4000, seed=1)
    assert out.margins[0] == pytest.approx(exact, rel=0.15)
    assert not out.empty


def test_tighten_input_empty_flag():
    sys, metric, tube = linear_scalar_setup(radius=3.0)
    narrow = np.array([[-0.5, 0.5]])
    out = tighten_input_box(narrow, tube, metric, sys, budget=64, seed=2)
    assert out.empty


# ---------------------------------------------------------------------------
# 2D projection
# ---------------------------------------------------------------------------

def test_projection_identity_metric_is_circle():
    m = ContractionMetric.constant(np.eye(3), rate=1.0)
    tube = PRCITube(constant_reference(3, 1), m, radius=0.7, alpha=0.05)
    proj = project_tube_2d(tube, (0, 1))
    np.testing.assert_allclose(proj.shapes[0], np.eye(2), atol=1e-12)
    assert proj.radius == pytest.approx(0.7)
    assert proj.max_extent() == pytest.approx(0.7)


def test_projection_block_diagonal_is_block():
    blockA = np.array([[2.0, 0.3], [0.3, 1.0]])
    M = np.block([[blockA, np.zeros((2, 1))], [np.zeros((1, 2)), np.array([[5.0]])]])
    m = ContractionMetric.constant(M, rate=1.0)
    tube = PRCITube(constant_reference(3, 1), m, radius=1.0, alpha=0.05)
    proj = project_tube_2d(tube, (0, 1))
    np.testing.assert_allclose(proj.shapes[0], blockA, atol=1e-12)


def test_projection_vtol_sound_and_tight(vtol, metric_vtol):
    ref = constant_reference(6, 2, T=0.5, dt=0.1)
    tube = PRCITube(ref, metric_vtol, radius=0.9, alpha=0.05)
    proj = project_tube_2d(tube, (0, 1))
    P = proj.shapes[0]
    M = metric_vtol.constant_matrix
    rng = np.random.default_rng(17)
    pts = sample_metric_ball(metric_vtol, np.zeros(6), tube.radius, 2000, rng)
    for x in pts:
        y = x[:2]
        assert y @ P @ y <= tube.radius**2 * (1 + 1e-12)
    # boundary touching: lift a boundary point of the ellipse back to 6D
    rest = [2, 3, 4, 5]
    Mcc = M[np.ix_(rest, rest)]
    Mcp = M[np.ix_(rest, [0, 1])]
    vals, vecs = np.linalg.eigh(P)
    for k in range(2):
        y = tube.radius / np.sqrt(vals[k]) * vecs[:, k]
        full = np.zeros(6)
        full[:2] = y
        full[rest] = -np.linalg.solve(Mcc, Mcp @ y)
        quad = full @ M @ full
        assert quad == pytest.approx(tube.radius**2, rel=1e-10)
        assert y @ P @ y == pytest.approx(tube.radius**2, rel=1e-10)


def test_state_dependent_projection_is_each_state_projected_alone():
    M = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]])
    metric = ContractionMetric.polynomial(
        [((0, 0, 0), M), ((2, 0, 0), np.diag([1.0, 0.0, 0.5])), ((0, 1, 1), 0.1 * M)],
        rate=1.0, lower=0.5, upper=10.0,
    )
    times = np.arange(6) * 0.2
    states = np.random.default_rng(4).uniform(-1.0, 1.0, (6, 3))
    tube = PRCITube(TrajectoryRecord(times, states, np.zeros((6, 1))), metric, 1.0, 0.05)
    for coords in ((0, 1), (2, 0)):
        proj = project_tube_2d(tube, coords)
        for x, P in zip(states, proj.shapes):
            np.testing.assert_array_equal(P, schur_projection(metric.evaluate(x), coords))
    with pytest.raises(SingularBlock):
        schur_projection(np.stack([M, np.diag([1.0, 1.0, 1e-16])]), (0, 1))


def test_projection_singular_block_raises():
    M = np.diag([1.0, 1.0, 1e-16])
    with pytest.raises(SingularBlock):
        schur_projection(M, (0, 1))


def test_projection_csv_format(tmp_path):
    tube = flat_tube(n=3)
    proj = project_tube_2d(tube, (0, 2))
    path = tmp_path / "ellipses.csv"
    proj.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,center_1,center_3,a11,a12,a22,radius"
    assert len(lines) == 1 + len(tube.reference.times)


def test_projection_csv_is_the_savetxt_text():
    import io

    times = np.array([0.0, 1.0])
    centers = np.array([[-0.0, 5e-324], [1.7976931348623157e308, 2.0]])
    shapes = np.array([[[4.0, 0.1], [0.1, 3.0]], [[1.0, -0.0], [-0.0, 1.0 / 3.0]]])
    proj = TubeProjection((0, 2), times, centers, shapes, 0.25)
    rows = np.column_stack([times, centers, shapes[:, 0, 0], shapes[:, 0, 1], shapes[:, 1, 1],
                            np.full(2, 0.25)])
    buf = io.StringIO()
    np.savetxt(buf, rows, fmt="%.17g", delimiter=",")
    assert proj.to_csv() == "t,center_1,center_3,a11,a12,a22,radius\n" + buf.getvalue()


def test_trajectory_distances_interpolates_mismatched_grid(metric3d):
    ref = constant_reference(3, 2, T=1.0, dt=0.1)
    times = np.arange(0, 21) * 0.05
    roll = TrajectoryRecord(times, np.zeros((21, 3)), np.zeros((21, 2)))
    tube = PRCITube(ref, metric3d, 1.0, 0.05)
    d = trajectory_distances(tube, roll)
    np.testing.assert_allclose(d, np.zeros(21), atol=1e-12)

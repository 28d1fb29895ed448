import numpy as np
import pytest

import scalar_oracle as oracle
from conftest import nominal_field
from prcitube.control import (
    ContractingPolicy,
    feedback_terms,
    min_norm_feedback,
    residual_norms,
    track,
)
from prcitube.errors import DegenerateConstraint
from prcitube.metric import ContractionMetric
from prcitube.predictor import make_zero_predictor
from prcitube.systems import DynamicalSystem, PiecewiseLinearInput, integrate


def kkt_qp(a, b):
    """Independent one-constraint QP: active-set with a dense KKT solve."""
    m = a.size
    if b <= 0.0:
        return np.zeros(m)
    K = np.zeros((m + 1, m + 1))
    K[:m, :m] = 2.0 * np.eye(m)
    K[:m, m] = -a
    K[m, :m] = a
    rhs = np.zeros(m + 1)
    rhs[m] = b
    sol = np.linalg.solve(K, rhs)
    return sol[:m]


def scalar_tracking_setup(rate):
    sys = DynamicalSystem(
        1,
        1,
        drift=lambda x: -x,
        actuation=lambda x: np.eye(1),
        state_box=np.array([[-5.0, 5.0]]),
        input_box=np.array([[-50.0, 50.0]]),
    )
    metric = ContractionMetric.constant(np.eye(1), rate=rate)
    return sys, metric


def test_kappa_zero_at_reference():
    sys, metric = scalar_tracking_setup(0.5)
    k = min_norm_feedback(metric, sys, np.array([0.7]), np.array([0.7]), np.array([0.1]))
    np.testing.assert_array_equal(k, np.zeros(1))


def test_kappa_zero_when_naturally_contracting():
    sys, metric = scalar_tracking_setup(0.5)   # true rate is 1 > 0.5
    k = min_norm_feedback(metric, sys, np.array([1.0]), np.array([0.2]), np.array([0.0]))
    np.testing.assert_array_equal(k, np.zeros(1))


def test_kappa_active_scalar_closed_form():
    sys, metric = scalar_tracking_setup(1.5)   # demands more than the drift gives
    e = 0.8
    k = min_norm_feedback(metric, sys, np.array([e]), np.array([0.0]), np.array([0.0]))
    assert k[0] == pytest.approx(-0.5 * e, abs=1e-12)


def random_instance(rng):
    n, m = 3, 2
    A = rng.normal(size=(n, n))
    M = A @ A.T + 0.5 * np.eye(n)
    metric = ContractionMetric.constant(M, rate=float(rng.uniform(0.2, 2.0)))
    Adyn = rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    sys = DynamicalSystem(
        n,
        m,
        drift=lambda x, Adyn=Adyn: Adyn @ x,
        actuation=lambda x, B=B: B,
        state_box=np.array([[-10.0, 10.0]] * n),
        input_box=np.array([[-100.0, 100.0]] * m),
    )
    x = rng.normal(size=n)
    x_ref = rng.normal(size=n)
    u_ref = rng.normal(size=m)
    return metric, sys, x, x_ref, u_ref


def test_qp_matches_kkt_oracle():
    rng = np.random.default_rng(11)
    active = 0
    for _ in range(200):
        metric, sys, x, x_ref, u_ref = random_instance(rng)
        terms = feedback_terms(metric, sys, x, x_ref, u_ref)
        a, b = terms.a, terms.b
        kappa = min_norm_feedback(metric, sys, x, x_ref, u_ref)
        oracle = kkt_qp(a, b)
        np.testing.assert_allclose(kappa, oracle, atol=1e-8)
        active += b > 0
    assert 20 < active < 180    # the mix covers both branches


def test_qp_constraint_satisfied_with_margin():
    rng = np.random.default_rng(12)
    for _ in range(100):
        metric, sys, x, x_ref, u_ref = random_instance(rng)
        terms = feedback_terms(metric, sys, x, x_ref, u_ref)
        a, b = terms.a, terms.b
        kappa = min_norm_feedback(metric, sys, x, x_ref, u_ref)
        assert a @ kappa - b >= -1e-8


def test_qp_optimality_against_feasible_points():
    rng = np.random.default_rng(13)
    metric, sys, x, x_ref, u_ref = random_instance(rng)
    terms = feedback_terms(metric, sys, x, x_ref, u_ref)
    a, b = terms.a, terms.b
    while b <= 0:   # want an active instance
        metric, sys, x, x_ref, u_ref = random_instance(rng)
        terms = feedback_terms(metric, sys, x, x_ref, u_ref)
        a, b = terms.a, terms.b
    kappa = min_norm_feedback(metric, sys, x, x_ref, u_ref)
    base = (b / (a @ a)) * a
    for _ in range(100):
        w = rng.normal(size=a.size)
        w -= (w @ a) / (a @ a) * a          # orthogonal wander
        slack = abs(rng.normal()) * (a / np.linalg.norm(a))
        other = base + 0.5 * w + slack
        assert a @ other >= b - 1e-10
        assert np.linalg.norm(kappa) <= np.linalg.norm(other) + 1e-12


def test_degenerate_constraint_raises():
    sys = DynamicalSystem(
        1,
        1,
        drift=lambda x: x,                  # expanding, uncontrollable
        actuation=lambda x: np.zeros((1, 1)),
        state_box=np.array([[-5.0, 5.0]]),
        input_box=np.array([[-5.0, 5.0]]),
    )
    metric = ContractionMetric.constant(np.eye(1), rate=0.5)
    with pytest.raises(DegenerateConstraint):
        min_norm_feedback(metric, sys, np.array([1.0]), np.array([0.0]), np.array([0.0]))


def _single_term_polynomial(metric):
    """The constant metric written as a one-term polynomial metric, so the
    feedback takes the general geodesic path."""
    n = metric.dim
    return ContractionMetric.polynomial(
        [((0,) * n, metric.constant_matrix)],
        metric.rate,
        metric.lower_bound,
        metric.upper_bound,
    )


@pytest.mark.parametrize("bench", ["threeD", "vtol"])
def test_constant_metric_closed_form_matches_geodesic_path(
    bench, bench3d, metric3d, vtol, metric_vtol
):
    if bench == "threeD":
        sys, metric = bench3d[0], metric3d
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
    else:
        sys, metric = vtol.nominal, metric_vtol
        lo = np.array([-1.0, -1.0, -0.4, -0.8, -0.4, -0.4])
        hi = -lo
    poly = _single_term_polynomial(metric)
    rng = np.random.default_rng(23)
    active = 0
    for _ in range(200):
        x_ref = rng.uniform(lo, hi)
        x = x_ref + 0.3 * rng.uniform(lo, hi)
        u_ref = rng.uniform(sys.input_box[:, 0], sys.input_box[:, 1])
        closed = min_norm_feedback(metric, sys, x, x_ref, u_ref)
        geodesic = min_norm_feedback(poly, sys, x, x_ref, u_ref)
        err = np.linalg.norm(closed - geodesic)
        assert err <= 1e-9 * max(np.linalg.norm(geodesic), 1e-300)
        active += bool(np.any(geodesic != 0.0))
    assert 0 < active < 200     # both branches of the min-norm solution occur


def test_constant_metric_terms_equal_discretized_geodesic_bit_for_bit():
    """The constant-metric shortcut keeps the arithmetic of the tangents of
    the discretized straight geodesic, so closed-loop rollouts keep their
    bits."""
    from prcitube.metric import riemannian_distance

    rng = np.random.default_rng(19)
    for i in range(300):
        metric, sys, x, x_ref, u_ref = random_instance(rng)
        x = x_ref + 10.0 ** -(i % 8) * (x - x_ref)
        _, geo = riemannian_distance(metric, x_ref, x)
        g0, g1 = geo.endpoint_tangents()
        M = metric.constant_matrix
        a = -(sys.actuation(x).T @ (M @ g1))
        t1 = g1 @ (M @ (sys.drift(x) + sys.actuation(x) @ u_ref))
        t2 = g0 @ (M @ (sys.drift(x_ref) + sys.actuation(x_ref) @ u_ref))
        b = metric.rate * geo.energy + t1 - t2
        if b <= 1e-12 * (metric.rate * geo.energy + abs(t1) + abs(t2)):
            b = min(b, 0.0)
        terms = feedback_terms(metric, sys, x, x_ref, u_ref)
        np.testing.assert_array_equal(terms.a, a)
        assert terms.b == b and terms.energy == geo.energy


def test_constant_metric_feedback_builds_no_geodesic(monkeypatch):
    import prcitube.control as control

    def forbidden(*args, **kwargs):
        raise AssertionError("constant metrics need no geodesic")

    monkeypatch.setattr(control, "riemannian_distance", forbidden)
    sys, metric = scalar_tracking_setup(1.5)
    k = min_norm_feedback(metric, sys, np.array([0.8]), np.array([0.0]), np.array([0.0]))
    assert k[0] == pytest.approx(-0.4, abs=1e-12)


# ---------------------------------------------------------------------------
# Closed-loop policy
# ---------------------------------------------------------------------------

def make_reference(sys, x0, T=1.0, dt=0.01, knots=None):
    pol = knots or PiecewiseLinearInput(np.array([0.0, T]), np.zeros((2, sys.input_dim)))
    return integrate(sys, x0, pol, T, dt)


def test_zero_predictor_equals_no_predictor(bench3d, metric3d):
    """A rollout under the zero predictor equals the frozen oracle's
    uncompensated loop.  Compared by value: subtracting an exact-zero
    compensation may flip the sign of a zero input."""
    nom, true = bench3d
    knots = PiecewiseLinearInput(np.array([0.0, 1.0]), np.array([[0.2, -0.1], [-0.1, 0.2]]))
    ref = integrate(nom, np.array([0.3, -0.2, 0.1]), knots, 1.0, 0.01)
    x0 = ref.states[0] + 0.05
    (roll,) = track(true, metric3d, make_zero_predictor(3, 2), [ref], [x0])
    want = oracle.track(oracle.plant_3d(), metric3d, None, ref, x0)
    for name in ("states", "inputs", "uncertainties"):
        np.testing.assert_array_equal(getattr(roll, name), getattr(want, name))


def test_full_compensation_with_square_B():
    # fully actuated plant, predictor equal to the true uncertainty
    def zeta(x, u):   # (..., n) rows, as plant callables take
        return np.stack([0.3 * np.tanh(x[..., 0]), np.full(x.shape[:-1], -0.2)], axis=-1)

    sys_true = DynamicalSystem(
        2,
        2,
        drift=lambda x: -x,
        actuation=lambda x: np.eye(2),
        state_box=np.array([[-5.0, 5.0]] * 2),
        input_box=np.array([[-10.0, 10.0]] * 2),
        uncertainty=lambda x, u, f: zeta(x, u),
    )

    class Perfect:
        family = "oracle"

        def predict(self, x, u):
            return zeta(x, u)

    metric = ContractionMetric.constant(np.eye(2), rate=0.5)
    ref = make_reference(sys_true.nominal, np.array([0.5, -0.5]))
    (roll,) = track(sys_true, metric, Perfect(), [ref], [ref.states[0]])
    norms = residual_norms(sys_true.nominal, Perfect(), roll)
    # u_minus lags one tick, so the first step compensates zeta(x, 0) != zeta(x, u);
    # here zeta does not depend on u, so cancellation is exact everywhere.
    assert np.max(norms) < 1e-12


def test_residual_trace_matches_pointwise_recomputation(vtol, metric_vtol):
    nom = vtol.nominal
    from prcitube.systems import VTOL_GRAVITY, VTOL_MASS

    hover = VTOL_MASS * VTOL_GRAVITY / 2.0
    knots = PiecewiseLinearInput(
        np.array([0.0, 1.0]), np.tile([hover, hover], (2, 1))
    )
    ref = integrate(nom, np.zeros(6), knots, 1.0, 0.01)

    class Half:
        family = "half"

        def predict(self, x, u):
            return 0.5 * vtol.uncertainty(x, u, nominal_field(vtol, x, u))

    (roll,) = track(vtol, metric_vtol, Half(), [ref], [np.zeros(6)])
    norms = residual_norms(nom, Half(), roll)
    B = nom.actuation(np.zeros(6))
    Bp = np.linalg.pinv(B, rcond=1e-10)
    for k in (0, 7, 50, 100):
        u_minus = roll.inputs[k - 1] if k else np.zeros(2)
        x, u = roll.states[k], roll.inputs[k]
        r = vtol.uncertainty(x, u, nominal_field(vtol, x, u)) - B @ (
            Bp @ (0.5 * vtol.uncertainty(x, u_minus, nominal_field(vtol, x, u_minus)))
        )
        assert norms[k] == pytest.approx(np.linalg.norm(r), abs=1e-12)


def test_delayed_input_ladder():
    sys, metric = scalar_tracking_setup(0.8)
    ref = make_reference(sys, np.array([1.0]), T=0.1, dt=0.01)
    policy = ContractingPolicy(metric, sys, [ref], make_zero_predictor(1, 1))
    dt = 0.01
    x = np.array([[0.5]])
    u0 = policy.notify_step(x, 0.0, sys.drift(x))
    np.testing.assert_array_equal(policy.delayed_input(0.0), np.zeros((1, 1)))
    np.testing.assert_array_equal(policy.delayed_input(0.5 * dt), np.zeros((1, 1)))
    np.testing.assert_array_equal(policy.delayed_input(dt), u0)
    x1 = np.array([[0.45]])
    u1 = policy.notify_step(x1, dt, sys.drift(x1))
    np.testing.assert_array_equal(policy.delayed_input(dt), u0)
    np.testing.assert_array_equal(policy.delayed_input(1.5 * dt), u0)
    np.testing.assert_array_equal(policy.delayed_input(2 * dt), u1)


class CountingPolicy(ContractingPolicy):
    """Records what the integrator asks of the policy."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.committed = []
        self.stage_calls = 0

    def notify_step(self, x, t, fx):
        u = super().notify_step(x, t, fx)
        self.committed.append(u)
        return u

    def __call__(self, x, t, fx):
        self.stage_calls += 1
        return super().__call__(x, t, fx)


def test_boundary_inputs_match_stored_record():
    sys, metric = scalar_tracking_setup(0.8)
    ref = make_reference(sys, np.array([1.0]), T=0.2, dt=0.01)
    policy = CountingPolicy(metric, sys, [ref], make_zero_predictor(1, 1))
    (roll,) = integrate(sys, np.array([[0.7]]), policy, 0.2, 0.01)
    assert len(policy.committed) == len(roll.times)
    np.testing.assert_array_equal(np.array(policy.committed)[:, 0], roll.inputs)


def test_policy_notified_once_and_called_three_times_per_step(vtol, metric_vtol):
    from prcitube.systems import VTOL_GRAVITY, VTOL_MASS

    nom = vtol.nominal
    hover = VTOL_MASS * VTOL_GRAVITY / 2.0
    knots = PiecewiseLinearInput(np.array([0.0, 1.0]), np.full((2, 2), hover))
    ref = integrate(nom, np.zeros(6), knots, 0.5, 0.01)
    policy = CountingPolicy(metric_vtol, nom, [ref], make_zero_predictor(6, 2))
    (roll,) = integrate(vtol, np.full((1, 6), 0.01), policy, 0.5, 0.01)
    n_steps = len(roll.times) - 1
    assert n_steps == 50
    assert len(policy.committed) == n_steps + 1
    assert policy.stage_calls == 3 * n_steps


def test_nominal_contraction_rate(bench3d, metric3d):
    nom, _ = bench3d
    rng = np.random.default_rng(5)
    lam = metric3d.rate
    T = min(3.0 / lam, 6.0)
    for _ in range(3):
        x_ref0 = rng.uniform(-0.5, 0.5, 3)
        knots = PiecewiseLinearInput(
            np.array([0.0, T / 2, T]), rng.uniform(-0.3, 0.3, (3, 2))
        )
        ref = integrate(nom, x_ref0, knots, T, 0.01)
        x0 = x_ref0 + rng.uniform(-0.3, 0.3, 3)
        (roll,) = track(nom, metric3d, make_zero_predictor(3, 2), [ref], [x0])
        M = metric3d.constant_matrix
        D = roll.states - ref.states
        d = np.sqrt(np.einsum("ki,ij,kj->k", D, M, D))
        d0 = d[0]
        bound = d0 * np.exp(-lam * roll.times) * 1.05 + 1e-12
        assert np.all(d <= bound)


def test_saturation_logged_not_applied_by_default():
    sys, metric = scalar_tracking_setup(1.5)
    tight = DynamicalSystem(
        1,
        1,
        drift=sys.drift,
        actuation=sys.actuation,
        state_box=sys.state_box,
        input_box=np.array([[-1e-4, 1e-4]]),
    )
    ref = make_reference(tight, np.array([1.0]))
    policy = ContractingPolicy(metric, tight, [ref], make_zero_predictor(1, 1))
    x = np.array([[3.0]])
    u = policy(x, 0.0, tight.drift(x))
    assert policy.saturation_events == [[0.0]]
    assert abs(u[0, 0]) > 1e-4                    # not clipped


def test_qp_matches_scipy_slsqp_oracle():
    # second, fully independent numeric route at looser tolerance
    from scipy.optimize import minimize

    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(50):
        metric, sys, x, x_ref, u_ref = random_instance(rng)
        terms = feedback_terms(metric, sys, x, x_ref, u_ref)
        if terms.b <= 0:
            continue
        kappa = min_norm_feedback(metric, sys, x, x_ref, u_ref)
        res = minimize(
            lambda k: float(k @ k),
            x0=np.zeros(terms.a.size),
            jac=lambda k: 2.0 * k,
            constraints=[{"type": "ineq", "fun": lambda k: float(terms.a @ k - terms.b),
                          "jac": lambda k: terms.a}],
            method="SLSQP",
            options={"ftol": 1e-12, "maxiter": 200},
        )
        assert res.success
        np.testing.assert_allclose(kappa, res.x, atol=1e-6)
        checked += 1
    assert checked >= 20

import io

import numpy as np
import pytest

from conftest import nominal_field, plant_field
from prcitube.errors import NonFiniteState
from prcitube.harness import read_json, write_json
from prcitube.systems import (
    DynamicalSystem,
    PiecewiseLinearInput,
    TrajectoryRecord,
    integrate,
    make_benchmark_3d,
    make_benchmark_vtol,
    vtol_thrust_disturbance,
    VTOL_ARM,
    VTOL_GRAVITY,
    VTOL_INERTIA,
    VTOL_MASS,
    _B3_NOMINAL,
    _B3_TRUE,
    _field3,
    csv_rows,
)


def scalar_decay():
    return DynamicalSystem(
        1,
        1,
        drift=lambda x: -x,
        actuation=lambda x: np.eye(1),
        state_box=np.array([[-10.0, 10.0]]),
        input_box=np.array([[-1.0, 1.0]]),
    )


def zero_input(x, t, fx):
    return np.zeros(1)


# ---------------------------------------------------------------------------
# 3D benchmark
# ---------------------------------------------------------------------------

def hand_dynamics_3d(x, u, th):
    """Independent evaluation of the nominal field, written from scratch."""
    t1, t2, t3 = th
    f = np.array([x[2] - t1 * x[0], x[0] ** 2 - x[1], np.tanh(x[1])])
    phi = np.array([t2 * x[2] + t3 * x[0] ** 2, t2 * x[1] + t3 * x[0] ** 2])
    B = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    return f + B @ (u - phi)


def test_3d_nominal_matches_hand_evaluation():
    nom, _ = make_benchmark_3d()
    x = np.array([1.0, 0.0, 0.0])
    u = np.zeros(2)
    expected = hand_dynamics_3d(x, u, (0.4, 0.2, 0.1))
    np.testing.assert_allclose(plant_field(nom, x, u), expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(expected[:2], [-0.4, 0.9])
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-3, 3, 3)
        u = rng.uniform(-1.5, 1.5, 2)
        np.testing.assert_allclose(
            plant_field(nom, x, u), hand_dynamics_3d(x, u, (0.4, 0.2, 0.1)), atol=1e-12
        )


def test_3d_paper_configuration_is_default():
    nom_default, true_default = make_benchmark_3d()
    nom_explicit, _ = make_benchmark_3d(theta=(0.4, 0.2, 0.1), delta=(0.0, 0.02, -0.01))
    x = np.array([0.7, -0.3, 1.1])
    u = np.array([0.2, -0.4])
    np.testing.assert_array_equal(plant_field(nom_default, x, u), plant_field(nom_explicit, x, u))
    assert true_default.uncertainty is not None
    # the nominal plant is the true plant's twin without the uncertainty
    assert nom_default.uncertainty is None and nom_default.name == "threeD-nominal"
    assert nom_default.drift is true_default.drift
    assert nom_default.actuation is true_default.actuation
    np.testing.assert_array_equal(nom_default.state_box, np.array([[-15.0, 15.0]] * 3))
    np.testing.assert_array_equal(nom_default.input_box, np.array([[-1.5, 1.5]] * 2))


def test_3d_zero_perturbation_zero_uncertainty():
    _, true = make_benchmark_3d(delta=(0.0, 0.0, 0.0), true_actuation=_B3_NOMINAL)
    rng = np.random.default_rng(1)
    for _ in range(25):
        x = rng.uniform(-5, 5, 3)
        u = rng.uniform(-1.5, 1.5, 2)
        np.testing.assert_allclose(true.uncertainty(x, u, nominal_field(true, x, u)), np.zeros(3),
                                   atol=1e-14)


def make_benchmark_3d_direct(theta=(0.4, 0.2, 0.1), delta=(0.0, 0.02, -0.01)) -> DynamicalSystem:
    """The true 3D plant in its own control-affine coordinates (not the
    additive nominal form); used to cross-check the additive rewrite."""
    dth = np.asarray(theta, dtype=float) + np.asarray(delta, dtype=float)
    return DynamicalSystem(
        3, 2, _field3(*dth, _B3_TRUE), lambda x: _B3_TRUE,
        np.array([[-15.0, 15.0]] * 3), np.array([[-1.5, 1.5]] * 2), name="threeD-direct",
    )


def test_3d_additive_form_equals_direct_integration():
    _, true = make_benchmark_3d()
    direct = make_benchmark_3d_direct()
    pol = PiecewiseLinearInput(
        np.array([0.0, 1.0, 2.0]), np.array([[0.3, -0.2], [-0.1, 0.4], [0.2, 0.1]])
    )
    x0 = np.array([0.5, -0.5, 0.2])
    ra = integrate(true, x0, pol, 2.0, 0.01)
    rb = integrate(direct, x0, pol, 2.0, 0.01)
    np.testing.assert_allclose(ra.states, rb.states, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# VTOL benchmark
# ---------------------------------------------------------------------------

def test_vtol_parameter_readback():
    assert (VTOL_MASS, VTOL_INERTIA, VTOL_GRAVITY, VTOL_ARM) == (0.486, 0.00383, 9.81, 0.25)


def test_vtol_hover_force_balance():
    vt = make_benchmark_vtol()
    hover = np.full(2, VTOL_MASS * VTOL_GRAVITY / 2.0)
    dx = plant_field(vt.nominal, np.zeros(6), hover)
    assert abs(dx[4]) < 1e-12      # vertical acceleration balances gravity
    np.testing.assert_allclose(dx, np.zeros(6), atol=1e-12)


def test_vtol_disturbance_arithmetic():
    x = np.zeros(6)
    x[3] = 1.0                      # v = (1, 0)
    u = np.array([1.0, 1.0])
    chan = vtol_thrust_disturbance(x, u)
    assert chan[0] == pytest.approx(-0.04 * 1.0 + 0.05 * np.sqrt(2.0), abs=1e-14)
    assert chan[1] == pytest.approx(0.05 * np.sqrt(2.0), abs=1e-14)
    vt = make_benchmark_vtol()
    zeta = vt.uncertainty(x, u, nominal_field(vt, x, u))
    np.testing.assert_allclose(zeta[:4], np.zeros(4), atol=1e-15)
    assert zeta[4] == pytest.approx((chan[0] + chan[1]) / VTOL_MASS)
    assert zeta[5] == pytest.approx((chan[0] - chan[1]) * VTOL_ARM / VTOL_INERTIA)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

def test_integrate_zero_field_constant():
    sys = DynamicalSystem(
        2,
        1,
        drift=lambda x: np.zeros(2),
        actuation=lambda x: np.zeros((2, 1)),
        state_box=np.array([[-1.0, 1.0]] * 2),
        input_box=np.array([[-1.0, 1.0]]),
    )
    rec = integrate(sys, np.array([0.3, -0.7]), zero_input, 1.0, 0.1)
    np.testing.assert_array_equal(rec.states, np.tile([0.3, -0.7], (11, 1)))


def test_integrate_exponential_decay():
    rec = integrate(scalar_decay(), np.array([1.0]), zero_input, 1.0, 0.01)
    assert rec.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-8)


def test_rk4_order():
    exact = np.exp(-1.0)
    errs = []
    for dt in (0.1, 0.05):
        rec = integrate(scalar_decay(), np.array([1.0]), zero_input, 1.0, dt)
        errs.append(abs(rec.states[-1, 0] - exact))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_integrate_is_textbook_rk4_bit_for_bit():
    _, true = make_benchmark_3d()
    pol = PiecewiseLinearInput(np.array([0.0, 1.0]), np.array([[0.2, -0.3], [0.1, 0.4]]))
    dt = 0.01
    rec = integrate(true, np.array([0.1, 0.2, -0.1]), pol, 1.0, dt)

    def f(x, t):
        return plant_field(true, x, pol(x, t))

    x = rec.states[0]
    for k in range(len(rec.times) - 1):
        t = rec.times[k]
        k1 = f(x, t)
        k2 = f(x + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = f(x + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = f(x + dt * k3, t + dt)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        np.testing.assert_array_equal(rec.states[k + 1], x)


def test_integrate_evaluates_uncertainty_once_per_grid_point():
    from dataclasses import replace

    _, true = make_benchmark_3d()
    calls = []

    def counted(x, u, f):
        calls.append(1)
        return true.uncertainty(x, u, f)

    pol = PiecewiseLinearInput(np.array([0.0, 1.0]), np.array([[0.2, -0.3], [0.1, 0.4]]))
    dt, n_steps = 0.01, 100
    rec = integrate(replace(true, uncertainty=counted), np.array([0.1, 0.2, -0.1]), pol, 1.0, dt)
    assert len(calls) == 4 * n_steps + 1

    # textbook RK4 that evaluates the full field, uncertainty included, at every stage
    def f(x, t):
        return plant_field(true, x, pol(x, t))

    x = rec.states[0]
    states, zetas = [x], []
    for k in range(n_steps + 1):
        t = rec.times[k]
        u = pol(x, t)
        zetas.append(true.uncertainty(x, u, nominal_field(true, x, u)))
        if k == n_steps:
            break
        k1 = f(x, t)
        k2 = f(x + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = f(x + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = f(x + dt * k3, t + dt)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    assert rec.states.tobytes() == np.array(states).tobytes()
    assert rec.uncertainties.tobytes() == np.array(zetas).tobytes()


def _count_drifts(monkeypatch) -> dict:
    """Count the benchmark plants' drift evaluations at (N, n) state blocks
    (the reference tables that a policy builds are (S, N, n)), by plant."""
    import prcitube.systems as systems

    counts = {"nominal": 0, "true": 0, "vtol": 0}

    def counted(name, drift):
        def f(x):
            counts[name] += np.ndim(x) == 2
            return drift(x)
        return f

    real_field3, real_vtol = systems._field3, systems.vtol_drift
    monkeypatch.setattr(systems, "_field3", lambda *a: counted(
        "nominal" if a[-1] is systems._B3_NOMINAL else "true", real_field3(*a)))
    monkeypatch.setattr(systems, "vtol_drift", counted("vtol", real_vtol))
    return counts


@pytest.mark.parametrize("bench", ["threeD", "vtol"])
def test_one_drift_evaluation_per_plant_and_rk4_stage(bench, monkeypatch, metric3d, metric_vtol):
    """A track block evaluates the nominal drift once per evaluated state,
    grid point or RK4 stage (the feedback, the plant field and the 3D
    uncertainty share it), and the 3D true drift once; so does an open-loop
    block."""
    from prcitube.control import track
    from prcitube.predictor import make_zero_predictor
    from prcitube.systems import replay

    counts = _count_drifts(monkeypatch)
    if bench == "threeD":
        nom, true = make_benchmark_3d()
        metric, u0, names = metric3d, np.zeros(2), ("nominal", "true")
    else:
        true = make_benchmark_vtol()
        nom, metric, names = true.nominal, metric_vtol, ("vtol",)
        u0 = np.full(2, VTOL_MASS * VTOL_GRAVITY / 2)
    rng = np.random.default_rng(5)
    T, dt, n_steps = 0.3, 0.01, 30
    signals = [PiecewiseLinearInput(np.array([0.0, T]), u0 + rng.uniform(-0.1, 0.1, (2, 2)))
               for _ in range(3)]
    starts = rng.uniform(-0.05, 0.05, (3, nom.state_dim))
    refs = replay(nom, starts, signals, T, dt)
    each_stage = {name: 4 * n_steps + 1 for name in names}

    counts.update(dict.fromkeys(counts, 0))
    track(true, metric, make_zero_predictor(nom.state_dim, 2), refs, starts + 0.01)
    assert {name: counts[name] for name in names} == each_stage

    counts.update(dict.fromkeys(counts, 0))
    replay(true, starts, signals, T, dt)
    assert {name: counts[name] for name in names} == each_stage


@pytest.mark.parametrize("bench", ["threeD", "vtol"])
def test_rows_differing_in_the_sign_of_a_zero_keep_their_own_bits(bench, metric3d, metric_vtol):
    """-0.0 == 0.0, but tanh and sin keep the sign of a zero: in a replay
    block and in a track block, a row starting at +0.0 and one at -0.0 each
    equal their one-row run bit for bit."""
    from prcitube.control import track
    from prcitube.predictor import make_zero_predictor
    from prcitube.systems import replay

    if bench == "threeD":
        nom, true = make_benchmark_3d()
        metric, u0 = metric3d, np.zeros(2)
    else:
        true = make_benchmark_vtol()
        nom, metric = true.nominal, metric_vtol
        u0 = np.full(2, VTOL_MASS * VTOL_GRAVITY / 2)
    T, dt, n = 0.2, 0.01, nom.state_dim
    starts = np.array([np.zeros(n), np.full(n, -0.0)])
    signals = [PiecewiseLinearInput(np.array([0.0, T]), np.tile(u0, (2, 1)))] * 2
    refs = replay(nom, starts, signals, T, dt)
    predictor = make_zero_predictor(n, 2)

    def replay_rows(rows):
        return replay(true, starts[rows], [signals[i] for i in rows], T, dt)

    def track_rows(rows):
        return track(true, metric, predictor, [refs[i] for i in rows], starts[rows])

    for run in (replay_rows, track_rows):
        block = run([0, 1])
        assert block[0].states.tobytes() != block[1].states.tobytes()
        for i in (0, 1):
            (solo,) = run([i])
            for name in ("states", "inputs", "uncertainties"):
                assert getattr(block[i], name).tobytes() == getattr(solo, name).tobytes(), name


def test_integrate_determinism():
    _, true = make_benchmark_3d()
    pol = PiecewiseLinearInput(np.array([0.0, 1.0]), np.array([[0.2, -0.3], [0.1, 0.4]]))
    a = integrate(true, np.array([0.1, 0.2, -0.1]), pol, 1.0, 0.01)
    b = integrate(true, np.array([0.1, 0.2, -0.1]), pol, 1.0, 0.01)
    assert a.states.tobytes() == b.states.tobytes()
    assert a.inputs.tobytes() == b.inputs.tobytes()
    assert a.uncertainties.tobytes() == b.uncertainties.tobytes()


def test_integrate_nonfinite_reports_time():
    sys = DynamicalSystem(
        1,
        1,
        drift=lambda x: x**2,
        actuation=lambda x: np.zeros((1, 1)),
        state_box=np.array([[-100.0, 100.0]]),
        input_box=np.array([[-1.0, 1.0]]),
    )
    with pytest.raises(NonFiniteState) as err:
        integrate(sys, np.array([2.0]), zero_input, 2.0, 0.01)
    assert 0.0 < err.value.time <= 2.0


def test_integrate_fills_uncertainties_at_grid():
    _, true = make_benchmark_3d()
    pol = PiecewiseLinearInput(np.array([0.0, 1.0]), np.array([[0.2, 0.0], [0.0, 0.1]]))
    rec = integrate(true, np.array([0.2, 0.1, 0.0]), pol, 0.5, 0.01)
    for k in (0, 17, 50):
        np.testing.assert_allclose(
            rec.uncertainties[k],
            true.uncertainty(rec.states[k], rec.inputs[k],
                             nominal_field(true, rec.states[k], rec.inputs[k])),
            atol=1e-14,
        )


def test_left_state_box_flag():
    sys = scalar_decay()
    rec = integrate(sys, np.array([1.0]), zero_input, 0.5, 0.01)
    assert not rec.left_state_box
    grow = DynamicalSystem(
        1,
        1,
        drift=lambda x: x,
        actuation=lambda x: np.zeros((1, 1)),
        state_box=np.array([[-2.0, 2.0]]),
        input_box=np.array([[-1.0, 1.0]]),
    )
    rec = integrate(grow, np.array([1.0]), zero_input, 1.0, 0.01)
    assert rec.left_state_box


# ---------------------------------------------------------------------------
# TrajectoryRecord
# ---------------------------------------------------------------------------

def test_record_validation():
    t = np.array([0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        TrajectoryRecord(t, np.zeros((2, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([0.0, 0.1, 0.35]), np.zeros((3, 1)), np.zeros((3, 1)))


def _savetxt(table) -> str:
    buf = io.StringIO()
    np.savetxt(buf, table, fmt="%.17g", delimiter=",")
    return buf.getvalue()


EDGE_ROWS = np.array([
    [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
    [1.0, -3.0, 2.0 ** 60, 1e-300, 0.1],
    [np.pi, 1.0 / 3.0, -2.5e-8, 123456789.0, 7.0],
])


@pytest.mark.parametrize("table", [EDGE_ROWS, EDGE_ROWS[:1], EDGE_ROWS[:, :1]],
                         ids=["rows", "one_row", "one_column"])
def test_csv_rows_is_the_savetxt_text(table):
    assert csv_rows(table) == _savetxt(table)


def test_record_csv_is_the_savetxt_text():
    times = np.array([0.0, 0.5, 1.0])
    rec = TrajectoryRecord(times, EDGE_ROWS[:, :3], EDGE_ROWS[:, 3:], EDGE_ROWS[:, 2:])
    table = np.hstack([times[:, None], rec.states, rec.inputs, rec.uncertainties])
    assert rec.to_csv() == rec.csv_header() + "\n" + _savetxt(table)
    one = TrajectoryRecord(times[:1], EDGE_ROWS[:1, :3], EDGE_ROWS[:1, 3:])
    assert one.to_csv() == one.csv_header() + "\n" + _savetxt(np.hstack([[[0.0]], one.states, one.inputs]))


def test_record_csv_roundtrip(tmp_path):
    _, true = make_benchmark_3d()
    pol = PiecewiseLinearInput(np.array([0.0, 1.0]), np.array([[0.3, -0.2], [0.0, 0.1]]))
    rec = integrate(true, np.array([0.4, -0.2, 0.3]), pol, 0.3, 0.01)
    path = tmp_path / "rec.csv"
    rec.save_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x_1,x_2,x_3,u_1,u_2,zeta_1,zeta_2,zeta_3"
    back = TrajectoryRecord.load_csv(path)
    np.testing.assert_array_equal(back.states, rec.states)
    np.testing.assert_array_equal(back.inputs, rec.inputs)
    np.testing.assert_array_equal(back.uncertainties, rec.uncertainties)


def test_record_envelope(tmp_path):
    rec = integrate(scalar_decay(), np.array([1.0]), zero_input, 1.0, 0.1)
    env = rec.envelope("scalar")
    assert env["state_dim"] == 1 and env["input_dim"] == 1
    assert env["dt_s"] == pytest.approx(0.1)
    assert env["horizon_s"] == pytest.approx(1.0)
    assert env["benchmark"] == "scalar"
    write_json(tmp_path / "rec.json", env)
    assert read_json(tmp_path / "rec.json") == env


def test_record_interpolation():
    rec = integrate(scalar_decay(), np.array([1.0]), zero_input, 1.0, 0.1)
    mid = rec.state_at(0.05)
    assert mid[0] == pytest.approx(0.5 * (rec.states[0, 0] + rec.states[1, 0]))
    with pytest.raises(ValueError):
        rec.state_at(2.0)


def test_piecewise_linear_input():
    pol = PiecewiseLinearInput(np.array([0.0, 1.0, 2.0]), np.array([[0.0], [1.0], [0.0]]))
    assert pol(None, 0.5)[0] == pytest.approx(0.5)
    assert pol(None, 1.5)[0] == pytest.approx(0.5)
    assert pol(None, 5.0)[0] == pytest.approx(0.0)   # held beyond last knot

"""Rollouts and FD Jacobians taken as one (N, n) block.

Closed loop: the block is checked against the frozen per-rollout path in
``scalar_oracle.py`` (bit for bit on VTOL; to a relative 1e-12 on 3D, whose
one-state plant squares scalars with libm ``pow`` where rows use the array
square), against its own one-row calls (bit for bit on both), and layer by
layer.  Open loop: dataset and sampler blocks are checked against
one-state ``integrate`` runs, and ``jacobian_fd`` rows against one-state
Jacobians, with the same tolerances.
"""

import logging
from types import SimpleNamespace

import numpy as np
import pytest

import scalar_oracle as oracle
from prcitube import harness
from prcitube.control import feedback_terms, min_norm_feedback, residual_norms, track
from prcitube.errors import DegenerateConstraint, DimensionMismatch
from prcitube.metric import ContractionMetric, jacobian_fd
from prcitube.predictor import (
    TrainConfig,
    generate_perturbed_dataset,
    generate_reference_dataset,
    make_zero_predictor,
    train,
)
from prcitube.systems import (
    VTOL_GRAVITY,
    VTOL_MASS,
    DynamicalSystem,
    PiecewiseLinearInput,
    integrate,
    matvec,
)

FAMILIES = {"mlp": TrainConfig(epochs=5, hidden=(8, 8)), "linear_features": TrainConfig(degree=2)}
FIELDS = ("times", "states", "inputs", "uncertainties")


def _reference_set(sys_nom, rng, count, T, x_half, u_center, u_half):
    starts = rng.uniform(-x_half, x_half, (count, sys_nom.state_dim))
    knots = np.linspace(0.0, T, 3)
    policies = [
        PiecewiseLinearInput(knots, u_center + rng.uniform(-u_half, u_half, (3, sys_nom.input_dim)))
        for _ in range(count)
    ]
    return generate_reference_dataset(sys_nom, starts, policies, T, 0.01)


@pytest.fixture(scope="module", params=["threeD", "vtol"])
def case(request, bench3d, metric3d, vtol, metric_vtol):
    """Plant, metric, four references with offset starts, and one trained
    predictor per family; ``exact`` says whether the oracle matches bit for
    bit."""
    rng = np.random.default_rng(23)
    if request.param == "threeD":
        nom, true = bench3d
        metric, plant, exact, T = metric3d, oracle.plant_3d(), False, 1.5
        x_half, u_center, u_half, offset = 0.5, np.zeros(2), 0.3, 0.05
    else:
        true = vtol
        nom = vtol.nominal
        metric, plant, exact, T = metric_vtol, oracle.plant_vtol(), True, 1.0
        x_half = np.array([0.3, 0.3, 0.05, 0.1, 0.1, 0.05])
        u_center, u_half, offset = np.full(2, VTOL_MASS * VTOL_GRAVITY / 2.0), 0.05, 0.01
    refs = _reference_set(nom, rng, 10, T, x_half, u_center, u_half)
    train_ds = generate_perturbed_dataset(
        true, type(refs)(refs.entries[:6], "ref"), "open_loop_reference", "train"
    )
    predictors = {family: train(train_ds, family, cfg) for family, cfg in FAMILIES.items()}
    tracked = [e.record for e in refs.entries[6:]]
    starts = [r.states[0] + rng.uniform(-offset, offset, r.state_dim) for r in tracked]
    return SimpleNamespace(true=true, nom=nom, metric=metric, plant=plant, exact=exact,
                           refs=tracked, starts=starts, predictors=predictors)


def _assert_match(got, want, exact):
    if exact:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("family", FAMILIES)
def test_block_track_matches_scalar_oracle(case, family):
    p = case.predictors[family]
    block = track(case.true, case.metric, p, case.refs, case.starts)
    assert len(block) == len(case.refs)
    for ref, x0, rec in zip(case.refs, case.starts, block):
        want = oracle.track(case.plant, case.metric, p, ref, x0)
        for name in FIELDS:
            _assert_match(getattr(rec, name), getattr(want, name), case.exact)
        _assert_match(
            residual_norms(case.true, p, rec), oracle.residual_norms(case.plant, p, want), case.exact
        )


def test_block_rows_equal_one_row_calls(case):
    p = case.predictors["mlp"]
    block = track(case.true, case.metric, p, case.refs, case.starts)
    for ref, x0, rec in zip(case.refs, case.starts, block):
        (solo,) = track(case.true, case.metric, p, [ref], [x0])
        for name in FIELDS:
            assert getattr(rec, name).tobytes() == getattr(solo, name).tobytes(), name


class _PoisonRow:
    """The real predictor, except that one row's prediction turns infinite
    after a number of calls, so that row diverges mid-rollout."""

    def __init__(self, predictor, row, after):
        self.predictor, self.row, self.after, self.calls = predictor, row, after, 0

    def predict(self, x, u):
        out = self.predictor.predict(x, u)
        self.calls += 1
        if self.calls > self.after:
            out[self.row] = np.inf
        return out


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")   # the poisoned row's inf
def test_diverged_row_is_none_and_other_rows_are_untouched(case, caplog):
    p = case.predictors["linear_features"]
    poisoned = _PoisonRow(p, row=1, after=40)
    with caplog.at_level(logging.WARNING, logger="prcitube.systems"):
        block = track(case.true, case.metric, poisoned, case.refs, case.starts)
    assert block[1] is None
    assert "rollout 1 of 4 diverged" in caplog.text
    for i in (0, 2, 3):
        (solo,) = track(case.true, case.metric, p, [case.refs[i]], [case.starts[i]])
        for name in FIELDS:
            assert getattr(block[i], name).tobytes() == getattr(solo, name).tobytes(), name


def test_nonfinite_start_row_is_none(case):
    starts = list(case.starts)
    starts[2] = np.full(case.true.state_dim, np.nan)
    block = track(case.true, case.metric, None, case.refs, starts)
    assert block[2] is None and all(r is not None for i, r in enumerate(block) if i != 2)


def test_track_rejects_references_on_different_grids(case):
    short = integrate(case.nom, case.refs[0].states[0], lambda x, t: case.refs[0].inputs[0],
                      0.5, 0.01)
    with pytest.raises(ValueError, match="time grid"):
        track(case.true, case.metric, None, [case.refs[0], short], case.starts[:2])
    assert track(case.true, case.metric, None, [], []) == []


def test_open_loop_block_freezes_a_blowup_row():
    sys = DynamicalSystem(
        1, 1,
        drift=lambda x: x ** 2,
        actuation=lambda x: np.zeros((1, 1)),
        state_box=np.array([[-100.0, 100.0]]),
        input_box=np.array([[-1.0, 1.0]]),
    )
    zero = PiecewiseLinearInput(np.array([0.0, 1.0]), np.zeros((2, 1)))
    block = integrate(sys, np.array([[0.1], [2.0], [-0.5]]), zero, 2.0, 0.01)
    assert block[1] is None
    for i, x0 in ((0, 0.1), (2, -0.5)):
        solo = integrate(sys, np.array([x0]), zero, 2.0, 0.01)
        assert block[i].states.tobytes() == solo.states.tobytes()
        assert block[i].inputs.tobytes() == solo.inputs.tobytes()


def test_predictor_rows_equal_one_row_calls(case):
    rng = np.random.default_rng(3)
    X = np.vstack([r.states for r in case.refs])
    U = np.vstack([r.inputs for r in case.refs]) + rng.normal(scale=0.1, size=(len(X), 2))
    n = case.true.state_dim
    for p in [*case.predictors.values(), make_zero_predictor(n, 2)]:
        rows = p.predict(X, U)
        assert rows.tobytes() == np.array([p.predict(x, u) for x, u in zip(X, U)]).tobytes()
        assert rows.tobytes() == p.predict_batch(X, U).tobytes()
        assert p.predict(X.reshape(4, -1, n), U.reshape(4, -1, 2)).shape == (4, len(X) // 4, n)
    with pytest.raises(DimensionMismatch):
        p.predict(X[:3], U[:2])


# ---------------------------------------------------------------------------
# Layers: 1,000 random rows, some with x == x_ref
# ---------------------------------------------------------------------------

@pytest.fixture(params=["threeD", "vtol"])
def rows(request, bench3d, metric3d, vtol, metric_vtol):
    if request.param == "threeD":
        nom, true = bench3d
        metric = metric3d
    else:
        nom, true, metric = vtol.nominal, vtol, metric_vtol
    rng = np.random.default_rng(11)
    N = 1000
    sbox, ibox = true.state_box, true.input_box
    X = rng.uniform(sbox[:, 0], sbox[:, 1], (N, true.state_dim))
    U = rng.uniform(ibox[:, 0], ibox[:, 1], (N, true.input_dim))
    X_ref = X + rng.normal(scale=0.1, size=X.shape)
    X_ref[::10] = X[::10]
    return SimpleNamespace(name=request.param, nom=nom, true=true, metric=metric,
                           X=X, U=U, X_ref=X_ref)


def _one_row_calls(fn, *blocks):
    return np.array([fn(*(b[i : i + 1] for b in blocks))[0] for i in range(len(blocks[0]))])


def test_plant_rows_equal_one_row_calls(rows):
    sys, X, U = rows.true, rows.X, rows.U
    for fn, args in (
        (sys.drift, (X,)),
        (sys.uncertainty, (X, U)),
        (sys.dynamics, (X, U)),
        (lambda x: np.broadcast_to(sys.actuation(x), x.shape[:-1] + (sys.state_dim, 2)), (X,)),
    ):
        block = fn(*args)
        assert block.tobytes() == _one_row_calls(fn, *args).tobytes()
        one_state = np.array([fn(*(a[i] for a in args)) for i in range(len(X))])
        if rows.name == "vtol":
            assert block.tobytes() == one_state.tobytes()
        else:   # one-state squares round as libm pow, off by an ulp at most
            np.testing.assert_allclose(block, one_state, rtol=0, atol=1e-13 * np.max(np.abs(block)))


def test_min_norm_feedback_rows_equal_one_row_calls(rows):
    args = (rows.X, rows.X_ref, rows.U)
    kappa = min_norm_feedback(rows.metric, rows.nom, *args)
    assert kappa.shape == rows.U.shape
    assert kappa.tobytes() == _one_row_calls(
        lambda *b: min_norm_feedback(rows.metric, rows.nom, *b), *args
    ).tobytes()
    terms = feedback_terms(rows.metric, rows.nom, *args)
    assert np.all(terms.b[::10] <= 0.0) and np.all(kappa[::10] == 0.0)
    assert np.any(terms.b > 0.0)
    if rows.name == "vtol":
        one_state = np.array([
            min_norm_feedback(rows.metric, rows.nom, *(a[i] for a in args)) for i in range(1000)
        ])
        assert kappa.tobytes() == one_state.tobytes()


def test_degenerate_row_raises_for_the_whole_block():
    sys = DynamicalSystem(
        2, 1,
        drift=lambda x: np.zeros_like(x),
        actuation=lambda x: np.array([[1.0], [0.0]]),
        state_box=np.array([[-5.0, 5.0]] * 2),
        input_box=np.array([[-5.0, 5.0]]),
    )
    metric = ContractionMetric.constant(np.eye(2), rate=1.0)
    X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])   # active, zero, uncontrollable
    zeros = np.zeros((3, 2))
    kappa = min_norm_feedback(metric, sys, X[:2], zeros[:2], np.zeros((2, 1)))
    np.testing.assert_allclose(kappa, [[-1.0], [0.0]], rtol=1e-12)
    with pytest.raises(DegenerateConstraint):
        min_norm_feedback(metric, sys, X, zeros, np.zeros((3, 1)))


def test_state_dependent_metric_feedback_takes_one_geodesic_per_row(poly_metric_2d):
    sys = DynamicalSystem(
        2, 1,
        drift=lambda x: -0.2 * x,
        actuation=lambda x: np.array([[0.0], [1.0]]),
        state_box=np.array([[-3.0, 3.0]] * 2),
        input_box=np.array([[-5.0, 5.0]]),
    )
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.5, 1.5, (12, 2))
    X_ref = X + rng.normal(scale=0.3, size=X.shape)
    X_ref[::4] = X[::4]
    U_ref = rng.uniform(-1.0, 1.0, (12, 1))
    block = feedback_terms(poly_metric_2d, sys, X, X_ref, U_ref)
    for i in range(12):
        one = feedback_terms(poly_metric_2d, sys, X[i], X_ref[i], U_ref[i])
        assert block.a[i].tobytes() == one.a.tobytes()
        assert (block.b[i], block.energy[i], block.a_scale[i]) == (one.b, one.energy, one.a_scale)


# ---------------------------------------------------------------------------
# Open loop and FD Jacobians
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["threeD", "vtol"])
def open_loop(request, bench3d, vtol):
    """Reference and training datasets, each made by one block call, with
    the starts and signals they came from."""
    rng = np.random.default_rng(8)
    if request.param == "threeD":
        nom, true = bench3d
        x_half, u_center, u_half = 0.8, np.zeros(2), 0.4
    else:
        nom, true = vtol.nominal, vtol
        x_half = np.array([0.3, 0.3, 0.05, 0.1, 0.1, 0.05])
        u_center, u_half = np.full(2, VTOL_MASS * VTOL_GRAVITY / 2.0), 0.05
    refs = _reference_set(nom, rng, 8, 1.0, x_half, u_center, u_half)
    train_ds = generate_perturbed_dataset(true, refs, "open_loop_reference", "train")
    return SimpleNamespace(name=request.param, nom=nom, true=true, refs=refs, train=train_ds)


def _assert_rows(got, want, exact):
    if exact:
        assert got.tobytes() == want.tobytes()
    else:   # one-state 3D squares round as libm pow
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_open_loop_block_rows_equal_one_state_integrate(open_loop):
    exact = open_loop.name == "vtol"
    assert len(open_loop.refs) == len(open_loop.train) == 8
    for ref, rec in zip(open_loop.refs.entries, open_loop.train.entries):
        assert ref.entry_id == rec.entry_id
        x0, T, dt = ref.record.states[0], ref.record.horizon, ref.record.dt
        for got, plant in ((ref.record, open_loop.nom), (rec.record, open_loop.true)):
            want = integrate(plant, x0, ref.policy, T, dt)
            for name in FIELDS:
                if getattr(want, name) is not None:
                    _assert_rows(getattr(got, name), getattr(want, name), exact)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_diverged_open_loop_row_is_skipped_by_id(caplog):
    def plant(zeta):
        return DynamicalSystem(
            1, 1, drift=lambda x: -x, actuation=lambda x: np.ones((1, 1)),
            state_box=np.array([[-100.0, 100.0]]), input_box=np.array([[-1.0, 1.0]]),
            uncertainty=zeta,
        )

    nom = plant(None)
    true = plant(lambda x, u: x ** 2 + x)          # the true plant is xdot = x^2 + u
    signal = PiecewiseLinearInput(np.array([0.0, 1.0]), np.zeros((2, 1)))
    refs = generate_reference_dataset(nom, np.array([[0.1], [2.0], [-0.5]]), [signal] * 3, 2.0, 0.01)
    assert refs.ids() == ["ref-0000", "ref-0001", "ref-0002"]
    with caplog.at_level(logging.WARNING, logger="prcitube"):
        ds = generate_perturbed_dataset(true, refs, "open_loop_reference", "train")
    assert ds.ids() == ["ref-0000", "ref-0002"]
    assert "skipping ref-0001" in caplog.text
    for e in ds.entries:
        solo = integrate(true, e.reference.states[0], signal, 2.0, 0.01)
        for name in FIELDS:
            assert getattr(e.record, name).tobytes() == getattr(solo, name).tobytes(), name


def test_stack_refuses_signals_on_different_knots():
    a = PiecewiseLinearInput(np.array([0.0, 1.0]), np.zeros((2, 2)))
    b = PiecewiseLinearInput(np.array([0.0, 0.5, 1.0]), np.ones((3, 2)))
    with pytest.raises(ValueError, match="knot times"):
        PiecewiseLinearInput.stack([a, b])
    both = PiecewiseLinearInput.stack([a, PiecewiseLinearInput(a.knot_times, np.ones((2, 2)))])
    assert both.knot_values.shape == (2, 2, 2)
    assert both(np.zeros((2, 3)), 0.25).tolist() == [[0.0, 0.0], [1.0, 1.0]]


def test_waypoint_pd_block_equals_one_state_flights(vtol):
    config = harness.ExperimentConfig(
        benchmark="vtol", seed=4, horizon_s=1.0, reference_sampler="waypoint_pd",
        waypoint_box=[-1.0, 1.0, -0.6, 0.6],
    )
    nom = vtol.nominal
    signals = harness.sample_reference_policies(config, nom, "ref", 5)
    wbox = np.array([[-1.0, 1.0], [-0.6, 0.6]])
    for i, signal in enumerate(signals):
        target = harness.rng_stream(config.seed, f"ref-policy-{i}").uniform(wbox[:, 0], wbox[:, 1])
        x0 = harness.sample_initial_condition(config, "ref", i)
        want = integrate(nom, x0, oracle.waypoint_pd_policy(target, nom.input_box), 1.0, config.dt_s)
        assert signal.knot_times.tobytes() == want.times.tobytes()
        assert signal.knot_values.tobytes() == want.inputs.tobytes()


def test_jacobian_fd_rows_equal_one_state_jacobians(rows):
    sys, X, U = rows.nom, rows.X[:200], rows.U[:200]
    n = sys.state_dim
    drift = jacobian_fd(sys.drift, X)
    assert drift.shape == (len(X), n, n)
    assert drift.tobytes() == _one_row_calls(lambda x: jacobian_fd(sys.drift, x), X).tobytes()
    # the planner's field, one input per row
    field = jacobian_fd(lambda z: sys.drift(z) + matvec(sys.actuation(z), U), X)
    for block, one_state in (
        (drift, [jacobian_fd(sys.drift, x) for x in X]),
        (field, [jacobian_fd(lambda z: sys.drift(z) + sys.actuation(z) @ u, x)
                 for x, u in zip(X, U)]),
    ):
        one_state = np.array(one_state)
        if rows.name == "vtol":
            assert block.tobytes() == one_state.tobytes()
        else:   # a last-bit gap in the plant, divided by the FD step
            np.testing.assert_allclose(block, one_state, rtol=0,
                                       atol=1e-9 * np.max(np.abs(one_state)))

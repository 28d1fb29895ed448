"""Rollouts and FD Jacobians taken as one (N, n) block.

Closed loop: the block is checked against the frozen per-rollout path in
``scalar_oracle.py``, against its own one-row calls, and layer by layer.
Open loop: dataset and sampler blocks are checked against one-state
``integrate`` runs, and ``jacobian_fd`` rows against one-state Jacobians.
Every comparison is bit for bit, on both plants.
"""

import logging
from types import SimpleNamespace

import numpy as np
import pytest

import scalar_oracle as oracle
from conftest import nominal_field, plant_field
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
    VTOL_HOVER_THRUST,
    DynamicalSystem,
    PiecewiseLinearInput,
    integrate,
    matvec,
)
from prcitube.tube import (
    INPUT_INFLATION,
    INPUT_MAX_SECTIONS,
    PRCITube,
    sample_metric_ball,
    tighten_input_box,
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
    predictor per family."""
    rng = np.random.default_rng(23)
    if request.param == "threeD":
        nom, true = bench3d
        metric, plant, T = metric3d, oracle.plant_3d(), 1.5
        x_half, u_center, u_half, offset = 0.5, np.zeros(2), 0.3, 0.05
    else:
        true = vtol
        nom = vtol.nominal
        metric, plant, T = metric_vtol, oracle.plant_vtol(), 1.0
        x_half = np.array([0.3, 0.3, 0.05, 0.1, 0.1, 0.05])
        u_center, u_half, offset = np.full(2, VTOL_HOVER_THRUST), 0.05, 0.01
    refs = _reference_set(nom, rng, 10, T, x_half, u_center, u_half)
    train_ds = generate_perturbed_dataset(
        true, type(refs)(refs.entries[:6], "ref"), "open_loop_reference", "train"
    )
    predictors = {family: train(train_ds, family, cfg) for family, cfg in FAMILIES.items()}
    tracked = [e.record for e in refs.entries[6:]]
    starts = [r.states[0] + rng.uniform(-offset, offset, r.state_dim) for r in tracked]
    return SimpleNamespace(true=true, nom=nom, metric=metric, plant=plant,
                           refs=tracked, starts=starts, predictors=predictors)


@pytest.mark.parametrize("family", FAMILIES)
def test_block_track_matches_scalar_oracle(case, family):
    p = case.predictors[family]
    block = track(case.true, case.metric, p, case.refs, case.starts)
    assert len(block) == len(case.refs)
    for ref, x0, rec in zip(case.refs, case.starts, block):
        want = oracle.track(case.plant, case.metric, p, ref, x0)
        for name in FIELDS:
            assert getattr(rec, name).tobytes() == getattr(want, name).tobytes(), name
        # the library reads the stored uncertainty and the oracle re-evaluates
        # the plant, so equal traces mean the rollout stored the model's zeta
        got = residual_norms(case.nom, p, rec)
        assert got.tobytes() == oracle.residual_norms(case.plant, p, want).tobytes()


def test_block_rows_equal_one_row_calls(case):
    p = case.predictors["mlp"]
    block = track(case.true, case.metric, p, case.refs, case.starts)
    for ref, x0, rec in zip(case.refs, case.starts, block):
        (solo,) = track(case.true, case.metric, p, [ref], [x0])
        for name in FIELDS:
            assert getattr(rec, name).tobytes() == getattr(solo, name).tobytes(), name


def test_tabulated_reference_side_equals_the_interpolating_path(case, monkeypatch):
    """At every stage time a block rollout asks for, the policy's tabulated
    x_ref, u_ref and feedback equal the interpolation at that time and the
    feedback that computes its own reference side, bit for bit; every
    evaluation finds its time in a table."""
    import prcitube.control as control

    seen, tables = [], []
    policy_cls = control.ContractingPolicy
    real_compute, real_side = policy_cls._compute, policy_cls.reference_side
    real_feedback = control.min_norm_feedback

    def compute(self, x, t, u_minus, fx):
        seen.append([self, t])
        return real_compute(self, x, t, u_minus, fx)

    def side(self, times):
        tables.append(len(times))
        return real_side(self, times)

    def feedback(metric, sys_nominal, x, x_ref, u_ref, v_ref=None, fx=None):
        kappa = real_feedback(metric, sys_nominal, x, x_ref, u_ref, v_ref, fx)
        seen[-1] += [x, x_ref, u_ref, kappa]
        return kappa

    monkeypatch.setattr(policy_cls, "_compute", compute)
    monkeypatch.setattr(policy_cls, "reference_side", side)
    monkeypatch.setattr(control, "min_norm_feedback", feedback)
    track(case.true, case.metric, case.predictors["mlp"], case.refs, case.starts)
    n_steps = len(case.refs[0].times) - 1
    assert len(seen) == 4 * n_steps + 1
    assert tables == [min(3 * control.TABLE_STEPS, 3 * (n_steps - k) + 1)
                      for k in range(0, n_steps + 1, control.TABLE_STEPS)]
    for policy, t, x, x_ref, u_ref, kappa in seen:
        want_x = policy._grid.interpolate(policy._ref_states, t)
        want_u = policy._grid.interpolate(policy._ref_inputs, t)
        assert x_ref.tobytes() == want_x.tobytes() and u_ref.tobytes() == want_u.tobytes()
        want = real_feedback(case.metric, case.nom, x, want_x, want_u)
        assert kappa.tobytes() == want.tobytes()


def test_merged_block_equals_separate_track_calls(case):
    """Tracking one reference from two sets of starts as one block gives
    the rows that two separate calls give."""
    p = case.predictors["linear_features"]
    ref = case.refs[0]
    rng = np.random.default_rng(3)
    first = [ref.states[0] + rng.uniform(-0.01, 0.01, ref.state_dim) for _ in range(3)]
    second = [ref.states[0] + rng.uniform(-0.01, 0.01, ref.state_dim) for _ in range(2)]
    merged = track(case.true, case.metric, p, [ref] * 5, first + second)
    apart = (track(case.true, case.metric, p, [ref] * 3, first)
             + track(case.true, case.metric, p, [ref] * 2, second))
    for a, b in zip(merged, apart):
        for name in FIELDS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


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
    block = track(case.true, case.metric, case.predictors["mlp"], case.refs, starts)
    assert block[2] is None and all(r is not None for i, r in enumerate(block) if i != 2)


def test_track_rejects_references_on_different_grids(case):
    short = integrate(case.nom, case.refs[0].states[0], lambda x, t, fx: case.refs[0].inputs[0],
                      0.5, 0.01)
    p = case.predictors["mlp"]
    with pytest.raises(ValueError, match="time grid"):
        track(case.true, case.metric, p, [case.refs[0], short], case.starts[:2])
    assert track(case.true, case.metric, p, [], []) == []


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
    return SimpleNamespace(nom=nom, true=true, metric=metric, X=X, U=U, X_ref=X_ref)


def _one_row_calls(fn, *blocks):
    return np.array([fn(*(b[i : i + 1] for b in blocks))[0] for i in range(len(blocks[0]))])


def test_plant_rows_equal_one_row_calls(rows):
    sys, X, U = rows.true, rows.X, rows.U
    for fn, args in (
        (sys.drift, (X,)),
        (sys.uncertainty, (X, U, sys.drift(X))),
        (lambda x, u: plant_field(sys, x, u), (X, U)),
        (lambda x: np.broadcast_to(sys.actuation(x), x.shape[:-1] + (sys.state_dim, 2)), (X,)),
    ):
        block = fn(*args)
        assert block.tobytes() == _one_row_calls(fn, *args).tobytes()
        one_state = np.array([fn(*(a[i] for a in args)) for i in range(len(X))])
        assert block.tobytes() == one_state.tobytes()


@pytest.mark.parametrize("bench", ["threeD", "vtol"])
def test_one_state_plant_calls_round_as_rows_on_many_states(bench, bench3d, vtol):
    """One-state calls of the plant and of the oracle's plant compute on
    scalars, a block on arrays; a square taken as ``pow`` on a scalar
    differs from the array square in about 0.1% of states, which 1,000
    rows can miss."""
    if bench == "threeD":
        sys, plant = bench3d[1], oracle.plant_3d()
    else:
        sys, plant = vtol, oracle.plant_vtol()
    rng = np.random.default_rng(12)
    box, ibox = sys.state_box, sys.input_box
    X = rng.uniform(box[:, 0], box[:, 1], (20000, sys.state_dim))
    U = rng.uniform(ibox[:, 0], ibox[:, 1], (20000, sys.input_dim))
    fX, F = sys.drift(X), nominal_field(sys, X, U)
    zeta = sys.uncertainty(X, U, F)
    assert fX.tobytes() == np.array([sys.drift(x) for x in X]).tobytes()
    assert fX.tobytes() == np.array([plant.drift(x) for x in X]).tobytes()
    one_state = [sys.uncertainty(x, u, f) for x, u, f in zip(X, U, F)]
    assert zeta.tobytes() == np.array(one_state).tobytes()
    assert zeta.tobytes() == np.array([plant.zeta(x, u) for x, u in zip(X, U)]).tobytes()


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
    # the drift that integrate passes in gives the bits the feedback computes itself
    fx = rows.nom.drift(rows.X)
    assert min_norm_feedback(rows.metric, rows.nom, *args, fx=fx).tobytes() == kappa.tobytes()
    given = feedback_terms(rows.metric, rows.nom, *args, fx=fx)
    assert [np.asarray(v).tobytes() for v in given] == [np.asarray(v).tobytes() for v in terms]
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


@pytest.mark.parametrize("bench", ["threeD", "vtol"])
def test_input_tightening_equals_a_per_sample_loop(bench, bench3d, metric3d, vtol, metric_vtol,
                                                   monkeypatch):
    """One feedback block per cross-section gives the margins, bit for bit,
    of one ``min_norm_feedback`` call per sampled state on the same stream."""
    import prcitube.tube as tube_mod

    if bench == "threeD":
        nom, metric, radii = bench3d[0], metric3d, (0.05, 2.0)
        x_half, u_center, u_half = 0.5, np.zeros(2), 0.3
    else:
        nom, metric, radii = vtol.nominal, metric_vtol, (0.01, 0.5)
        x_half = np.array([0.3, 0.3, 0.05, 0.1, 0.1, 0.05])
        u_center, u_half = np.full(2, VTOL_HOVER_THRUST), 0.05
    rng = np.random.default_rng(6)
    refs = _reference_set(nom, rng, 10, 1.0, x_half, u_center, u_half)
    calls = []
    monkeypatch.setattr(tube_mod, "min_norm_feedback",
                        lambda *a: calls.append(a[2].shape) or min_norm_feedback(*a))
    budget = 16
    for seed, (entry, radius) in enumerate(zip(refs.entries, rng.uniform(*radii, len(refs)))):
        ref = entry.record
        calls.clear()
        got = tighten_input_box(nom.input_box, PRCITube(ref, metric, radius, 0.1), metric, nom,
                                budget=budget, seed=seed)
        stride = max(1, len(ref.times) // INPUT_MAX_SECTIONS)
        sections = range(0, len(ref.times), stride)
        assert calls == [(budget, nom.state_dim)] * len(sections)
        margins = np.zeros(nom.input_dim)
        stream = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        for k in sections:
            for xi in sample_metric_ball(metric, ref.states[k], radius, budget, stream):
                kappa = min_norm_feedback(metric, nom, xi, ref.states[k], ref.inputs[k])
                margins = np.maximum(margins, np.abs(kappa))
        assert np.all(margins > 0.0)
        assert got.margins.tobytes() == (margins * (1.0 + INPUT_INFLATION)).tobytes()


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
        u_center, u_half = np.full(2, VTOL_HOVER_THRUST), 0.05
    refs = _reference_set(nom, rng, 8, 1.0, x_half, u_center, u_half)
    train_ds = generate_perturbed_dataset(true, refs, "open_loop_reference", "train")
    return SimpleNamespace(nom=nom, true=true, refs=refs, train=train_ds)


def test_open_loop_block_rows_equal_one_state_integrate(open_loop):
    assert len(open_loop.refs) == len(open_loop.train) == 8
    for ref, rec in zip(open_loop.refs.entries, open_loop.train.entries):
        assert ref.entry_id == rec.entry_id
        x0, T, dt = ref.record.states[0], ref.record.horizon, ref.record.dt
        for got, plant in ((ref.record, open_loop.nom), (rec.record, open_loop.true)):
            want = integrate(plant, x0, ref.policy, T, dt)
            for name in FIELDS:
                if getattr(want, name) is not None:
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_diverged_open_loop_row_is_skipped_by_id(caplog):
    def plant(zeta):
        return DynamicalSystem(
            1, 1, drift=lambda x: -x, actuation=lambda x: np.ones((1, 1)),
            state_box=np.array([[-100.0, 100.0]]), input_box=np.array([[-1.0, 1.0]]),
            uncertainty=zeta,
        )

    nom = plant(None)
    true = plant(lambda x, u, f: x ** 2 + x)      # the true plant is xdot = x^2 + u
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
        pd_policy = oracle.waypoint_pd_policy(target, nom.input_box)
        want = integrate(nom, x0, lambda x, t, fx: pd_policy(x, t), 1.0, config.dt_s)
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
        assert block.tobytes() == np.array(one_state).tobytes()

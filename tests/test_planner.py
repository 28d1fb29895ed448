from types import SimpleNamespace

import numpy as np
import pytest

import scalar_oracle as oracle
from prcitube.conformal import calibrate
from prcitube.control import track
from prcitube.errors import InfeasiblePlan
from prcitube.planner import (
    ObstacleEllipse,
    PlanProblem,
    PlanResult,
    _Shooting,
    end_to_end_run,
    plan,
)
from prcitube.predictor import make_zero_predictor
from prcitube.systems import DynamicalSystem, PiecewiseLinearInput, integrate, make_benchmark_vtol
from prcitube.systems import VTOL_HOVER_THRUST
from prcitube import metric as metric_mod
from prcitube import planner as planner_mod
from prcitube.tube import PRCITube, project_tube_2d, tighten_state_box


def free_box(n, width=np.inf):
    return np.array([[-width, width]] * n)


def double_integrator():
    return DynamicalSystem(
        2,
        1,
        drift=lambda x: np.stack([x[..., 1], np.zeros_like(x[..., 1])], axis=-1),
        actuation=lambda x: np.array([[0.0], [1.0]]),
        state_box=free_box(2, 50.0),
        input_box=free_box(1, 50.0),
    )


def test_zero_plan_at_equilibrium_goal():
    sys = double_integrator()
    problem = PlanProblem(
        sys=sys,
        T=0.5,
        dt=0.05,
        x0=np.zeros(2),
        goal=np.zeros(2),
        state_box=free_box(2),
        input_box=free_box(1),
        w1=1.0,
        w2=2.0,
    )
    result = plan(problem)
    assert result.cost == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(result.record.inputs, 0.0, atol=1e-12)
    assert result.converged


def test_stalled_line_search_is_not_convergence(monkeypatch):
    problem = PlanProblem(
        sys=double_integrator(),
        T=0.5,
        dt=0.05,
        x0=np.zeros(2),
        goal=np.array([1.0, 0.0]),
        state_box=free_box(2),
        input_box=free_box(1),
    )
    real_objective = _Shooting.objective
    calls = []

    def no_descent(self, U):
        # the initial cost is real; every trial step is rejected
        calls.append(None)
        obj = real_objective(self, U)
        return obj if len(calls) == 1 else obj._replace(cost=np.inf)

    monkeypatch.setattr(_Shooting, "objective", no_descent)
    result = plan(problem, max_iter=50)
    assert not result.converged
    assert len(result.cost_history) == 1


def test_rollout_is_textbook_rk4_bit_for_bit():
    vt = make_benchmark_vtol().nominal
    problem = PlanProblem(
        sys=vt,
        T=0.2,
        dt=0.02,
        x0=np.array([0.1, -0.2, 0.05, 0.3, -0.1, 0.02]),
        goal=np.zeros(6),
        state_box=free_box(6),
        input_box=free_box(2),
    )
    sh = _Shooting(problem)
    rng = np.random.default_rng(2)
    U = VTOL_HOVER_THRUST + 0.1 * rng.normal(size=(sh.n_steps + 1, 2))
    X, S, V = sh._forward(U)
    assert S.shape == (sh.n_steps, 4, 6) and V.shape == (sh.n_steps, 3, 2)

    def F(x, u):
        return vt.drift(x) + vt.actuation(x) @ u

    dt, x = problem.dt, problem.x0
    for k in range(sh.n_steps):
        um = 0.5 * (U[k] + U[k + 1])
        k1 = F(x, U[k])
        x2 = x + 0.5 * dt * k1
        k2 = F(x2, um)
        x3 = x + 0.5 * dt * k2
        k3 = F(x3, um)
        x4 = x + dt * k3
        k4 = F(x4, U[k + 1])
        for got, want in zip(list(S[k]) + list(V[k]), (x, x2, x3, x4, U[k], um, U[k + 1])):
            np.testing.assert_array_equal(got, want)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        np.testing.assert_array_equal(X[k + 1], x)


def test_adjoint_gradient_matches_finite_differences():
    vt = make_benchmark_vtol().nominal
    problem = PlanProblem(
        sys=vt,
        T=0.1,
        dt=0.02,
        x0=np.zeros(6),
        goal=np.array([0.5, 0.2, 0.0, 0.0, 0.0, 0.0]),
        state_box=free_box(6),
        input_box=free_box(2),
        obstacles=(ObstacleEllipse(np.array([2.0, 2.0]), np.diag([1.0, 1.0])),),
        w1=0.3,
        w2=1.5,
    )
    sh = _Shooting(problem)
    rng = np.random.default_rng(0)
    hover = VTOL_HOVER_THRUST
    U = hover + 0.1 * rng.normal(size=(sh.n_steps + 1, 2))
    cost, grad = sh.cost_and_grad(U)
    assert np.isfinite(cost)
    num = np.zeros_like(U)
    h = 1e-6
    for k in range(U.shape[0]):
        for j in range(U.shape[1]):
            up, dn = U.copy(), U.copy()
            up[k, j] += h
            dn[k, j] -= h
            num[k, j] = (sh.cost(up) - sh.cost(dn)) / (2 * h)
    err = np.max(np.abs(grad - num)) / max(np.max(np.abs(num)), 1e-12)
    assert err < 1e-5


def _adjoint_case(name, bench3d):
    """A problem, the oracle's one-state plant and an input sequence."""
    if name == "double_integrator":
        plant = SimpleNamespace(drift=lambda x: np.array([x[1], 0.0]), B=np.array([[0.0], [1.0]]))
        problem = PlanProblem(
            sys=double_integrator(), T=0.3, dt=0.02, x0=np.array([0.2, -0.1]),
            goal=np.array([1.0, 0.0]), state_box=free_box(2, 5.0), input_box=free_box(1, 5.0),
            obstacles=(ObstacleEllipse(np.array([0.5, 1.0]), np.diag([4.0, 4.0])),),
        )
        U = np.random.default_rng(4).normal(size=(16, 1))
        return problem, plant, U
    if name == "vtol":
        hover = VTOL_HOVER_THRUST
        problem = PlanProblem(
            sys=make_benchmark_vtol().nominal, T=0.2, dt=0.02,
            x0=np.array([0.1, -0.2, 0.05, 0.3, -0.1, 0.02]),
            goal=np.array([0.5, 0.2, 0.0, 0.0, 0.0, 0.0]),
            state_box=free_box(6, 20.0), input_box=np.array([[0.0, 4.0 * hover]] * 2),
            obstacles=(ObstacleEllipse(np.array([2.0, 2.0]), np.diag([1.0, 1.0])),),
            w1=0.3, w2=1.5,
        )
        U = hover + 0.1 * np.random.default_rng(0).normal(size=(11, 2))
        return problem, oracle.plant_vtol(), U
    nom, _ = bench3d
    problem = PlanProblem(
        sys=nom, T=0.2, dt=0.02, x0=np.array([0.6, 0.4, 0.24]),
        goal=np.array([-0.5, 0.25, -0.2]), state_box=np.array([[-1.0, 1.0]] * 3),
        input_box=np.array([[-1.2, 1.2]] * 2),
        obstacles=(ObstacleEllipse(np.array([0.0, -0.5]), np.diag([9.0, 9.0])),),
        w1=0.1,
    )
    U = np.random.default_rng(11).uniform(-1.0, 1.0, (11, 2))
    return problem, oracle.plant_3d(), U


@pytest.mark.parametrize("name", ["double_integrator", "vtol", "threeD"])
def test_batched_adjoint_matches_per_step_oracle(name, bench3d, monkeypatch):
    problem, plant, U = _adjoint_case(name, bench3d)
    sh = _Shooting(problem)
    calls = []
    real = metric_mod.jacobian_fd

    def counted(func, x):
        calls.append(np.shape(x))
        return real(func, x)

    monkeypatch.setattr("prcitube.planner.jacobian_fd", counted)
    cost, grad = sh.cost_and_grad(U)
    # one FD call on the block of every step's four stage states
    assert calls == [(4 * sh.n_steps, problem.sys.state_dim)]
    want_cost, want = oracle.cost_and_grad(oracle.Shooting(problem), plant, U)
    assert np.isfinite(cost) and cost == want_cost
    assert grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["double_integrator", "vtol", "threeD"])
def test_plan_matches_frozen_planner_loop_bit_for_bit(name, bench3d, monkeypatch):
    """plan() keeps each accepted trial's forward half for the next gradient
    and for the returned rollout: the same plan as the loop that recomputed
    them, with one forward pass per cost, where that loop also ran one per
    gradient and one for the final rollout."""
    problem, _, U = _adjoint_case(name, bench3d)
    passes = []
    real_forward = _Shooting._forward

    def counted(self, U):
        passes.append(None)
        return real_forward(self, U)

    monkeypatch.setattr(_Shooting, "_forward", counted)
    result = plan(problem, init=U, max_iter=12)
    want_U, history, converged, violations, want_X, sh = oracle.plan(problem, init=U, max_iter=12)
    assert len(history) > 3
    assert result.record.inputs.tobytes() == want_U.tobytes()
    assert result.record.states.tobytes() == want_X.tobytes()
    assert np.array(result.cost_history).tobytes() == np.array(history).tobytes()
    assert result.cost == history[-1]
    assert result.converged == converged
    assert result.violations == violations
    # the oracle: an initial cost, a forward pass per gradient and per
    # line-search trial, and a final rollout; plan(): the first and the trials
    assert len(passes) == sh.forward_passes - sh.gradients - 1


def test_barriers_on_all_nodes_equal_the_node_loop():
    rng = np.random.default_rng(8)
    box = np.array([[-1.0, 1.0], [-np.inf, np.inf], [-0.5, 2.0], [0.0, 3.0]])
    V = rng.uniform(-1.2, 2.2, (400, 4))
    vals, _ = planner_mod._box_barrier(V, box, 1e-3)
    inside = np.isfinite(vals)
    assert 0 < inside.sum() < len(V)
    for v, val in zip(V, vals):
        assert np.isinf(val) == np.isinf(oracle.box_barrier(v, box, 1e-3)[0])
    feasible = V[inside]
    vals, grads = planner_mod._box_barrier(feasible, box, 1e-3)
    for v, val, g in zip(feasible, vals, grads):
        want, want_g = oracle.box_barrier(v, box, 1e-3)
        assert val.tobytes() == np.float64(want).tobytes() and g.tobytes() == want_g.tobytes()

    obstacles = (ObstacleEllipse(np.array([0.5, 1.0]), np.array([[4.0, 0.7], [0.7, 3.0]])),
                 ObstacleEllipse(np.array([-1.0, 0.0]), np.diag([2.0, 9.0]), coords=(1, 2)))
    X = rng.uniform(-3.0, 3.0, (400, 3))
    vals, _ = planner_mod._obstacle_barrier(X, obstacles, 5.0)
    for x, val in zip(X, vals):
        assert np.isinf(val) == np.isinf(oracle.obstacle_barrier(x, obstacles, 5.0)[0])
    clear = X[np.isfinite(vals)]
    vals, grads = planner_mod._obstacle_barrier(clear, obstacles, 5.0)
    for x, val, g in zip(clear, vals, grads):
        want, want_g = oracle.obstacle_barrier(x, obstacles, 5.0)
        assert val.tobytes() == np.float64(want).tobytes() and g.tobytes() == want_g.tobytes()


def test_cost_is_the_forward_half_of_cost_and_grad_bit_for_bit(bench3d):
    nom, _ = bench3d
    problem = PlanProblem(
        sys=nom,
        T=0.1,
        dt=0.02,
        x0=np.array([0.6, 0.4, 0.24]),
        goal=np.array([-0.5, 0.25, -0.2]),
        state_box=np.array([[-1.0, 1.0]] * 3),
        input_box=np.array([[-1.2, 1.2]] * 2),
        obstacles=(ObstacleEllipse(np.array([0.0, -0.5]), np.diag([9.0, 9.0])),),
        w1=0.1,
        w2=1.0,
    )
    sh = _Shooting(problem)
    rng = np.random.default_rng(11)
    for _ in range(60):
        U = rng.uniform(-1.0, 1.0, (sh.n_steps + 1, 2))
        cost = sh.cost(U)
        assert np.isfinite(cost)
        assert cost == sh.cost_and_grad(U)[0]
    U[-1, 0] = 1.5          # the last node leaves the input box
    assert sh.cost(U) == np.inf
    assert sh.cost_and_grad(U)[0] == np.inf


def test_forward_pass_stops_at_a_nan_state(bench3d):
    nom, _ = bench3d
    problem = PlanProblem(
        sys=nom, T=0.1, dt=0.02, x0=np.array([0.6, 0.4, 0.24]), goal=np.zeros(3),
        state_box=np.array([[-1.0, 1.0]] * 3), input_box=np.array([[-1.2, 1.2]] * 2),
        obstacles=(), w1=0.1, w2=1.0,
    )
    sh = _Shooting(problem)
    U = np.zeros((sh.n_steps + 1, 2))
    U[2, 0] = np.nan        # the second step's last stage, so its end state is NaN
    X, _, _ = sh._forward(U)
    assert np.isfinite(X[:2]).all() and np.isnan(X[2:]).all()
    assert sh.cost(U) == np.inf


def test_double_integrator_matches_dense_quadratic_oracle():
    sys = double_integrator()
    w1, w2 = 0.5, 4.0
    T, dt = 1.0, 0.02
    goal = np.array([1.0, 0.0])
    problem = PlanProblem(
        sys=sys,
        T=T,
        dt=dt,
        x0=np.zeros(2),
        goal=goal,
        state_box=free_box(2),
        input_box=free_box(1),
        w1=w1,
        w2=w2,
    )
    result = plan(problem, max_iter=400, tol_rel=1e-12)

    # dense oracle: x_N is affine in U for linear dynamics, so build the map
    # by unit-impulse rollouts and minimize the explicit quadratic.
    sh = _Shooting(problem)
    nU = sh.n_steps + 1
    base = sh.rollout(np.zeros((nU, 1)))[-1]
    G = np.zeros((2, nU))
    for k in range(nU):
        U = np.zeros((nU, 1))
        U[k, 0] = 1.0
        G[:, k] = sh.rollout(U)[-1] - base
    D = np.eye(nU)
    D[-1, -1] = 0.0                      # the last knot carries no running cost
    H = w1 * dt * D + w2 * (G.T @ G)
    rhs = -w2 * G.T @ (base - goal)
    U_star = np.linalg.solve(H, rhs)[:, None]
    oracle_cost = sh.cost(U_star)
    assert result.cost <= oracle_cost * 1.02
    assert result.cost >= oracle_cost * (1 - 1e-6)


def test_plan_reintegrates_to_itself(bench3d):
    nom, _ = bench3d
    problem = PlanProblem(
        sys=nom,
        T=1.0,
        dt=0.01,
        x0=np.array([0.5, 0.0, -0.3]),
        goal=np.array([-0.5, 0.2, 0.3]),
        state_box=free_box(3, 15.0),
        input_box=free_box(2, 1.5),
        w1=0.1,
        w2=1.0,
    )
    result = plan(problem, max_iter=40)
    inputs = PiecewiseLinearInput(result.record.times, result.record.inputs)
    re = integrate(nom, problem.x0, inputs, problem.T, problem.dt)
    assert np.max(np.abs(re.states - result.record.states)) < 1e-10


def test_plan_cost_monotone(bench3d):
    nom, _ = bench3d
    problem = PlanProblem(
        sys=nom,
        T=0.8,
        dt=0.02,
        x0=np.array([0.3, 0.1, 0.0]),
        goal=np.zeros(3),
        state_box=free_box(3, 15.0),
        input_box=free_box(2, 1.5),
        w1=0.2,
        w2=1.0,
    )
    result = plan(problem, max_iter=60)
    diffs = np.diff(result.cost_history)
    assert np.all(diffs <= 1e-12)


def test_tightened_feasibility_implies_original(bench3d, metric3d):
    nom, _ = bench3d
    tightened = tighten_state_box(nom.state_box, 0.8, metric3d)
    assert not tightened.empty
    problem = PlanProblem(
        sys=nom,
        T=0.8,
        dt=0.02,
        x0=np.array([0.4, 0.2, -0.2]),
        goal=np.zeros(3),
        state_box=tightened.box,
        input_box=nom.input_box,
        w1=0.1,
        w2=1.0,
    )
    result = plan(problem, max_iter=40)
    X = result.record.states
    assert np.all(X >= tightened.box[:, 0] - 1e-6) and np.all(X <= tightened.box[:, 1] + 1e-6)
    assert np.all(X >= nom.state_box[:, 0]) and np.all(X <= nom.state_box[:, 1])


def test_infeasible_start_raises():
    sys = double_integrator()
    obstacle = ObstacleEllipse(np.zeros(2), np.diag([1.0, 1.0]))
    problem = PlanProblem(
        sys=sys,
        T=0.5,
        dt=0.05,
        x0=np.array([0.1, 0.0]),      # inside the unit-circle obstacle
        goal=np.array([3.0, 0.0]),
        state_box=free_box(2),
        input_box=free_box(1),
        obstacles=(obstacle,),
    )
    with pytest.raises(InfeasiblePlan):
        plan(problem)
    outside_box = PlanProblem(
        sys=sys,
        T=0.5,
        dt=0.05,
        x0=np.array([9.0, 0.0]),
        goal=np.zeros(2),
        state_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        input_box=free_box(1),
    )
    with pytest.raises(InfeasiblePlan):
        plan(outside_box)


def test_obstacle_inflation_is_sound():
    obs = ObstacleEllipse(np.array([1.0, -1.0]), np.array([[4.0, 0.0], [0.0, 1.0]]))
    inflated = obs.inflate(0.3)
    rng = np.random.default_rng(2)
    # every point within 0.3 of the original ellipse lies inside the inflation
    for _ in range(500):
        z = rng.normal(size=2)
        z /= np.linalg.norm(z)
        r = rng.uniform() ** 0.5
        y = obs.center + np.linalg.inv(np.linalg.cholesky(obs.shape)).T @ (r * z)
        bump = rng.normal(size=2)
        bump = 0.3 * bump / np.linalg.norm(bump) * rng.uniform()
        p = y + bump
        state = np.array([p[0], p[1]])
        assert inflated.clearance(state) <= 1e-9 or obs.clearance(state) > 0


def test_vtol_plan_clears_inflated_obstacles(vtol, metric_vtol):
    nom = vtol.nominal
    k = 151
    ref = np.zeros((k, 6))
    from prcitube.systems import TrajectoryRecord

    rep = PRCITube(
        TrajectoryRecord(np.arange(k) * 0.02, ref, np.zeros((k, 2))),
        metric_vtol,
        1.0,
        0.25,
    )
    unit_extent = project_tube_2d(rep, (0, 1)).max_extent()
    radius = 0.2 / unit_extent          # tube whose planar shadow reaches 0.2 m
    rep = PRCITube(rep.reference, metric_vtol, radius, 0.25)
    extent = project_tube_2d(rep, (0, 1)).max_extent()
    assert extent == pytest.approx(0.2, rel=1e-9)
    # obstacle slightly off the straight path so the barrier gradient can
    # steer around it (dead-center it is a symmetric saddle)
    obstacle = ObstacleEllipse(np.array([0.0, 0.3]), np.diag([1.0 / 0.35**2, 1.0 / 0.35**2]))
    inflated = obstacle.inflate(extent)
    hover = VTOL_HOVER_THRUST
    problem = PlanProblem(
        sys=nom,
        T=3.0,
        dt=0.04,
        x0=np.array([-1.5, 0.0, 0.0, 0.0, 0.0, 0.0]),
        goal=np.array([1.5, 0.0, 0.0, 0.0, 0.0, 0.0]),
        state_box=free_box(6, 20.0),
        input_box=np.array([[0.0, 4.0 * hover]] * 2),
        obstacles=(inflated,),
        w1=0.005,
        w2=1.0,
        goal_weights=np.array([2.0, 2.0, 0.3, 0.3, 0.3, 0.3]),
    )
    warm = np.tile([hover, hover], (int(round(3.0 / 0.04)) + 1, 1))
    result = plan(problem, init=warm, max_iter=250)
    clearances = [inflated.clearance(x) for x in result.record.states]
    assert min(clearances) > 0.0
    # the path rounds the obstacle and makes real progress toward the goal
    assert result.record.states[-1, 0] > 0.5
    # the avoidance was necessary: a straight hover-through plan would hit it
    assert inflated.clearance(np.array([0.0, 0.0, 0, 0, 0, 0])) < 0


def test_end_to_end_nominal_all_margins(bench3d, metric3d):
    nom, _ = bench3d
    problem = PlanProblem(
        sys=nom,
        T=1.0,
        dt=0.01,
        x0=np.array([0.3, 0.0, 0.0]),
        goal=np.zeros(3),
        state_box=nom.state_box,
        input_box=nom.input_box,
        w1=0.1,
        w2=1.0,
    )
    result = plan(problem, max_iter=30)
    cal = calibrate([0.05, 0.07, 0.06, 0.09], 0.25)
    ref = result.record
    # "true" plant without uncertainty; every rollout starts at the reference start
    rollouts = track(nom, metric3d, make_zero_predictor(3, 2), [ref] * 3, [ref.states[0]] * 3)
    report = end_to_end_run(nom, result, metric3d, cal, rollouts)
    assert report["n_rollouts"] == 3 and report["n_start_eligible"] == 3
    assert report["containment_fraction"] == 1.0
    assert report["original_violation_fraction"] == 0.0
    assert report["obstacle_violation_fraction"] == 0.0


def test_diverged_track_counts_as_failure(bench3d, metric3d, monkeypatch):
    import prcitube.control as control

    nom, true = bench3d
    knots = PiecewiseLinearInput(np.array([0.0, 0.5]), np.zeros((2, 2)))
    ref = integrate(nom, np.array([0.3, 0.0, 0.0]), knots, 0.5, 0.01)
    zero = make_zero_predictor(3, 2)
    (roll,) = track(true, metric3d, zero, [ref], [ref.states[0]])
    assert roll.states.shape == ref.states.shape
    # a start beyond the divergence guard diverges at once, without raising
    assert track(true, metric3d, zero, [ref], [np.full(3, np.inf)]) == [None]

    def diverge(sys, x0, policy, T, dt):
        return [None] * len(x0)

    monkeypatch.setattr(control, "integrate", diverge)
    assert track(true, metric3d, zero, [ref], [ref.states[0]]) == [None]
    result = PlanResult(ref, 0.0, (0.0,), True, {})
    rollouts = track(true, metric3d, zero, [ref] * 2, [ref.states[0]] * 2)
    report = end_to_end_run(nom, result, metric3d, calibrate([0.05, 0.07, 0.06], 0.25), rollouts)
    assert report["n_rollouts"] == 2
    assert report["containment_fraction"] == 0.0
    assert report["original_violation_fraction"] == 1.0
    assert report["n_start_eligible"] == 0
    assert [r["sup_distance"] for r in report["rollouts"]] == [np.inf, np.inf]

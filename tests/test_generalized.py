import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from constrained_dynamics import (
    ChartError,
    GeneralizedState,
    IntegratorConfig,
    MassMatrix,
    State,
    catalog_scenario,
    covariance_residual,
    decompose_T,
    integrate_first_kind,
    integrate_second_kind,
    lagrangian_derivative,
    match_trajectories,
    pullback_lagrangian,
    pushforward_state,
)
from constrained_dynamics.generalized import (
    GeneralizedTrajectory,
    _chart_jet,
    _pushforward_jet,
    second_kind_acceleration,
)
from constrained_dynamics.scenarios import (
    circle_embedding,
    rotating_line_embedding,
    sphere_polar_embedding,
)
from oracles import (
    along_velocity,
    lagrangian_derivative_from_pieces,
    match_per_sample,
    random_polynomial_chart,
)


def test_pushforward_circle_bottom():
    emb = circle_embedding(1.0)
    gs = GeneralizedState(0.0, np.array([0.0]), np.array([2.0]))
    s = pushforward_state(emb, gs)
    assert np.abs(s.x - np.array([0.0, -1.0])).max() < 1e-15
    assert np.abs(s.v - np.array([2.0, 0.0])).max() < 1e-15


def test_pushforward_respects_domain():
    emb = sphere_polar_embedding(1.0)
    with pytest.raises(ChartError):
        pushforward_state(emb, GeneralizedState(0.0, np.array([0.0, 0.0]), np.zeros(2)))
    # the error names t and the bound that failed; a NaN y is in no domain
    for y, miss in (
        ([0.01, 0.0], r"y\[0\]=0\.01 < lower bound 0\.02$"),
        ([np.pi, 0.0], r"y\[0\]=3\.14159\d* > upper bound 3\.12159\d*$"),
        ([np.nan, 0.0], r"y\[0\]=nan is not a number$"),
    ):
        with pytest.raises(ChartError, match=r"outside the chart domain at t=0\.7: " + miss):
            pushforward_state(emb, GeneralizedState(0.7, np.array(y), np.zeros(2)))


@pytest.mark.parametrize("given", [("u_tt",), ("u_ty",), ("u_tt", "u_ty")])
def test_chart_without_u_t_refuses_time_maps(given):
    from dataclasses import replace

    maps = {name: (lambda t, y: np.zeros(2)) for name in given}
    with pytest.raises(ValueError, match=" and ".join(given) + " must be None"):
        replace(circle_embedding(1.0), **maps)


def test_decompose_circle():
    # M2 = 1, b = 0, T0 = 0 for the unit circle with unit mass
    emb = circle_embedding(1.0)
    lag = pullback_lagrangian(emb, MassMatrix(np.eye(2)))
    M2, b, T0 = decompose_T(lag, 0.0, np.array([0.7]))
    assert abs(M2[0, 0] - 1.0) < 1e-14
    assert abs(b[0]) < 1e-14
    assert abs(T0) < 1e-14


def test_decompose_sphere_polar():
    # spherical metric: diag(R^2, R^2 sin^2 theta)
    R = 2.0
    emb = sphere_polar_embedding(R)
    lag = pullback_lagrangian(emb, MassMatrix(np.eye(3)))
    th = 1.1
    M2, b, T0 = decompose_T(lag, 0.0, np.array([th, 0.4]))
    expect = np.diag([R * R, R * R * np.sin(th) ** 2])
    assert np.abs(M2 - expect).max() < 1e-12
    assert np.abs(b).max() < 1e-14
    assert abs(T0) < 1e-14


def test_decompose_rotating_line_rheonomic_terms():
    # u = s(t) (cos wt, sin wt)? no: position y along the rotating direction,
    # so u_t carries the rotation and b, T0 are nonzero
    emb = rotating_line_embedding(1.5)
    lag = pullback_lagrangian(emb, MassMatrix(np.eye(2)))
    y = np.array([0.8])
    M2, b, T0 = decompose_T(lag, 0.3, y)
    assert abs(M2[0, 0] - 1.0) < 1e-12
    assert abs(b[0]) < 1e-12  # u_t is orthogonal to u_y on a rotating line
    assert abs(T0 - 0.5 * (1.5 * 0.8) ** 2) < 1e-12


def test_degenerate_metric_raises():
    emb = sphere_polar_embedding(1.0, pole_margin=0.0)
    lag = pullback_lagrangian(emb, MassMatrix(np.eye(3)))
    with pytest.raises(ChartError):
        decompose_T(lag, 0.0, np.array([0.0, 0.3]))


def test_lagrangian_derivative_pendulum_oracle():
    # chart theta: [L] = theta_dd + g sin theta against hand algebra
    emb = circle_embedding(1.0)
    lag = pullback_lagrangian(emb, MassMatrix(np.eye(2)))
    th, w, a = 0.6, 1.3, -2.0
    row = lagrangian_derivative(lag, 0.0, np.array([th]), np.array([w]), np.array([a]))
    assert abs(row[0] - a) < 1e-12


def test_lagrangian_derivative_matches_finite_differences():
    # independent oracle: FD of dL/dw along a quadratic path minus FD of L in y
    rng = np.random.default_rng(21)
    h = 1e-5
    for _ in range(10):
        emb = random_polynomial_chart(rng, m=4, r=2)
        lag = pullback_lagrangian(emb, MassMatrix(np.diag(rng.uniform(0.5, 2.0, 4))))
        t = float(rng.uniform(-0.5, 0.5))
        y = rng.uniform(-0.3, 0.3, 2)
        w = rng.uniform(-0.5, 0.5, 2)
        a = rng.uniform(-0.5, 0.5, 2)
        row = lagrangian_derivative(lag, t, y, w, a)

        def dL_dw(tt, yy, ww):
            out = np.zeros(2)
            for i in range(2):
                wp, wm = ww.copy(), ww.copy()
                wp[i] += h
                wm[i] -= h
                out[i] = (lag.value(tt, yy, wp) - lag.value(tt, yy, wm)) / (2 * h)
            return out

        plus = dL_dw(t + h, y + h * w + 0.5 * h * h * a, w + h * a)
        minus = dL_dw(t - h, y - h * w + 0.5 * h * h * a, w - h * a)
        total = (plus - minus) / (2 * h)
        L_y = np.zeros(2)
        for i in range(2):
            yp, ym = y.copy(), y.copy()
            yp[i] += h
            ym[i] -= h
            L_y[i] = (lag.value(t, yp, w) - lag.value(t, ym, w)) / (2 * h)
        assert np.abs(row - (total - L_y)).max() < 1e-5


def test_total_derivative_annihilated():
    # L = dW/dt pointwise has [L] = 0: encode W(t, y) with random polynomial
    # coefficients and feed its t/y derivatives through the generic kernel
    rng = np.random.default_rng(22)
    r = 3
    for _ in range(20):
        c = rng.uniform(-1, 1)
        g1 = rng.uniform(-1, 1, r)
        H = rng.uniform(-1, 1, (r, r))
        H = 0.5 * (H + H.T)
        # W(t, y) = c t + g1 . y + t y^T H y / 2  gives
        # dW/dt = c + t y^T H w + ... : b = W_y, T0 = W_t
        t = float(rng.uniform(-1, 1))
        y = rng.uniform(-1, 1, r)
        w = rng.uniform(-1, 1, r)
        a = rng.uniform(-1, 1, r)
        # b(t, y) = W_y = g1 + t H y ; T0(t, y) = W_t = c + y^T H y / 2
        db_dt = H @ y
        db_dy = t * H  # row k is d b / d y^k = t H[k]
        dT0_dy = H @ y
        row = lagrangian_derivative_from_pieces(
            np.zeros((r, r)), np.zeros((r, r)), np.zeros((r, r, r)),
            db_dt, db_dy, dT0_dy, w, a,
        )
        assert np.abs(row).max() < 1e-9


def test_generalized_forces_gravity_on_circle():
    from constrained_dynamics import ForceField

    emb = circle_embedding(1.0)
    f = ForceField(dim=2, value=lambda t, x, v: np.array([0.0, -10.0]))
    lag = pullback_lagrangian(emb, MassMatrix(np.eye(2)))
    # u = (sin th, -cos th), u_y = (cos th, sin th): Q = -10 sin th
    th = 0.8
    _, Q = second_kind_acceleration(lag, f, 0.0, np.array([th]), np.zeros(1))
    assert abs(Q[0] - (-10.0 * np.sin(th))) < 1e-12


def test_second_kind_pendulum_acceleration(pendulum):
    lag = pullback_lagrangian(pendulum.embedding, pendulum.system.mass)
    a, _ = second_kind_acceleration(
        lag, pendulum.system.force, 0.0, np.array([0.3]), np.array([0.0])
    )
    assert abs(a[0] - (-10.0 * np.sin(0.3))) < 1e-12


def test_integrate_second_kind_energy(pendulum):
    traj = integrate_second_kind(
        pendulum.embedding,
        pendulum.system,
        pendulum.initial_generalized,
        4.0,
        IntegratorConfig(dt=1e-3),
    )
    # E = w^2/2 - 10 cos th is conserved on the chart
    vals = 0.5 * np.sum(traj.w * traj.w, axis=1) - 10.0 * np.cos(traj.y[:, 0])
    assert vals.max() - vals.min() < 1e-9


def test_second_kind_aborts_outside_domain():
    emb = sphere_polar_embedding(1.0, pole_margin=0.3)
    from constrained_dynamics import ForceField, MechanicalSystem

    sys = MechanicalSystem(
        mass=MassMatrix(np.eye(3)),
        force=ForceField(dim=3, value=lambda t, x, v: np.array([0.0, 0.0, -10.0])),
    )
    init = GeneralizedState(0.0, np.array([0.5, 0.0]), np.array([-2.0, 0.0]))
    with pytest.raises(ChartError):
        integrate_second_kind(emb, sys, init, 2.0, IntegratorConfig(dt=1e-3))


def test_second_kind_refuses_adaptive_method(pendulum):
    cfg = IntegratorConfig(method="rk45-adaptive", dt=1e-2)
    with pytest.raises(NotImplementedError, match="rk4-fixed"):
        integrate_second_kind(
            pendulum.embedding, pendulum.system, pendulum.initial_generalized, 0.1, cfg
        )


def test_second_kind_refuses_a_false_time_independence(rotating_wire, pendulum):
    from dataclasses import replace

    cfg = IntegratorConfig(dt=1e-2)
    # the rotating line moves with t: declared without u_t, the bead would
    # stay at radius 1 instead of cosh t
    emb = replace(rotating_wire.embedding, u_t=None, u_tt=None, u_ty=None)
    with pytest.raises(
        ValueError,
        match=r"^integrate_second_kind: chart declared time-independent .* tau=0\.001$",
    ):
        integrate_second_kind(
            emb, rotating_wire.system, rotating_wire.initial_generalized, 0.5, cfg
        )
    # a chart that moves only from t = 0.5 on fails at the first shift past it
    circle = pendulum.embedding
    late = replace(circle, u=lambda t, y: circle.u(t, y) * (1.0 + max(0.0, t - 0.5)))
    with pytest.raises(ValueError, match=r"at t=0\.0, tau=0\.7$"):
        integrate_second_kind(late, pendulum.system, pendulum.initial_generalized, 0.1, cfg)


def test_declared_time_independence_refuses_a_nan_shift(pendulum):
    # u is NaN at every t but 0: the gaps are NaN, which compare false with
    # the tolerance, so the test is "not <="
    circle = pendulum.embedding
    emb = replace(circle, u=lambda t, y: circle.u(t, y) if t == 0.0 else np.full(2, np.nan))
    y0 = pendulum.initial_generalized.y
    circle.require_declared_time_independence(0.0, y0, "here")
    with pytest.raises(
        ValueError, match=r"^here: chart declared time-independent .* = nan > 1e-12 at t=0\.0, "
        r"tau=0\.001$",
    ):
        emb.require_declared_time_independence(0.0, y0, "here")


def test_pushforward_second_order_chain_rule():
    rng = np.random.default_rng(23)
    emb = random_polynomial_chart(rng, m=3, r=2)
    t = 0.2
    y = rng.uniform(-0.3, 0.3, 2)
    w = rng.uniform(-0.5, 0.5, 2)
    a = rng.uniform(-0.5, 0.5, 2)
    x, v, xdd = _pushforward_jet(_chart_jet(emb, t, y), w, a)
    # FD oracle: differentiate the pushforward velocity along the jet path
    h = 1e-5

    def vel(tt):
        dt = tt - t
        yy = y + dt * w + 0.5 * dt * dt * a
        ww = w + dt * a
        return emb.d_t(tt, yy) + emb.d_y(tt, yy) @ ww

    fd = (vel(t + h) - vel(t - h)) / (2 * h)
    assert np.abs(xdd - fd).max() < 1e-6


def test_covariance_residual_random_charts():
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 5))
        r = int(rng.integers(1, m))
        emb = random_polynomial_chart(rng, m, r)
        mass = MassMatrix(np.diag(rng.uniform(0.5, 3.0, m)))
        t = float(rng.uniform(-0.5, 0.5))
        y = rng.uniform(-0.3, 0.3, r)
        w = rng.uniform(-1, 1, r)
        a = rng.uniform(-1, 1, r)
        worst = max(worst, covariance_residual(emb, mass, None, t, y, w, a))
    assert worst < 1e-10


def test_covariance_residual_with_force(pendulum):
    rng = np.random.default_rng(25)
    for _ in range(20):
        t = float(rng.uniform(0, 1))
        y = rng.uniform(-2, 2, 1)
        w = rng.uniform(-2, 2, 1)
        a = rng.uniform(-2, 2, 1)
        res = covariance_residual(
            pendulum.embedding, pendulum.system.mass, pendulum.system.force, t, y, w, a
        )
        assert res < 1e-12


def test_match_trajectories_pendulum(pendulum):
    first = integrate_first_kind(
        pendulum.system, pendulum.constraints, pendulum.initial, 2.0,
        IntegratorConfig(dt=1e-3),
    )
    second = integrate_second_kind(
        pendulum.embedding, pendulum.system, pendulum.initial_generalized, 2.0,
        IntegratorConfig(dt=1e-3),
    )
    rep = match_trajectories(first, pendulum.embedding, second, pendulum.system.mass)
    assert rep.sup_position < 1e-6
    assert rep.sup_velocity < 1e-5
    assert rep.max_inversion_residual < 1e-10


def test_match_rejects_short_chart_run(pendulum):
    first = integrate_first_kind(
        pendulum.system, pendulum.constraints, pendulum.initial, 1.0,
        IntegratorConfig(dt=1e-2),
    )
    second = integrate_second_kind(
        pendulum.embedding, pendulum.system, pendulum.initial_generalized, 0.5,
        IntegratorConfig(dt=1e-2),
    )
    with pytest.raises(ValueError):
        match_trajectories(first, pendulum.embedding, second)


def test_generalized_csv_layout(pendulum):
    traj = integrate_second_kind(
        pendulum.embedding, pendulum.system, pendulum.initial_generalized, 0.01,
        IntegratorConfig(dt=5e-3),
    )
    lines = traj.to_csv().splitlines()
    assert lines[0] == "t,y1,w1,Q1"
    assert all(len(line.split(",")) == 4 for line in lines[1:])


def _reference_second_kind(emb, sys, init, t_end, cfg):
    """Second-kind RK4 written out plainly: every stage and every recorded
    sample calls second_kind_acceleration afresh."""
    lag = pullback_lagrangian(emb, sys.mass)

    def Q(t, y, w):
        # f(t, u, u_t + u_y w) u_y
        u_y = emb.d_y(t, y)
        return sys.force(t, emb.value(t, y), emb.d_t(t, y) + u_y @ w) @ u_y

    def accel(t, y, w):
        return second_kind_acceleration(lag, sys.force, t, y, w)[0]

    rows = []

    def record(t, y, w):
        rows.append((t, y, w, accel(t, y, w), Q(t, y, w)))

    t, y, w = init.t, init.y.copy(), init.w.copy()
    record(t, y, w)
    while t < t_end - 1e-12 * max(1.0, abs(t_end)):
        h = min(cfg.dt, t_end - t)
        k1y, k1w = w, accel(t, y, w)
        y2, w2 = y + 0.5 * h * k1y, w + 0.5 * h * k1w
        k2y, k2w = w2, accel(t + 0.5 * h, y2, w2)
        y3, w3 = y + 0.5 * h * k2y, w + 0.5 * h * k2w
        k3y, k3w = w3, accel(t + 0.5 * h, y3, w3)
        y4, w4 = y + h * k3y, w + h * k3w
        k4y, k4w = w4, accel(t + h, y4, w4)
        y = y + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
        w = w + (h / 6.0) * (k1w + 2 * k2w + 2 * k3w + k4w)
        t = t + h
        record(t, y, w)
    return GeneralizedTrajectory(*map(np.array, zip(*rows)))


@pytest.mark.parametrize("name", ["pendulum", "spherical-pendulum", "rotating-wire-bead"])
def test_second_kind_stage_reuse_is_bit_identical(name):
    sc = catalog_scenario(name)
    cfg = IntegratorConfig(dt=1e-2)
    args = (sc.embedding, sc.system, sc.initial_generalized, 0.5, cfg)
    traj = integrate_second_kind(*args)
    ref = _reference_second_kind(*args)
    for field in ("times", "y", "w", "a", "Q"):
        assert np.array_equal(getattr(traj, field), getattr(ref, field)), field
    assert traj.to_csv() == ref.to_csv()


def test_second_kind_accelerations_per_step(pendulum, monkeypatch):
    import constrained_dynamics.generalized as generalized

    calls = [0]
    inner = generalized.second_kind_acceleration

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(generalized, "second_kind_acceleration", counted)
    traj = integrate_second_kind(
        pendulum.embedding, pendulum.system, pendulum.initial_generalized, 0.2,
        IntegratorConfig(dt=1e-2),
    )
    steps = len(traj) - 1
    assert steps == 20
    assert calls[0] == 4 * steps + 1


def _reference_derivative_pieces(lag, t, y):
    """(M2, dM2_dt, dM2_dy, db_dt, db_dy, dT0_dy) with one loop over y^k,
    each piece written as its own matrix product."""
    G = lag.mass.G
    emb = lag.emb
    Ut, Uy = emb.d_t(t, y), emb.d_y(t, y)
    Utt, Uty, Uyy = emb.d_tt(t, y), emb.d_ty(t, y), emb.d_yy(t, y)
    r = emb.r
    dM2_dy = np.empty((r, r, r))
    db_dy = np.empty((r, r))
    dT0_dy = np.empty(r)
    for k in range(r):
        Uyk = Uyy[:, :, k]
        dM2_dy[k] = Uyk.T @ G @ Uy + Uy.T @ G @ Uyk
        db_dy[k] = Uty[:, k] @ G @ Uy + Ut @ G @ Uyk
        dT0_dy[k] = Ut @ G @ Uty[:, k]
    M2 = Uy.T @ G @ Uy
    dM2_dt = Uty.T @ G @ Uy + Uy.T @ G @ Uty
    db_dt = Utt @ G @ Uy + Ut @ G @ Uty
    return M2, dM2_dt, dM2_dy, db_dt, db_dy, dT0_dy


def _random_chart_point(rng, r):
    m = r + int(rng.integers(1, 3))
    emb = random_polynomial_chart(rng, m, r)
    S = rng.uniform(-0.3, 0.3, (m, m))
    mass = MassMatrix(np.diag(rng.uniform(0.5, 2.0, m)) + S @ S.T)
    t = float(rng.uniform(-0.5, 0.5))
    return pullback_lagrangian(emb, mass), t, rng.uniform(-0.3, 0.3, r), rng.uniform(-1, 1, r)


def _assert_close_in_norm(got, want, rtol=1e-13):
    # relative to the largest entry: single entries may cancel to ~1e-3 of it
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * np.abs(want).max())


def _reference_terms(lag, t, y, w):
    """(M2, M2dot w, bdot, L_y) from the per-coordinate pieces, contracted
    with w one coordinate at a time."""
    M2, dM2_dt, dM2_dy, db_dt, db_dy, dT0_dy = _reference_derivative_pieces(lag, t, y)
    r = w.size
    M2dot = dM2_dt + sum(w[k] * dM2_dy[k] for k in range(r))
    bdot = db_dt + sum(w[k] * db_dy[k] for k in range(r))
    L_y = np.array(
        [0.5 * float(w @ dM2_dy[k] @ w) + float(db_dy[k] @ w) + dT0_dy[k] for k in range(r)]
    )
    return M2, M2dot @ w, bdot, L_y


@pytest.mark.parametrize("r", [1, 2, 3])
def test_derivative_pieces_match_per_coordinate_loops(r):
    # the w-contracted kernel against every y-derivative of (M2, b, T0)
    # built one coordinate at a time and contracted with w afterwards
    from constrained_dynamics.generalized import _lagrange_terms

    rng = np.random.default_rng(40 + r)
    for _ in range(20):
        lag, t, y, w = _random_chart_point(rng, r)
        got = _lagrange_terms(lag.mass.G, _chart_jet(lag.emb, t, y), w)
        want = _reference_terms(lag, t, y, w)
        for g, e in zip(got, want):
            assert g.shape == e.shape
            _assert_close_in_norm(g, e)
        # the generic kernel of lagrangian_derivative_from_pieces, too
        pieces = _reference_derivative_pieces(lag, t, y)
        M2dot, bdot, L_y = along_velocity(*pieces[1:], w)
        _assert_close_in_norm(M2dot @ w, want[1])
        _assert_close_in_norm(bdot, want[2])
        _assert_close_in_norm(L_y, want[3])


@pytest.mark.parametrize("r", [1, 2, 3])
def test_second_kind_acceleration_matches_dense_solve(r):
    from constrained_dynamics import ForceField

    rng = np.random.default_rng(50 + r)
    for _ in range(20):
        lag, t, y, w = _random_chart_point(rng, r)
        g = rng.uniform(-1, 1, lag.emb.dim)
        f = ForceField(dim=g.size, value=lambda t, x, v, g=g: g)
        q = g @ lag.emb.d_y(t, y)
        M2, M2dot_w, bdot, L_y = _reference_terms(lag, t, y, w)
        want = np.linalg.solve(M2, q - M2dot_w - bdot + L_y)
        got, Q = second_kind_acceleration(lag, f, t, y, w)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert np.array_equal(Q, q)


def test_second_kind_acceleration_near_pole_raises():
    from constrained_dynamics import ForceField

    emb = sphere_polar_embedding(1.0, pole_margin=0.0)
    lag = pullback_lagrangian(emb, MassMatrix(np.eye(3)))
    with pytest.raises(ChartError, match="degenerate"):
        second_kind_acceleration(
            lag, ForceField.zero(3), 0.0, np.array([1e-7, 0.3]), np.array([0.1, 0.2])
        )


def test_second_kind_acceleration_nan_chart_raises():
    from dataclasses import replace

    from constrained_dynamics import ForceField

    emb = replace(sphere_polar_embedding(1.0), u_y=lambda t, y: np.full((3, 2), np.nan))
    lag = pullback_lagrangian(emb, MassMatrix(np.eye(3)))
    with pytest.raises(ChartError, match="t=0.5"):
        second_kind_acceleration(
            lag, ForceField.zero(3), 0.5, np.array([1.0, 0.3]), np.zeros(2)
        )


def test_decompose_T_nan_chart_raises_chart_error():
    from dataclasses import replace

    emb = replace(sphere_polar_embedding(1.0), u_y=lambda t, y: np.full((3, 2), np.nan))
    lag = pullback_lagrangian(emb, MassMatrix(np.eye(3)))
    with pytest.raises(ChartError, match="t=0.5"):
        decompose_T(lag, 0.5, np.array([1.0, 0.3]))


_CHART_MAPS = ("u", "u_t", "u_y", "u_tt", "u_ty", "u_yy")
# the maps a chart has: a time-independent chart has no u_t, u_tt or u_ty
_MAPS_OF = {
    "pendulum": ("u", "u_y", "u_yy"),
    "spherical": ("u", "u_y", "u_yy"),
    "rotating_wire": _CHART_MAPS,
}
# a second-order jet (t, y, w, a) inside each chart
_JET_OF = {
    "spherical": (0.3, np.array([0.9, 0.4]), np.ones(2), np.array([0.2, -0.1])),
    "rotating_wire": (0.3, np.array([1.2]), np.array([0.5]), np.array([0.3])),
}


def _counted_chart(emb):
    """emb with every chart map it has wrapped to count its calls, and the counts."""
    from dataclasses import replace

    names = [name for name in _CHART_MAPS if getattr(emb, name) is not None]
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(emb, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    return replace(emb, **{name: counted(name) for name in names}), calls


def test_second_kind_acceleration_evaluates_each_chart_map_once(spherical, rotating_wire):
    for name, sc in (("spherical", spherical), ("rotating_wire", rotating_wire)):
        emb, calls = _counted_chart(sc.embedding)
        lag = pullback_lagrangian(emb, sc.system.mass)
        t, y, w, _ = _JET_OF[name]
        second_kind_acceleration(lag, sc.system.force, t, y, w)
        assert calls == dict.fromkeys(_MAPS_OF[name], 1)


def test_integrate_second_kind_chart_calls_per_step(pendulum):
    emb, calls = _counted_chart(pendulum.embedding)
    traj = integrate_second_kind(
        emb, pendulum.system, pendulum.initial_generalized, 0.2, IntegratorConfig(dt=1e-2)
    )
    steps = len(traj) - 1
    assert steps == 20
    # 4 accelerations per step, one jet of the circle's 3 maps each; Q comes
    # with them.  The run-start check of u_t=None adds u at t0 and at each shift
    from constrained_dynamics.generalized import _TIME_SHIFTS

    want = dict.fromkeys(_MAPS_OF["pendulum"], 1 + 4 * steps)
    want["u"] += 1 + len(_TIME_SHIFTS)
    assert calls == want


def test_covariance_residual_evaluates_each_chart_map_once(spherical, rotating_wire):
    for name, sc in (("spherical", spherical), ("rotating_wire", rotating_wire)):
        emb, calls = _counted_chart(sc.embedding)
        sys = sc.system
        res = covariance_residual(emb, sys.mass, sys.force, *_JET_OF[name])
        assert res < 1e-12
        assert calls == dict.fromkeys(_MAPS_OF[name], 1)


def test_covariance_residual_evaluates_the_force_once(spherical, rotating_wire):
    # x = u and v = u_t + u_y w serve both the ambient row and the chart's
    # force row Q = f u_y
    from dataclasses import replace

    for name, sc in (("spherical", spherical), ("rotating_wire", rotating_wire)):
        calls = []
        inner = sc.system.force.value

        def value(t, x, v):
            calls.append(t)
            return inner(t, x, v)

        force = replace(sc.system.force, value=value)
        res = covariance_residual(sc.embedding, sc.system.mass, force, *_JET_OF[name])
        assert res < 1e-12
        assert len(calls) == 1


def test_chart_invert_off_image_stops_at_best_point():
    # x lies 1e-9 off the sphere radially: the best point is y itself, with
    # residual 1e-9 max|u(y)|; no step can lower it further
    from dataclasses import replace

    from constrained_dynamics.generalized import _chart_invert

    base = sphere_polar_embedding(1.0)
    calls = [0]

    def u_y(t, y):
        calls[0] += 1
        return base.u_y(t, y)

    emb = replace(base, u_y=u_y)
    y = np.array([0.7, 0.4])
    x = 1.000000001 * emb.value(0.0, y)
    y_best, resid = _chart_invert(
        emb, MassMatrix(np.eye(3)), 0.0, x, y + np.array([1e-3, -0.7e-3])
    )
    assert resid == pytest.approx(1e-9 * np.abs(emb.value(0.0, y)).max(), rel=1e-6)
    assert resid == pytest.approx(7.65e-10, rel=1e-3)
    assert np.abs(y_best - y).max() < 1e-9
    assert calls[0] <= 4


def test_chart_invert_singular_jacobian_raises_chart_error():
    from constrained_dynamics.generalized import _chart_invert

    emb = sphere_polar_embedding(1.0, pole_margin=0.0)
    y0 = np.array([0.0, 0.3])
    x = emb.value(0.25, y0) + 1e-6
    with pytest.raises(ChartError, match="t=0.25"):
        _chart_invert(emb, MassMatrix(np.eye(3)), 0.25, x, y0)


def test_match_trajectories_inverts_from_resampled_point(pendulum, monkeypatch):
    # the resampled y(t_i) lies close to the answer: at most two Gauss-Newton
    # steps (one u_y and one u call each) per sample, even on a coarse grid
    # where the first-kind drift keeps the residual above its tolerance
    from dataclasses import replace

    import constrained_dynamics.generalized as generalized

    cfg = IntegratorConfig(dt=1e-2)
    first = integrate_first_kind(pendulum.system, pendulum.constraints, pendulum.initial, 1.0, cfg)
    second = integrate_second_kind(
        pendulum.embedding, pendulum.system, pendulum.initial_generalized, 1.0, cfg
    )
    calls = [0]

    def counted(fn):
        def call(*args):
            calls[0] += 1
            return fn(*args)

        return call

    inner = generalized._chart_invert
    monkeypatch.setattr(
        generalized,
        "_chart_invert",
        lambda emb, *args: inner(replace(emb, u=counted(emb.u), u_y=counted(emb.u_y)), *args),
    )
    rep = match_trajectories(first, pendulum.embedding, second, pendulum.system.mass)
    assert calls[0] <= 4 * len(first)
    assert rep.max_inversion_residual < 1e-7


_CHART_SCENARIOS = ("pendulum", "spherical-pendulum", "rotating-wire-bead")


@functools.lru_cache(maxsize=None)
def _chart_runs(name, dt, t_end=1.0):
    """(scenario, first-kind run, second-kind run) of a catalog scenario at dt."""
    sc = catalog_scenario(name)
    cfg = IntegratorConfig(dt=dt)
    first = integrate_first_kind(sc.system, sc.constraints, sc.initial, t_end, cfg)
    second = integrate_second_kind(sc.embedding, sc.system, sc.initial_generalized, t_end, cfg)
    return sc, first, second


@pytest.mark.parametrize("dt", [1e-3, 1e-2])
@pytest.mark.parametrize("name", _CHART_SCENARIOS)
def test_match_equals_the_per_sample_loop(name, dt):
    sc, first, second = _chart_runs(name, dt)
    got = match_trajectories(first, sc.embedding, second, sc.system.mass)
    want = match_per_sample(first, sc.embedding, second, sc.system.mass)
    assert got.sup_position == want.sup_position
    assert got.sup_velocity == want.sup_velocity
    assert got.max_inversion_residual == want.max_inversion_residual


@pytest.mark.parametrize("dt", [1e-3, 1e-2])
@pytest.mark.parametrize("name", _CHART_SCENARIOS)
def test_match_inverts_exactly_the_samples_that_miss(name, dt, monkeypatch):
    # Gauss-Newton is entered, in sample order and with that sample's r0,
    # on the samples whose |u(t, y) - x|_inf is not <= the tolerance, and
    # on no other
    import constrained_dynamics.generalized as generalized

    sc, first, second = _chart_runs(name, dt)
    emb = sc.embedding
    Ys, _ = generalized._hermite(second.times, second.y, second.w, first.times)
    R0 = [emb.value(t, y) - x for t, x, y in zip(first.times, first.positions, Ys)]
    miss = [i for i, r0 in enumerate(R0) if not np.abs(r0).max() <= generalized._INVERT_TOL]
    if dt == 1e-2:  # the coarse grid drifts off the chart: the inversions run
        assert miss
    entered = []
    inner = generalized._chart_invert

    def recording(emb, mass, t, x, y0, r0):
        entered.append((t, r0))
        return inner(emb, mass, t, x, y0, r0)

    monkeypatch.setattr(generalized, "_chart_invert", recording)
    match_trajectories(first, emb, second, sc.system.mass)
    assert [t for t, _ in entered] == [first.times[i] for i in miss]
    assert all(np.array_equal(r0, R0[i]) for (_, r0), i in zip(entered, miss))


@pytest.mark.parametrize("dt, t_end", [(5e-2, 1.0), (2e-2, 2.0)])
def test_match_raises_the_per_sample_loops_chart_error(dt, t_end):
    # the coarse first-kind run leaves the chart image by more than 1e-6
    sc, first, second = _chart_runs("pendulum", dt, t_end)
    args = (first, sc.embedding, second, sc.system.mass)
    with pytest.raises(ChartError, match="chart inversion diverged at t=") as want:
        match_per_sample(*args)
    with pytest.raises(ChartError) as got:
        match_trajectories(*args)
    assert str(got.value) == str(want.value)


class _MapFailure(Exception):
    pass


@pytest.mark.parametrize("fails_after", [0.3, 0.7])
@pytest.mark.parametrize("field", ["u", "u_y"])
def test_match_raises_the_earliest_failure_first(field, fails_after):
    # the inversion at t = 0.5 diverges: a chart map that fails from t = 0.7
    # on comes after it, one that fails from t = 0.3 on before it
    sc, first, second = _chart_runs("pendulum", 5e-2)
    inner = getattr(sc.embedding, field)

    def failing(t, y):
        if t > fails_after:
            raise _MapFailure(f"{field} fails at t={t}")
        return inner(t, y)

    emb = replace(sc.embedding, **{field: failing})
    args = (first, emb, second, sc.system.mass)
    errors = []
    for match in (match_per_sample, match_trajectories):
        with pytest.raises((ChartError, _MapFailure)) as raised:
            match(*args)
        errors.append((type(raised.value), str(raised.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] is (_MapFailure if fails_after < 0.5 else ChartError)


def test_match_chains_an_earlier_chart_error_from_the_map_failure():
    # the inversion at t = 0.5 diverges before u fails from t = 0.7 on: the
    # ChartError is raised from the map's failure, as every stacked verdict is
    sc, first, second = _chart_runs("pendulum", 5e-2)
    inner = sc.embedding.u

    def failing(t, y):
        if t > 0.7:
            raise _MapFailure(f"u fails at t={t}")
        return inner(t, y)

    emb = replace(sc.embedding, u=failing)
    with pytest.raises(ChartError, match="chart inversion diverged at t=0.4999") as err:
        match_trajectories(first, emb, second, sc.system.mass)
    assert isinstance(err.value.__cause__, _MapFailure)


def test_match_refuses_a_nan_position_and_carries_a_nan_velocity():
    sc, first, second = _chart_runs("pendulum", 1e-2)
    X, V = first.positions.copy(), first.velocities.copy()
    X[7, 0] = np.nan
    off = replace(first, positions=X)
    args = (sc.embedding, second, sc.system.mass)
    with pytest.raises(ChartError, match="residual nan") as want:
        match_per_sample(off, *args)
    with pytest.raises(ChartError) as got:
        match_trajectories(off, *args)
    assert str(got.value) == str(want.value)
    # a NaN velocity difference reaches no inversion; the stacked maximum
    # carries it, where a running max() dropped it
    V[7, 1] = np.nan
    rep = match_trajectories(replace(first, velocities=V), *args)
    want = match_per_sample(replace(first, velocities=V), *args)
    assert math.isnan(rep.sup_velocity) and not math.isnan(want.sup_velocity)
    assert rep.sup_position == want.sup_position
    assert rep.max_inversion_residual == want.max_inversion_residual


def test_metric_solve_2x2_matches_dense_solve():
    from constrained_dynamics.generalized import _metric_solve

    rng = np.random.default_rng(60)
    for _ in range(500):
        A = rng.uniform(-1, 1, (2, 2))
        M2 = (A @ A.T + 0.1 * np.eye(2)) * 10.0 ** rng.uniform(-3, 3)
        rhs = rng.uniform(-1, 1, 2)
        np.testing.assert_allclose(_metric_solve(M2, rhs, 0.0), np.linalg.solve(M2, rhs), rtol=1e-12)


def _metric_verdict(solve, M2):
    """'regular', 'degenerate' or 'non-finite': what ``solve(M2)`` concluded."""
    try:
        solve(M2)
    except ChartError as exc:
        return "non-finite" if "non-finite" in str(exc) else "degenerate"
    return "regular"


def _near_singular_metrics():
    """Sphere-polar metrics from the pole to 1e-3 away from it, rotated
    diag(lam, eps) metrics across the 1e-12 threshold, and non-finite ones.

    Both grids stay 10% or more away from the threshold, where rounding
    cannot decide a verdict.  The polar angles 1e-6 (1 -+ 1e-8) put
    lam_min = sin^2 within 2e-8 of it, which an estimate of lam_min that is
    accurate only to ulps of lam_max, such as h - s, misjudges."""
    J = sphere_polar_embedding(1.0, pole_margin=0.0).d_y
    rng = np.random.default_rng(61)
    out = []
    polar = np.logspace(-9, -3, 60)
    for th in np.concatenate([[0.0], polar, 1e-6 * (1.0 + np.array([-1e-6, -1e-8, 1e-8, 1e-6]))]):
        Uy = J(0.0, np.array([th, rng.uniform(-np.pi, np.pi)]))
        out.append(Uy.T @ Uy)
    for eps in np.logspace(-14, -10, 40):  # threshold 1e-12, since lam <= 1
        angle = rng.uniform(0, np.pi)
        c, s = np.cos(angle), np.sin(angle)
        R = np.array([[c, -s], [s, c]])
        out.append(R @ np.diag([rng.uniform(0.5, 1.0), eps]) @ R.T)
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (1, 0), (1, 1)):
            M2 = np.eye(2)
            M2[i, j] = bad
            if i != j:
                M2[j, i] = bad
            out.append(M2)
    out.append(np.zeros((2, 2)))
    return out


def test_metric_solve_2x2_verdict_equals_the_eigensolver():
    from constrained_dynamics.generalized import _metric_solve, _regular_metric

    verdicts = []
    for M2 in _near_singular_metrics():
        closed = _metric_verdict(lambda M: _metric_solve(M, np.ones(2), 0.5), M2)
        eigen = _metric_verdict(lambda M: _regular_metric(M, 1e-12, 0.5), M2)
        assert closed == eigen, M2
        verdicts.append(closed)
    assert {"regular", "degenerate", "non-finite"} <= set(verdicts)


def test_chart_equivalence_on_sphere_makes_no_eigh_call(spherical, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called on a 2x2 chart metric")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    cfg = IntegratorConfig(dt=1e-2)
    first = integrate_first_kind(spherical.system, spherical.constraints, spherical.initial, 0.2, cfg)
    second = integrate_second_kind(
        spherical.embedding, spherical.system, spherical.initial_generalized, 0.2, cfg
    )
    rep = match_trajectories(first, spherical.embedding, second, spherical.system.mass)
    assert len(second) == 21
    assert rep.max_inversion_residual < 1e-7


@pytest.mark.parametrize(
    "emb, y",
    [
        (sphere_polar_embedding(1.0), np.array([1.0, np.nan])),  # NaN in the unbounded angle
        (sphere_polar_embedding(1.0), np.array([np.nan, 0.3])),
        (circle_embedding(1.0), np.array([np.nan])),  # a chart with no bounds at all
    ],
    ids=["sphere-polar-phi", "sphere-polar-theta", "circle"],
)
def test_nan_coordinate_leaves_the_chart_domain(emb, y):
    from constrained_dynamics import ForceField, MechanicalSystem

    assert not emb.in_domain(y)
    sys = MechanicalSystem(mass=MassMatrix(np.eye(emb.dim)), force=ForceField.zero(emb.dim))
    init = GeneralizedState(0.25, y, np.zeros(emb.r))
    with pytest.raises(ChartError, match=r"left the chart domain at t=0\.25"):
        integrate_second_kind(emb, sys, init, 0.5, IntegratorConfig(dt=0.1))


def test_domain_follows_dataclass_replace():
    from dataclasses import replace

    emb = sphere_polar_embedding(1.0, pole_margin=0.02)
    y = np.array([0.4, 7.0])
    assert emb.in_domain(y)
    assert not emb.in_domain(np.array([0.01, 0.0]))
    assert replace(emb, u=emb.u).in_domain(y)
    assert not replace(emb, domain_lo=np.array([0.5, -np.inf])).in_domain(y)
    assert not replace(emb, domain_hi=np.array([np.pi, 6.0])).in_domain(y)
    assert circle_embedding(1.0).in_domain(np.array([1e300]))


@pytest.mark.parametrize("t_end", [np.nan, np.inf, -1.0, 0.0, 1e-13, 1e-12])
def test_second_kind_refuses_a_horizon_that_gives_no_run(pendulum, t_end):
    import dataclasses

    calls = []
    force, inner = pendulum.system.force, pendulum.system.force.value
    force = dataclasses.replace(force, value=lambda t, x, v: calls.append(t) or inner(t, x, v))
    sys = dataclasses.replace(pendulum.system, force=force)
    # the counter sees a run's force calls
    integrate_second_kind(pendulum.embedding, sys, pendulum.initial_generalized, 0.01)
    assert calls
    calls.clear()
    want = f"t_end must be finite and later than the initial t=0.0, got {t_end!r}"
    with pytest.raises(ValueError, match=re.escape(want)):
        integrate_second_kind(
            pendulum.embedding, sys, pendulum.initial_generalized, t_end, IntegratorConfig()
        )
    assert calls == []


@pytest.mark.parametrize("name", ["pendulum", "rotating-wire-bead"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_second_kind_refuses_a_non_finite_initial_velocity(name, bad):
    # refused before any force call, not blamed on a later stage that left
    # the chart domain or on a math domain error of the chart
    import dataclasses

    sc = catalog_scenario(name)
    calls = []
    force, inner = sc.system.force, sc.system.force.value
    force = dataclasses.replace(force, value=lambda t, x, v: calls.append(t) or inner(t, x, v))
    sys = dataclasses.replace(sc.system, force=force)
    init = sc.initial_generalized
    w = init.w.copy()
    w[-1] = bad
    with pytest.raises(ValueError, match=r"^initial velocity w must be finite at t=0\.0$"):
        integrate_second_kind(
            sc.embedding, sys, GeneralizedState(init.t, init.y, w), 0.1, IntegratorConfig(dt=0.01)
        )
    assert calls == []


def test_generalized_state_refuses_y_and_w_of_different_lengths():
    with pytest.raises(ValueError, match="y and w must have equal length"):
        GeneralizedState(0.0, np.array([0.0, 1.0]), np.array([0.0]))

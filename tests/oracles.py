"""Independent oracles and fixtures that only the tests use: central
differences, a random polynomial chart and generator with analytic
derivatives, the reparametrized constraint set psi = U(phi), a generic
Lagrangian derivative built from the pieces of 1/2 w^T M2 w + b w + T0,
the second-kind terms and the trajectory match written out one product and
one sample at a time, the drift projection written out on its own, and the
RK4 / Dormand-Prince march on numpy arrays."""

import numpy as np

from constrained_dynamics import ConfigurationMap, ConstraintSet, Embedding, SmoothMap
from constrained_dynamics.generalized import MatchReport, _chart_invert, _hermite
from constrained_dynamics.integrate import ProjectionError, _stop_time
from constrained_dynamics.reactions import _chol_solve


# central differences with one fixed step: the derivative oracle of the
# tests that hold a map's declared derivatives to differences of the map one
# order below them
_H = 1e-5


def t_diff(fn, t):
    """(fn(t + h) - fn(t - h)) / 2h with h = 1e-5."""
    return (fn(t + _H) - fn(t - _H)) / (2 * _H)


def y_diff(fn, y):
    """Central differences of fn along each coordinate of y, stacked last."""
    cols = []
    for i in range(y.size):
        e = np.zeros(y.size)
        e[i] = _H
        cols.append((fn(y + e) - fn(y - e)) / (2 * _H))
    return np.stack(cols, axis=-1)


def random_polynomial_chart(rng: np.random.Generator, m: int, r: int) -> Embedding:
    """Random degree-<=3 polynomial chart with analytic derivatives.

    u_p(t, y) = a + c1 t + c2 t^2 + B y + t D y + 1/2 y^T Q_p y + k_p (w_p . y)^3
    with coefficients scaled so rank u_y = r holds with overwhelming
    probability near the origin.
    """
    a0 = rng.uniform(-1, 1, m)
    c1 = rng.uniform(-1, 1, m)
    c2 = 0.5 * rng.uniform(-1, 1, m)
    B = rng.uniform(-1, 1, (m, r)) + np.eye(m, r) * 2.0
    D = 0.3 * rng.uniform(-1, 1, (m, r))
    Qp = 0.3 * rng.uniform(-1, 1, (m, r, r))
    Qp = 0.5 * (Qp + np.transpose(Qp, (0, 2, 1)))
    kp = 0.1 * rng.uniform(-1, 1, m)
    wp = rng.uniform(-1, 1, (m, r))

    def u(t, y):
        lin = wp @ y
        return (
            a0
            + c1 * t
            + c2 * t * t
            + B @ y
            + t * (D @ y)
            + 0.5 * np.einsum("pij,i,j->p", Qp, y, y)
            + kp * lin**3
        )

    def u_t(t, y):
        return c1 + 2.0 * c2 * t + D @ y

    def u_y(t, y):
        lin = wp @ y
        return B + t * D + np.einsum("pij,j->pi", Qp, y) + 3.0 * (kp * lin**2)[:, None] * wp

    def u_tt(t, y):
        return 2.0 * c2

    def u_ty(t, y):
        return D

    def u_yy(t, y):
        lin = wp @ y
        cubic = 6.0 * (kp * lin)[:, None, None] * np.einsum("pi,pj->pij", wp, wp)
        return Qp + cubic

    return Embedding(
        dim=m, r=r, u=u, u_t=u_t, u_y=u_y, u_tt=u_tt, u_ty=u_ty, u_yy=u_yy
    )


def random_polynomial_generator(rng: np.random.Generator, m: int, n: int) -> ConfigurationMap:
    """Random rheonomic polynomial generator g : R x R^m -> R^n with
    analytic derivatives up to second order.

    g_i(t, x) = a + c t + d t^2 + B x + t D x + t^2 E x + 1/2 x^T Q_i x + k_i (w_i . x)^3
    """
    a, c, d = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), 0.5 * rng.uniform(-1, 1, n)
    B = rng.uniform(-1, 1, (n, m)) + np.eye(n, m) * 2.0
    D, E = 0.3 * rng.uniform(-1, 1, (n, m)), 0.2 * rng.uniform(-1, 1, (n, m))
    Q = 0.3 * rng.uniform(-1, 1, (n, m, m))
    Q = 0.5 * (Q + np.transpose(Q, (0, 2, 1)))
    k, w = 0.1 * rng.uniform(-1, 1, n), rng.uniform(-1, 1, (n, m))

    def value(t, x):
        return (
            a + c * t + d * t * t + B @ x + t * (D @ x) + t * t * (E @ x)
            + 0.5 * np.einsum("pij,i,j->p", Q, x, x) + k * (w @ x) ** 3
        )

    def d_x(t, x):
        cubic = 3.0 * (k * (w @ x) ** 2)[:, None] * w
        return B + t * D + t * t * E + np.einsum("pij,j->pi", Q, x) + cubic

    def d_xx(t, x):
        return Q + 6.0 * (k * (w @ x))[:, None, None] * np.einsum("pi,pj->pij", w, w)

    return ConfigurationMap(
        dim=n,
        value=value,
        d_t=lambda t, x: c + 2.0 * d * t + D @ x + 2.0 * t * (E @ x),
        d_x=d_x,
        d_tt=lambda t, x: 2.0 * d + 2.0 * (E @ x),
        d_tx=lambda t, x: D + 2.0 * t * E,
        d_xx=d_xx,
    )


def reparametrized(cs, rep):
    """The constraint set psi(t, x, v) = U(t, x, v, phi(t, x, v)) of the
    reparametrization ``rep``, whose Jacobians psi_s = U_s + U_z phi_s are
    written out at one state: the per-state reference for the stacked
    chain rule of the engine's reparametrization check."""
    phi = cs.phi

    def chain_rule(U_s, phi_s):
        def jac(t, x, v):
            z = phi(t, x, v)
            return U_s(t, x, v, z) + rep.d_z(t, x, v, z) @ phi_s(t, x, v)

        return jac

    psi = SmoothMap(
        dim=cs.n,
        value=lambda t, x, v: rep(t, x, v, phi(t, x, v)),
        jac_t=chain_rule(rep.d_t, phi.d_t),
        jac_x=chain_rule(rep.d_x, phi.d_x),
        jac_v=chain_rule(rep.d_v, phi.d_v),
    )
    return ConstraintSet.general(cs.dim, psi)


def along_velocity(dM2_dt, dM2_dy, db_dt, db_dy, dT0_dy, w):
    """(M2dot, bdot, L_y): the total time derivatives of M2 and b along the
    velocity w, and the row dL/dy."""
    r = w.size
    M2dot = dM2_dt + (w @ dM2_dy.reshape(r, r * r)).reshape(r, r)
    bdot = db_dt + w @ db_dy
    L_y = 0.5 * ((w @ dM2_dy) @ w) + db_dy @ w + dT0_dy
    return M2dot, bdot, L_y


def lagrangian_derivative_from_pieces(M2, dM2_dt, dM2_dy, db_dt, db_dy, dT0_dy, w, a):
    """[L] = M2 a + M2dot w + bdot - L_y for any Lagrangian of the form
    1/2 w^T M2 w + b w + T0.

    ``dM2_dy[k]`` is the y^k-derivative of M2, ``db_dy[k]`` the y^k-derivative
    of the row b.  M2 may be singular (e.g. a pure total derivative, M2 = 0).
    """
    M2dot, bdot, L_y = along_velocity(dM2_dt, dM2_dy, db_dt, db_dy, dT0_dy, w)
    return M2 @ a + M2dot @ w + bdot - L_y


def lagrange_terms(G, jet, w):
    """(M2, M2dot w, bdot, L_y) as ``generalized._lagrange_terms`` first
    formed them: D^T is taken at each use, and on a chart without u_t the
    product D^T (G u_y w) is formed twice, once in M2dot w and once as L_y.
    The engine's terms must have the bits of these."""
    _, Ut, Uy, Utt, Uty, Uyy = jet
    GUy = G.dot(Uy)
    GUyw = GUy.dot(w)
    D = Uyy @ w if Ut is None else Uty + Uyy @ w
    M2dot_w = D.T.dot(GUyw) + GUy.T.dot(D.dot(w))
    M2 = Uy.T.dot(GUy)
    if Ut is None:
        return M2, M2dot_w, None, D.T.dot(GUyw)
    GUt = G.dot(Ut)
    bdot = (Utt + Uty.dot(w)).dot(GUy) + GUt.dot(D)
    return M2, M2dot_w, bdot, D.T.dot(GUt + GUyw)


def match_per_sample(traj_x, emb, traj_y, mass):
    """``generalized.match_trajectories`` as a per-sample loop: the chart
    maps, the residual r0 and the chart inversion of one sample before the
    next, and running maxima.  The engine's report must equal this one, and
    it must raise the same error first."""
    times = traj_x.times
    Ys, Ws = _hermite(traj_y.times, traj_y.y, traj_y.w, times)
    sup_x = sup_v = max_inv = 0.0
    for t, x, v, y, w in zip(times, traj_x.positions, traj_x.velocities, Ys, Ws):
        r0 = emb.value(t, y) - x
        v_pred = emb.velocity(t, y, w)
        sup_x = max(sup_x, float(np.abs(r0).max()))
        sup_v = max(sup_v, float(np.abs(v - v_pred).max()))
        _, resid = _chart_invert(emb, mass, t, x, y, r0)
        max_inv = max(max_inv, resid)
    return MatchReport(sup_position=sup_x, sup_velocity=sup_v, max_inversion_residual=max_inv)


def project(cs, mass, t, x, v, tol, max_iter, velocity):
    """(x, v, k): the state (t, x, v) pulled back to W = {g = 0, g_t + g_x v = 0}
    by k Gauss-Newton corrections in the G-metric, then, if ``velocity``, by
    the G-orthogonal projection of v onto g_x v = -g_t.

    The loop as the engine first wrote it: each map is evaluated where the
    step needs it, and nothing is carried from one step to the next.
    """
    g = cs.generator
    Ginv = mass.inverse
    x = x.copy()
    for k in range(max_iter):
        r = g(t, x)
        if np.abs(r).max(initial=0.0) <= tol:
            break
        J = g.grad_x(t, x)
        x = x - Ginv @ J.T @ _chol_solve(J @ Ginv @ J.T, r, t)
    else:
        raise ProjectionError(f"no convergence in {max_iter} iterations")
    if velocity:
        J = g.grad_x(t, x)
        defect = g.grad_t(t, x) + J @ v
        v = v - Ginv @ J.T @ _chol_solve(J @ Ginv @ J.T, defect, t)
    return x, v, k


# Dormand-Prince 5(4) tableau, as the array march took it
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _recorded(record, t, y, m: int) -> tuple:
    """(y, k1) to continue from after ``record(t, q, p)`` on the views q, p of
    y: y itself unless record returned other arrays (a projected step)."""
    q, p = y[:m], y[m:]
    q2, p2, a = record(t, q, p)
    if q2 is not q or p2 is not p:
        y = np.concatenate((q2, p2))
    return y, np.concatenate((p2, a))


def march(accel, record, t, q, p, a, t_end, cfg) -> None:
    """The engine's ``integrate._march`` as it was written on numpy arrays:
    the flat state y = (q, p) and slopes k = (p, a) are arrays, and each
    stage is one array expression.  The engine's list march must give every
    stage state and sample of this one bit for bit.  Errors propagate as
    raised; the engine's naming of the failed stage is not part of it.
    """
    t_stop = _stop_time(t_end)
    m = q.size
    y, k1 = np.concatenate((q, p)), np.concatenate((p, a))

    def rhs(tt, yy):
        return np.concatenate((yy[m:], accel(tt, yy[:m], yy[m:])))

    if cfg.method == "rk4-fixed":
        while t < t_stop:
            h = min(cfg.dt, t_end - t)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            # k + k is 2 * k exactly
            y_next = y + (h / 6.0) * (k1 + (k2 + k2) + (k3 + k3) + k4)
            y, k1 = _recorded(record, t + h, y_next, m)
            t = t + h
        return

    # rk45-adaptive (Dormand-Prince, local extrapolation)
    h = cfg.dt
    tol = cfg.tolerance
    while t < t_stop:
        h = min(h, t_end - t)
        ks = [k1]
        for i in range(1, 7):
            yi = y + h * sum(c * k for c, k in zip(_DP_A[i], ks))
            ks.append(rhs(t + _DP_C[i] * h, yi))
        y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks))
        y4 = y + h * sum(b * k for b, k in zip(_DP_B4, ks))
        scale = tol * (1.0 + np.abs(y5).max())
        err = float(np.abs(y5 - y4).max()) / scale
        if err <= 1.0:
            y, k1 = _recorded(record, t + h, y5, m)
            t = t + h
        factor = 0.9 * (err + 1e-16) ** (-0.2)
        h = h * min(5.0, max(0.2, factor))
        if h < 1e-14:
            raise RuntimeError(f"adaptive step collapsed at t={t}")

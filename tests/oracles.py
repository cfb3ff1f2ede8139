"""Independent oracles and fixtures that only the tests use: a random
polynomial chart with analytic derivatives, a generic Lagrangian
derivative built from the pieces of 1/2 w^T M2 w + b w + T0, and the
drift projection written out on its own."""

import numpy as np

from constrained_dynamics import Embedding
from constrained_dynamics.integrate import ProjectionError
from constrained_dynamics.reactions import _chol_solve


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

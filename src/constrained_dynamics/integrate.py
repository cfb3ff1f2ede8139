"""First-kind dynamics: G xdd = f^T + N^T, integrated with per-sample
diagnostics (constraint residuals, general-equation-of-dynamics residual,
energy) and optional manifold projection for drift control.

A run records one flat row per sample of what the march computed there;
the diagnostic columns are computed from those rows once, when it ends.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constraints import ConstraintSet, _kernel_basis
from .reactions import Realization, _chol_solve, _multiplier_solver
from .smooth import Array, EvaluationError, State, in_state_order, require_finite_state
from .system import MechanicalSystem


class OffManifoldError(ValueError):
    """Initial data violates the declared constraints."""


class ProjectionError(RuntimeError):
    """Gauss-Newton projection failed to converge."""


_NEEDS_HOLONOMIC = "projection requires a holonomic constraint set"
_EMPTY = np.zeros(0)  # the g of a sample on constraints that are not holonomic


def require_iteration_count(n, name: str) -> None:
    """Refuse an iteration count ``n`` that is not an integer >= 1 (a bool is not one)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {n!r}")


def _stop_time(t_end: float) -> float:
    """The last t from which :func:`_march` takes a step: ``t_end`` less a
    margin of 1e-12 max(1, |t_end|) that absorbs round-off in t."""
    return t_end - 1e-12 * max(1.0, abs(t_end))


def require_horizon(t0, t_end) -> None:
    """Refuse a ``t_end`` that is not finite, or that leaves the initial ``t0``
    at or past the march's stop time, where a run would be one sample."""
    if not (math.isfinite(t_end) and t0 < _stop_time(t_end)):
        raise ValueError(
            f"t_end must be finite and later than the initial t={t0}, got {t_end!r} "
            f"(the march stops 1e-12 max(1, |t_end|) short of t_end)"
        )


METHODS = ("rk4-fixed", "rk45-adaptive")
PROJECTIONS = ("off", "positional", "positional+velocity")


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = METHODS[0]
    dt: float = 1e-3
    tolerance: float = 1e-9  # local error tolerance, adaptive method only
    projection: str = PROJECTIONS[0]
    projection_tol: float = 1e-12
    projection_max_iter: int = 20

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.projection not in PROJECTIONS:
            raise ValueError(f"unknown projection mode {self.projection!r}")
        for name in ("dt", "tolerance", "projection_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        require_iteration_count(self.projection_max_iter, "projection_max_iter")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A first-kind run as aligned columns, one row per recorded sample.

    ``times`` is (k,); ``positions``, ``velocities``, the reaction ``N`` and
    the acceleration ``xdd`` are (k, m); the multipliers ``Lambda`` are
    (k, n).  ``Lambda``, ``N`` and ``xdd`` are those of the reaction that
    drives the run, ideal or of a realization.  The diagnostic columns are
    (k,) and measured against the declared constraints: ``g_norm`` (None
    unless they are holonomic), ``phi_norm``, ``gde_residual``, ``energy``,
    ``force_norm`` (max |f|, the scale of the gde-residual check) and
    ``phi_rate`` (max |phi_t + phi_x v + phi_v xdd|, d(phi)/dt along the run).
    They are computed once per run from the recorded rows (see
    :func:`_trajectory`).
    """

    times: Array
    positions: Array
    velocities: Array
    Lambda: Array
    N: Array
    xdd: Array
    g_norm: Optional[Array]
    phi_norm: Array
    gde_residual: Array
    energy: Array
    force_norm: Array
    phi_rate: Array

    def __len__(self) -> int:
        return self.times.size

    def max_diag(self, name: str) -> float:
        col = getattr(self, name)
        return float(col.max()) if col is not None and col.size else 0.0

    def to_csv(self) -> str:
        """Deterministic CSV dump; 17 significant digits, '\\n' endings."""
        m, n = self.positions.shape[1], self.Lambda.shape[1]
        cols = (
            ["t"]
            + [f"x{i+1}" for i in range(m)]
            + [f"v{i+1}" for i in range(m)]
            + [f"lambda{i+1}" for i in range(n)]
            + [f"N{i+1}" for i in range(m)]
            + ["g_norm", "phi_norm", "gde_residual", "energy"]
        )
        diags = [self.g_norm, self.phi_norm, self.gde_residual, self.energy]
        body = np.column_stack(
            [self.times, self.positions, self.velocities, self.Lambda, self.N]
            + [d for d in diags if d is not None]
        )
        # a non-holonomic run leaves the g_norm field empty
        slots = ["%.17g"] * (1 + 3 * m + n) + [
            "" if d is None else "%.17g" for d in diags
        ]
        # every row formatted by one `%`
        rows = ((",".join(slots) + "\n") * body.shape[0]) % tuple(body.ravel().tolist())
        return ",".join(cols) + "\n" + rows


def _accel_raw(solve, Ginv: Array, t, x, v) -> Array:
    """xdd = G^-1 (f^T + N^T) at (t, x, v) from one call of a multiplier ``solve``."""
    # hot path: no State construction, no ReactionResult packaging
    f, _, S, lam, _, _ = solve(t, x, v)
    return Ginv.dot(f) if S is None else Ginv.dot(f + lam.dot(S))


def acceleration(sys: MechanicalSystem, cs: Optional[ConstraintSet], s: State) -> Array:
    """xdd = G^-1 (f^T + N^T); free dynamics when no constraints."""
    return _accel_raw(_multiplier_solver(sys, cs), sys.mass.inverse, s.t, s.x, s.v)


def gde_residual(sys: MechanicalSystem, cs: ConstraintSet, s: State, xdd: Array) -> float:
    """max over virtual displacements xi of |(xdd^T G - f) xi|.

    Vanishes exactly along true solutions and, with the constraints
    satisfied, suffices for being one.
    """
    B = None if cs is None else cs.phi.d_v(s.t, s.x, s.v)[None]
    f = sys.force(s.t, s.x, s.v)
    return float(_gde(sys.mass.G, B, f[None], np.reshape(xdd, (1, -1)), [s.t])[0])


def _gde(G: Array, B: Optional[Array], F: Array, XDD: Array, times) -> Array:
    """Per row, max |(xdd^T G - f) xi| over a basis xi of ker phi_v, or of
    R^m when ``B``, the (k, n, m) stack of phi_v at ``times``, is None.

    Stacked ``@`` and the one stacked SVD of :func:`_kernel_basis` give the
    same bits as the same products taken one row at a time.
    """
    R = (XDD[:, None, :] @ G)[:, 0] - F
    if B is not None:
        R = (R[:, None, :] @ _kernel_basis(B, B.shape[1], times))[:, 0]
    return np.abs(R).max(axis=1)


def project_to_manifold(cs: ConstraintSet, Ginv: Array, t, x, v, tol, max_iter, velocity) -> tuple:
    """Pull a drifted (t, x, v) back to W = {g = 0, g_t + g_x v = 0}; return
    (x, v, g, g_x, g_t) with g, g_x and g_t taken at the projected x.

    Position: Gauss-Newton with the minimal correction in the metric G
    (``Ginv`` is G^-1); g is the residual the loop last tested.  Velocity,
    when ``velocity``: G-orthogonal projection onto the affine set
    g_x v = -g_t, with g_x and g_t evaluated once after the last correction;
    otherwise ``v`` is returned as given.  Both solve with the constraint
    Gram matrix g_x G^-1 g_x^T, so a degenerate g_x raises
    :class:`RegularityError`.  ``cs`` must be holonomic and ``max_iter`` an
    integer >= 1, as :class:`IntegratorConfig` requires of its count.
    """
    if not cs.is_holonomic:
        raise ValueError(_NEEDS_HOLONOMIC)
    require_iteration_count(max_iter, "max_iter")
    g = cs.generator
    for _ in range(max_iter):
        r = g(t, x)
        if np.abs(r).max(initial=0.0) <= tol:
            break
        J = g.grad_x(t, x)
        x = x - Ginv.dot(J.T).dot(_chol_solve(J.dot(Ginv).dot(J.T), r, t))
    else:
        raise ProjectionError(
            f"position projection did not reach tol={tol} in {max_iter} iterations "
            f"(residual {np.abs(g(t, x)).max():.3e})"
        )
    J, gt = g.grad_x(t, x), g.grad_t(t, x)
    if velocity:
        v = v - Ginv.dot(J.T).dot(_chol_solve(J.dot(Ginv).dot(J.T), gt + J.dot(v), t))
    return x, v, r, J, gt


def _sample(sys, cs, t, x, v, solve, gen=None, solved=None) -> tuple:
    """(xdd, row) at a point the march accepted, from one call of the run's
    multiplier solver ``solve`` (:func:`reactions._multiplier_solver`), or
    from ``solved``, what that solver returned at (t, x, v) without a jet
    or force given: the sample then calls neither the force nor the solve.

    xdd = G^-1 (f^T + N^T) is the next step's first stage; the row is the
    flat float64 record [t, x, v, Lambda, N, xdd, f, phi_v, phi_t + phi_x v,
    phi, g, V] (Lambda, phi_v, the drift, phi and g empty without
    constraints, g empty unless they are holonomic, V = 0 without a
    potential) that :func:`_trajectory` turns into columns.  Lambda, N and
    xdd are those of the reaction ``solve`` was built for.  ``gen`` is
    the (g, g_x, g_t) that :func:`project_to_manifold` took at (t, x), or
    None: the row's g, the solve's phi_v and g_t then come from it.

    A holonomic set's phi is the lift g_t + g_x v of its generator, formed
    here with the lift's operations from the solve's g_x, so a sample calls
    g, g_x and g_t once each when it is not projected.
    """
    require_finite_state(t, x, v)  # the State check, without building a State
    pot = sys.force.potential
    V = 0.0 if pot is None else float(pot(t, x))
    if cs is None:
        f = sys.force(t, x, v) if solved is None else solved[0]
        xdd = sys.mass.inverse.dot(f)
        N = [0.0] * x.size
        return xdd, np.array([t, *x.tolist(), *v.tolist(), *N, *xdd.tolist(), *f.tolist(), V])
    g, gx, gt = gen or ((cs.generator(t, x) if cs.is_holonomic else _EMPTY), None, None)
    if solved is None:
        f = sys.force(t, x, v)
        solved = solve(t, x, v, cs.jet(t, x, v, gx), f)
    f, B, S, lam, _, drift = solved
    N = lam.dot(S)
    xdd = sys.mass.inverse.dot(f + N)
    if cs.is_holonomic:
        phi = (cs.generator.grad_t(t, x) if gt is None else gt) + B.dot(v)  # the lift's value
    else:
        phi = cs.phi(t, x, v)
    # one array from a flat list of floats: cheaper than concatenating 12 pieces
    return xdd, np.array([
        t, *x.tolist(), *v.tolist(), *lam.tolist(), *N.tolist(), *xdd.tolist(), *f.tolist(),
        *B.ravel().tolist(), *drift.tolist(), *phi.tolist(), *g.tolist(), V,
    ])


def _trajectory(sys: MechanicalSystem, cs: Optional[ConstraintSet], rows) -> Trajectory:
    """The run's columns from its :func:`_sample` rows, with every
    diagnostic computed once for all rows by stacked numpy; a phi_v that
    fails the regularity rule raises for its earliest sample."""
    m = sys.dim
    n = 0 if cs is None else cs.n
    ng = n if n and cs.is_holonomic else 0
    widths = [1, m, m, n, m, m, m, n * m, n, n, ng]
    t, X, V, lam, N, xdd, f, B, drift, phi, g, pot = np.split(
        np.array(rows), np.cumsum(widths), axis=1
    )
    t = t[:, 0].copy()
    B = B.reshape(t.size, n, m)
    G = sys.mass.G
    T = 0.5 * (V[:, None, :] @ (G @ V[:, :, None]))[:, 0, 0]
    rate = drift + (B @ xdd[:, :, None])[:, :, 0]
    return Trajectory(
        t, X.copy(), V.copy(), lam.copy(), N.copy(), xdd.copy(),
        g_norm=np.abs(g).max(axis=1, initial=0.0) if ng else None,
        phi_norm=np.abs(phi).max(axis=1, initial=0.0),
        gde_residual=_gde(G, B if n else None, f, xdd, t),
        energy=T + pot[:, 0],
        force_norm=np.abs(f).max(axis=1, initial=0.0),
        phi_rate=np.abs(rate).max(axis=1, initial=0.0),
    )


def _check_initial(cs: Optional[ConstraintSet], init: State, tol: float = 1e-8):
    """Refuse initial data off the constraints, a NaN residual included, or
    constraints whose declared scleronomy fails at the initial state."""
    if cs is None:
        return
    cs.require_declared_scleronomy(init.t, init.x, init.v, "initial state")
    phi0 = float(np.abs(cs.phi(init.t, init.x, init.v)).max(initial=0.0))
    if not phi0 <= tol:
        raise OffManifoldError(f"initial phi residual {phi0:.6g} exceeds {tol}")
    if cs.is_holonomic:
        g0 = float(np.abs(cs.generator(init.t, init.x)).max(initial=0.0))
        if not g0 <= tol:
            raise OffManifoldError(f"initial g residual {g0:.6g} exceeds {tol}")


# Dormand-Prince 5(4): the stage sums y + h (0 + a_1 k_1 + a_2 k_2 + ...) of
# the tableau's rows written out, each adding its terms left to right; a
# zero coefficient keeps its term, so that 0.0 * inf is a NaN here too.
# Stage 7's row is y5's (b_i = a_7i, "first same as last"): y5 + 0.0 k_7
# has the bits of y5 whenever k_7 is finite.
def _dp2(y, h, k1):
    return [yj + h * (0 + 1 / 5 * a1) for yj, a1 in zip(y, k1)]


def _dp3(y, h, k1, k2):
    return [yj + h * (0 + 3 / 40 * a1 + 9 / 40 * a2) for yj, a1, a2 in zip(y, k1, k2)]


def _dp4(y, h, k1, k2, k3):
    return [
        yj + h * (0 + 44 / 45 * a1 + -56 / 15 * a2 + 32 / 9 * a3)
        for yj, a1, a2, a3 in zip(y, k1, k2, k3)
    ]


def _dp5(y, h, k1, k2, k3, k4):
    return [
        yj + h * (
            0 + 19372 / 6561 * a1 + -25360 / 2187 * a2 + 64448 / 6561 * a3 + -212 / 729 * a4
        )
        for yj, a1, a2, a3, a4 in zip(y, k1, k2, k3, k4)
    ]


def _dp6(y, h, k1, k2, k3, k4, k5):
    return [
        yj + h * (
            0 + 9017 / 3168 * a1 + -355 / 33 * a2 + 46732 / 5247 * a3 + 49 / 176 * a4
            + -5103 / 18656 * a5
        )
        for yj, a1, a2, a3, a4, a5 in zip(y, k1, k2, k3, k4, k5)
    ]


def _dp7(y, h, k1, k2, k3, k4, k5, k6):
    return [
        yj + h * (
            0 + 35 / 384 * a1 + 0.0 * a2 + 500 / 1113 * a3 + 125 / 192 * a4
            + -2187 / 6784 * a5 + 11 / 84 * a6
        )
        for yj, a1, a2, a3, a4, a5, a6 in zip(y, k1, k2, k3, k4, k5, k6)
    ]


def _dp_y4(y, h, k1, k2, k3, k4, k5, k6, k7):
    """The embedded fourth-order solution y4, against which y5 is tested."""
    return [
        yj + h * (
            0 + 5179 / 57600 * a1 + 0.0 * a2 + 7571 / 16695 * a3 + 393 / 640 * a4
            + -92097 / 339200 * a5 + 187 / 2100 * a6 + 1 / 40 * a7
        )
        for yj, a1, a2, a3, a4, a5, a6, a7 in zip(y, k1, k2, k3, k4, k5, k6, k7)
    ]


# (c_i, stage sum) of stages 2-6; stage 7 is taken at t + h, y5
_DP_STAGES = ((1 / 5, _dp2), (3 / 10, _dp3), (4 / 5, _dp4), (8 / 9, _dp5), (1.0, _dp6))


def _stalled(t: float, h: float) -> RuntimeError:
    """The error of a step h that rounds t + h back to t: the march would not advance."""
    return RuntimeError(f"a step of h={h} does not advance t={t}")


def _march(accel, record, t, q, p, a, t_end, cfg: IntegratorConfig) -> None:
    """Integrate the second-order system q'' = accel(t, q, p), p = q', from
    (t, q, p) to ``t_end`` with ``cfg.method``; ``a`` is accel(t, q, p).

    After every accepted step ``record(t, q, p)`` stores a sample and returns
    ``(q, p, a)``: the state to continue from (a caller may project it) and
    its acceleration, which is the next step's first stage.  RK4 calls
    ``accel`` 3 times per step, Dormand-Prince 6 times per attempt.  An
    accepted Dormand-Prince step hands ``record`` the very arrays its stage
    7 called ``accel`` with, at the same t: stage 7 is taken at y5, so a
    caller may reuse that evaluation for the sample.

    Both methods march y = (q, p) and the slopes k = (p, a) as lists of
    Python floats: on 2m <= 6 entries numpy's dispatch costs more than the
    arithmetic.  A float is the IEEE double an array entry is, and each
    entry takes the array expression's operations in its order, so every
    state has the bits arrays would give.  ``accel`` and ``record`` get
    arrays built from y.

    An :class:`EvaluationError` from a stage or a sample, or for a
    Dormand-Prince attempt with a non-finite y5 or error estimate, names
    where it arose (RK4 stage 2-4, Dormand-Prince stage 2-7, the error test
    or the sample) in the step from the last accepted (t, q, p).  A step h
    below half an ulp of t, for which t + h == t, raises RuntimeError
    naming t and h before any stage: the march would not advance.
    """
    # floats, so that a numpy scalar t, t_end, dt or tolerance leaves none in y
    t, t_end, dt, tol = float(t), float(t_end), float(cfg.dt), float(cfg.tolerance)
    t_stop = _stop_time(t_end)
    m = q.size
    y, k1 = q.tolist() + p.tolist(), p.tolist() + a.tolist()

    def rhs(tt, yy):
        return yy[m:] + accel(tt, np.array(yy[:m]), np.array(yy[m:])).tolist()

    def recorded(tt, yy, qq=None, pp=None):
        # record at yy, with its arrays qq, pp when given; go on from yy
        # itself unless record returns other arrays (a projected step)
        if qq is None:
            qq, pp = np.array(yy[:m]), np.array(yy[m:])
        try:
            q2, p2, aa = record(tt, qq, pp)
        except EvaluationError as exc:
            raise failed(exc, "the sample") from exc
        if q2 is not qq or p2 is not pp:
            yy = q2.tolist() + p2.tolist()
        return yy, yy[m:] + aa.tolist()

    def failed(exc, where):  # exc, naming where in the step from the last accepted (t, y)
        return EvaluationError(
            f"{exc} (in {where} of the step from the last accepted state t={t}, "
            f"position {y[:m]}, velocity {y[m:]})"
        )

    if cfg.method == "rk4-fixed":
        while t < t_stop:
            h = min(dt, t_end - t)
            if t + h == t:
                raise _stalled(t, h)
            hh, h6 = 0.5 * h, h / 6.0
            try:
                where = "RK4 stage 2"
                k2 = rhs(t + hh, [yj + hh * kj for yj, kj in zip(y, k1)])
                where = "RK4 stage 3"
                k3 = rhs(t + hh, [yj + hh * kj for yj, kj in zip(y, k2)])
                where = "RK4 stage 4"
                k4 = rhs(t + h, [yj + h * kj for yj, kj in zip(y, k3)])
            except EvaluationError as exc:
                raise failed(exc, where) from exc
            # k + k is 2 * k exactly
            y, k1 = recorded(t + h, [
                yj + h6 * (((a1 + (a2 + a2)) + (a3 + a3)) + a4)
                for yj, a1, a2, a3, a4 in zip(y, k1, k2, k3, k4)
            ])
            t = t + h
        return

    # rk45-adaptive (Dormand-Prince, local extrapolation)
    h = dt
    while t < t_stop:
        h = min(h, t_end - t)
        if t + h == t:
            raise _stalled(t, h)
        ks = [k1]
        try:
            for c, stage_sum in _DP_STAGES:
                ks.append(rhs(t + c * h, stage_sum(y, h, *ks)))
            y5 = _dp7(y, h, *ks)
            q5, p5 = np.array(y5[:m]), np.array(y5[m:])
            ks.append(y5[m:] + accel(t + h, q5, p5).tolist())
        except EvaluationError as exc:
            raise failed(exc, f"Dormand-Prince stage {len(ks) + 1}") from exc
        diff = [abs(a5 - a4) for a5, a4 in zip(y5, _dp_y4(y, h, *ks))]
        # Python's max, unlike ndarray.max, does not carry a NaN through
        if not all(map(math.isfinite, y5 + diff)):
            msg = f"non-finite y5 or error estimate in the attempt at t={t}, h={h}"
            raise failed(EvaluationError(msg), "the error test")
        err = max(diff) / (tol * (1.0 + max(map(abs, y5))))
        if err <= 1.0:
            y, k1 = recorded(t + h, y5, q5, p5)
            t = t + h
        factor = 0.9 * (err + 1e-16) ** (-0.2)
        h = h * min(5.0, max(0.2, factor))
        if h < 1e-14:
            raise RuntimeError(f"adaptive step collapsed at t={t}")


def integrate_first_kind(
    sys: MechanicalSystem,
    cs: Optional[ConstraintSet],
    init: State,
    t_end: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    real: Optional[Realization] = None,
) -> Trajectory:
    """Integrate G xdd = f^T + N^T from ``init`` to ``t_end``.

    N is the ideal reaction, or that of the realization ``real``; the
    diagnostics are measured against the declared constraint set either way.
    The run builds one :func:`reactions._multiplier_solver`, and every
    stage (:func:`_accel_raw`) and every sample solves with it.

    Evaluations per step: RK4 makes 3 right-hand-side evaluations per
    step and Dormand-Prince 6 per attempt.  A recorded sample costs one
    more, and its acceleration is the next step's first stage, so an RK4
    step costs 4 in all.  A Dormand-Prince sample at the state of its
    step's stage 7, which is y5, reuses that stage's solve, so an
    unprojected run costs 6 per attempt and 1 for the initial sample; a
    sample that projection moved solves afresh.  On a holonomic set a
    sample evaluates g, g_x and g_t once each, or, when projected with k
    Gauss-Newton corrections, g and g_x k + 1 times and g_t once.
    Projection without a holonomic ``cs`` is refused with a ValueError.
    """
    require_horizon(init.t, t_end)
    if cfg.projection != "off" and (cs is None or not cs.is_holonomic):
        raise ValueError(_NEEDS_HOLONOMIC)
    _check_initial(cs, init)

    Ginv, solve = sys.mass.inverse, _multiplier_solver(sys, cs, real)
    last = None  # (t, x, v, solve(t, x, v)) of the last Dormand-Prince stage
    stage_solve = solve
    if cfg.method == "rk45-adaptive":

        def stage_solve(t, x, v):
            nonlocal last
            last = t, x, v, solve(t, x, v)
            return last[3]

    # read at run start, so a rebound _accel_raw (a tracer's span) sees every stage
    accel = functools.partial(_accel_raw, stage_solve, Ginv)
    rows = []

    def record(t, x, v, gen=None):
        # the march hands an accepted step's stage-7 arrays over unchanged
        reuse = last is not None and last[0] == t and last[1] is x and last[2] is v
        xdd, row = _sample(sys, cs, t, x, v, solve, gen, last[3] if reuse else None)
        rows.append(row)
        return x, v, xdd

    def project_and_record(t, x, v):
        require_finite_state(t, x, v)  # as at a sample, before any projection work
        x, v, *gen = project_to_manifold(
            cs, Ginv, t, x, v, cfg.projection_tol, cfg.projection_max_iter,
            cfg.projection == "positional+velocity",
        )
        return record(t, x, v, gen)

    t, x, v = init.t, init.x.copy(), init.v.copy()
    # a sample's phi_v failing the regularity rule before the failure comes first
    with in_state_order(lambda: rows and _trajectory(sys, cs, rows)):
        _, _, a = record(t, x, v)
        step = record if cfg.projection == "off" else project_and_record
        _march(accel, step, t, x, v, a, t_end, cfg)
    return _trajectory(sys, cs, rows)

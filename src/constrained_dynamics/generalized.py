"""Generalized coordinates: embeddings u(t, y), the pullback Lagrangian,
second-kind equations, covariance of the Lagrangian derivative, and
first/second-kind trajectory matching.

The ambient Lagrangian is fixed to the kinetic energy T = 1/2 v^T G v with
constant G, so its Lagrangian derivative is simply (G xdd)^T.  The pullback
L(t, y, w) = T(t, u, u_t + u_y w) splits exactly into

    L = 1/2 w^T M2 w + b w + T0,
    M2 = u_y^T G u_y,  b = u_t^T G u_y,  T0 = 1/2 u_t^T G u_t,

with M2 symmetric positive definite wherever the chart is regular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .constraints import SCLERONOMY_TOL, require_regular
from .integrate import IntegratorConfig, Trajectory, _csv, _march, require_horizon
from .smooth import Array, State, in_state_order, shaped
from .system import ForceField, MassMatrix, MechanicalSystem


_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))
_TIME_SHIFTS = (1e-3, 0.7, 3.1)  # the shifts tau at which u_t=None is checked


class ChartError(RuntimeError):
    """Chart degeneration or domain exit during a generalized-coordinate run."""


@dataclass(frozen=True)
class GeneralizedState:
    t: float
    y: Array
    w: Array

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, float).reshape(-1))
        object.__setattr__(self, "w", np.asarray(self.w, float).reshape(-1))
        if self.y.size != self.w.size:
            raise ValueError("y and w must have equal length")


@dataclass(frozen=True)
class Embedding:
    """Chart u(t, y) : R x Y -> R^m with its first and second derivatives.

    ``u_yy`` is required, and so are ``u_tt`` and ``u_ty`` when ``u_t`` is
    given: a chart built without one raises ``TypeError`` naming it.  A
    chart with ``u_t=None`` declares that it does not depend on t: u_tt and
    u_ty must then be None too, ``d_t``, ``d_tt`` and ``d_ty`` return zeros,
    and the second-kind kernels leave out every term in them (see
    :meth:`require_declared_time_independence`).  The domain is the box
    [domain_lo, domain_hi], unbounded where a bound is None.
    """

    dim: int  # m
    r: int
    u: Callable[[float, Array], Array]
    u_t: Optional[Callable[[float, Array], Array]]  # None: u does not depend on t
    u_y: Callable[[float, Array], Array]  # (m, r)
    u_tt: Optional[Callable[[float, Array], Array]] = None
    u_ty: Optional[Callable[[float, Array], Array]] = None  # (m, r)
    u_yy: Callable[[float, Array], Array] = None  # (m, r, r); required, see __post_init__
    domain_lo: Optional[Array] = None
    domain_hi: Optional[Array] = None
    _box: Tuple[list, list] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.u_t is None:
            given = [k for k in ("u_tt", "u_ty") if getattr(self, k) is not None]
            if given:
                raise ValueError(
                    f"a chart without u_t does not depend on t; {' and '.join(given)} "
                    "must be None too"
                )
        required = ("u_yy",) if self.u_t is None else ("u_tt", "u_ty", "u_yy")
        missing = [k for k in required if getattr(self, k) is None]
        if missing:
            raise TypeError(f"Embedding needs {' and '.join(missing)}")
        # the domain box as float lists, so that in_domain makes no numpy call
        lo = -math.inf if self.domain_lo is None else self.domain_lo
        hi = math.inf if self.domain_hi is None else self.domain_hi
        box = tuple(np.broadcast_to(np.asarray(b, float), self.r).tolist() for b in (lo, hi))
        object.__setattr__(self, "_box", box)

    def require_declared_time_independence(self, t: float, y: Array, where: str) -> None:
        """Refuse, with a ValueError naming ``where`` and tau, a chart declared
        time-independent (``u_t=None``) whose |u(t + tau, y) - u(t, y)| is
        not <= SCLERONOMY_TOL, by exceeding it or being NaN, at one of the
        fixed shifts tau."""
        if self.u_t is not None:
            return
        u0 = self.value(t, y)
        for tau in _TIME_SHIFTS:
            gap = float(np.abs(self.value(t + tau, y) - u0).max())
            if not gap <= SCLERONOMY_TOL:
                raise ValueError(
                    f"{where}: chart declared time-independent (u_t=None) has "
                    f"|u(t + tau, y) - u(t, y)| = {gap:.3e} > {SCLERONOMY_TOL:g} "
                    f"at t={t}, tau={tau}"
                )

    def value(self, t, y):
        return shaped(self.u(t, y), (self.dim,))

    def d_t(self, t, y):
        if self.u_t is None:
            return np.zeros(self.dim)
        return shaped(self.u_t(t, y), (self.dim,))

    def d_y(self, t, y):
        return shaped(self.u_y(t, y), (self.dim, self.r))

    def d_tt(self, t, y):
        if self.u_t is None:
            return np.zeros(self.dim)
        return shaped(self.u_tt(t, y), (self.dim,))

    def d_ty(self, t, y):
        if self.u_t is None:
            return np.zeros((self.dim, self.r))
        return shaped(self.u_ty(t, y), (self.dim, self.r))

    def d_yy(self, t, y):
        return shaped(self.u_yy(t, y), (self.dim, self.r, self.r))

    def velocity(self, t, y, w):
        """v = u_t + u_y w at (t, y), by :func:`_chart_velocity`."""
        Ut = None if self.u_t is None else self.d_t(t, y)
        return _chart_velocity(Ut, self.d_y(t, y), w)

    def in_domain(self, y: Array) -> bool:
        """Whether lo <= y <= hi for every coordinate; a NaN y is in no domain."""
        lo, hi = self._box
        return all(a <= yi <= b for a, yi, b in zip(lo, y.tolist(), hi))

    def require_in_domain(self, t, Y: Array) -> None:
        """Refuse a stack ``Y`` (k, r) of points at times ``t`` (k,) with a row
        that :meth:`in_domain` would refuse: the ChartError names the earliest
        such row, its first coordinate that is out and the bound it misses."""
        lo, hi = self._box
        inside = ((Y >= lo) & (Y <= hi)).all(axis=1)
        if inside.all():
            return
        i = int(np.argmin(inside))
        for j, (a, yj, b) in enumerate(zip(lo, Y[i].tolist(), hi)):
            if not a <= yj <= b:
                if yj < a:
                    miss = f"< lower bound {a}"
                elif yj > b:
                    miss = f"> upper bound {b}"
                else:  # NaN compares false with both bounds
                    miss = "is not a number"
                raise ChartError(
                    f"y={Y[i]} outside the chart domain at t={float(t[i])}: y[{j}]={yj} {miss}"
                )


def _chart_jet(emb: Embedding, t: float, y: Array):
    """(u, u_t, u_y, u_tt, u_ty, u_yy) at (t, y): one call of each chart map.
    A chart without u_t makes three calls and has None in the time slots."""
    if emb.u_t is None:
        return emb.value(t, y), None, emb.d_y(t, y), None, None, emb.d_yy(t, y)
    return (
        emb.value(t, y), emb.d_t(t, y), emb.d_y(t, y),
        emb.d_tt(t, y), emb.d_ty(t, y), emb.d_yy(t, y),
    )


def _chart_velocity(Ut: Optional[Array], Uy: Array, w: Array) -> Array:
    """v = u_t + u_y w; u_y w alone when u_t is None."""
    Uyw = Uy.dot(w)
    return Uyw if Ut is None else Ut + Uyw


def _force_row(
    f: ForceField, t: float, u: Array, u_t: Optional[Array], u_y: Array, w: Array
) -> Array:
    """Q = f(t, u, u_t + u_y w) u_y, the force row pulled back through the chart."""
    return f(t, u, _chart_velocity(u_t, u_y, w)).dot(u_y)


_METRIC = "chart metric M2 = u_y^T G u_y"


def _regular_metric(M2: Array, tol: float, t: float) -> Tuple[Array, Array]:
    """(lam, V) of M2 = V diag(lam) V^T once its eigenvalues, which are its
    singular values, pass the regularity rule at ``tol``; raises
    :class:`ChartError` otherwise.  The eigensolver fails to converge only
    on a non-finite entry, which counts as a non-finite spectrum."""
    try:
        lam, V = np.linalg.eigh(M2)
    except np.linalg.LinAlgError:
        require_regular(np.nan, np.nan, tol, _METRIC, t, ChartError)
    require_regular(lam[0], lam[-1], tol, _METRIC, t, ChartError)
    return lam, V


def _metric_solve(M2: Array, rhs: Array, t: float) -> Array:
    """M2^-1 rhs for a chart metric M2 checked regular at 1e-12.

    A 1x1 metric is its own eigenvalue, and rhs / M2 gives the same bits as
    the eigensolver.  A 2x2 metric [[a, b], [b, d]] (b read below the
    diagonal, as the eigensolver does) has the eigenvalues h -+ s with
    h = (a + d)/2 and s = hypot((a - d)/2, b); the smaller is taken as
    det / (h + s) when h + s > 0, since h - s cancels near a pole of the
    chart and det does not.  It is solved by Cramer's rule.  A larger
    metric is solved as V (rhs V / lam) from its eigendecomposition.
    """
    r = M2.shape[0]
    if r == 1:
        m = M2.item()
        if not 1e-12 < m < math.inf:  # the rule at 1e-12 for lo = hi = m
            require_regular(m, m, 1e-12, _METRIC, t, ChartError)
        return rhs / m
    if r == 2:
        (a, _), (b, d) = M2.tolist()
        h = 0.5 * (a + d)
        s = math.hypot(0.5 * (a - d), b)
        det = a * d - b * b
        hi = h + s
        require_regular(det / hi if hi > 0 else h - s, hi, 1e-12, _METRIC, t, ChartError)
        r0, r1 = rhs.tolist()
        return np.array([(d * r0 - b * r1) / det, (a * r1 - b * r0) / det])
    lam, V = _regular_metric(M2, 1e-12, t)
    return V @ ((rhs @ V) / lam)


def pushforward_state(emb: Embedding, gs: GeneralizedState) -> State:
    """x = u(t, y), v = u_t + u_y w."""
    emb.require_in_domain([gs.t], gs.y[None])
    x = emb.value(gs.t, gs.y)
    return State(t=gs.t, x=x, v=emb.velocity(gs.t, gs.y, gs.w))


@dataclass(frozen=True)
class PullbackLagrangian:
    """L(t, y, w) = kinetic energy pulled back through an embedding."""

    emb: Embedding
    mass: MassMatrix

    def decompose(self, t: float, y: Array) -> Tuple[Array, Array, float]:
        """(M2, b, T0) of the exact quadratic/linear/constant split in w."""
        G = self.mass.G
        Ut = self.emb.d_t(t, y)
        Uy = self.emb.d_y(t, y)
        M2 = Uy.T @ G @ Uy
        b = Ut @ G @ Uy
        T0 = 0.5 * float(Ut @ G @ Ut)
        return M2, b, T0

    def value(self, t: float, y: Array, w: Array) -> float:
        M2, b, T0 = self.decompose(t, y)
        return 0.5 * float(w @ M2 @ w) + float(b @ w) + T0


def decompose_T(lag: PullbackLagrangian, t: float, y) -> Tuple[Array, Array, float]:
    """(M2, b, T0); raises ChartError unless lam_min(M2) > 1e-10 max(1, lam_max)."""
    y = np.asarray(y, float).reshape(-1)
    M2, b, T0 = lag.decompose(t, y)
    _regular_metric(M2, 1e-10, t)
    return M2, b, T0


def _lagrange_terms(G: Array, jet, w: Array):
    """(M2, M2dot w, bdot, L_y) of the pullback Lagrangian at the chart jet
    of :func:`_chart_jet` and the velocity w: the metric, the total time
    derivatives of M2 (applied to w) and of b along w, and the row dL/dy.

    The jet is contracted with w before anything else.  D = u_ty + u_yy w is
    the total time derivative of u_y, so

        M2dot w = D^T (G u_y w) + (G u_y)^T (D w),
        bdot    = (u_tt + u_ty w)^T G u_y + (G u_t)^T D,
        L_y     = D^T G (u_t + u_y w),

    the last because u_yy is symmetric in its two y indices.  Each term is
    formed on its own and none is cancelled against another, so [L] built
    from them is the Lagrangian derivative, not the pushed-forward Newton
    law it equals.

    For a chart without u_t (None in the jet's time slots), D = u_yy w,
    L_y = D^T (G u_y w), and bdot, which is zero, is None.
    """
    _, Ut, Uy, Utt, Uty, Uyy = jet
    GUy = G.dot(Uy)
    GUyw = GUy.dot(w)
    # ndarray.dot matches @ bit for bit on these 1-D and 2-D operands, not
    # on the 3-D u_yy, which keeps @
    D = Uyy @ w if Ut is None else Uty + Uyy @ w
    DT = D.T
    DT_GUyw = DT.dot(GUyw)  # without u_t, also L_y
    M2dot_w = DT_GUyw + GUy.T.dot(D.dot(w))
    M2 = Uy.T.dot(GUy)
    if Ut is None:
        return M2, M2dot_w, None, DT_GUyw
    GUt = G.dot(Ut)
    bdot = (Utt + Uty.dot(w)).dot(GUy) + GUt.dot(D)
    return M2, M2dot_w, bdot, DT.dot(GUt + GUyw)


def _bracket(terms, a: Array) -> Array:
    """[L] = M2 a + M2dot w + bdot - L_y from the terms (M2, M2dot w, bdot, L_y),
    without bdot when it is None."""
    M2, M2dot_w, bdot, L_y = terms
    head = M2 @ a + M2dot_w
    return (head if bdot is None else head + bdot) - L_y


def lagrangian_derivative(lag: PullbackLagrangian, t: float, y, w, a) -> Array:
    """Row [L] = d/dt(dL/dw) - dL/dy at the second-order jet (t, y, w, a)."""
    y = np.asarray(y, float).reshape(-1)
    w = np.asarray(w, float).reshape(-1)
    a = np.asarray(a, float).reshape(-1)
    return _bracket(_lagrange_terms(lag.mass.G, _chart_jet(lag.emb, t, y), w), a)


def pullback_lagrangian(emb: Embedding, mass: MassMatrix) -> PullbackLagrangian:
    return PullbackLagrangian(emb=emb, mass=mass)


@dataclass(frozen=True, eq=False)
class GeneralizedTrajectory:
    """A second-kind run as aligned columns: ``times`` (k,) and the chart
    coordinates ``y``, velocities ``w``, accelerations ``a`` and generalized
    forces ``Q``, each (k, r)."""

    times: Array
    y: Array
    w: Array
    a: Array
    Q: Array

    def __len__(self) -> int:
        return self.times.size

    def to_csv(self) -> str:
        r = self.y.shape[1]
        cols = (
            ["t"]
            + [f"y{i+1}" for i in range(r)]
            + [f"w{i+1}" for i in range(r)]
            + [f"Q{i+1}" for i in range(r)]
        )
        body = np.column_stack([self.times, self.y, self.w, self.Q])
        return _csv(cols, ",".join(["%.17g"] * (1 + 3 * r)), body)


def second_kind_acceleration(
    lag: PullbackLagrangian, f: ForceField, t: float, y: Array, w: Array
) -> Tuple[Array, Array]:
    """(ydd, Q): ydd solves [L] = Q for the pulled-back force row Q of f,
    via the normal form M2 ydd = Q^T - M2dot w - bdot + L_y.

    The chart jet is evaluated once and serves both Q and the terms of
    :func:`_lagrange_terms`, which contract it with w.  The solve is
    :func:`_metric_solve` (closed form for r <= 2), which raises
    :class:`ChartError` when the metric is degenerate or non-finite.
    """
    jet = _chart_jet(lag.emb, t, y)
    M2, M2dot_w, bdot, L_y = _lagrange_terms(lag.mass.G, jet, w)
    Q = _force_row(f, t, *jet[:3], w)
    # the normal form keeps its own order of summation, not [L] at ydd = 0
    rhs = (Q - M2dot_w if bdot is None else Q - M2dot_w - bdot) + L_y
    return _metric_solve(M2, rhs, t), Q


def integrate_second_kind(
    emb: Embedding,
    sys: MechanicalSystem,
    init: GeneralizedState,
    t_end: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> GeneralizedTrajectory:
    """Integrate the second-kind equations [L] = Q on the chart, with Q the
    system's force field pulled back through it.

    Aborts with :class:`ChartError` naming t when the solution leaves the
    chart domain or turns NaN, or the metric degenerates; a non-finite
    initial w is refused with a ValueError.  A chart declared
    time-independent is checked at the initial point, once that point is
    found inside the chart domain.

    Evaluations per step: 4 calls of :func:`second_kind_acceleration`, each
    of which evaluates the chart jet once; the acceleration and Q recorded
    with each sample come from one call, and that acceleration is the next
    step's first stage.  Each sample is recorded as one flat float64 row
    [t, y, w, a, Q], split into the columns once when the run ends.
    """
    require_horizon(init.t, t_end)
    if not all(map(math.isfinite, init.w.tolist())):  # a non-finite y is a ChartError
        raise ValueError(f"initial velocity w must be finite at t={init.t}")
    # Dormand-Prince on the chart fails the equivalence check (see README)
    if cfg.method != "rk4-fixed":
        raise NotImplementedError("second-kind integration uses the rk4-fixed method")
    lag = pullback_lagrangian(emb, sys.mass)

    def outside(t, y):
        return ChartError(f"trajectory left the chart domain at t={t}, y={y}")

    # a NaN or outside y fails as such, and not as a NaN time shift of the chart
    if not emb.in_domain(init.y):
        raise outside(init.t, init.y)
    emb.require_declared_time_independence(init.t, init.y, "integrate_second_kind")

    def accel_and_Q(t, y, w):
        if not emb.in_domain(y):
            raise outside(t, y)
        return second_kind_acceleration(lag, sys.force, t, y, w)

    rows = []

    def record(t, y, w):
        a, Q = accel_and_Q(t, y, w)
        rows.append(np.array([t, *y.tolist(), *w.tolist(), *a.tolist(), *Q.tolist()]))
        return y, w, a

    t, y, w = init.t, init.y.copy(), init.w.copy()
    _, _, a = record(t, y, w)
    _march(lambda t, y, w: accel_and_Q(t, y, w)[0], record, t, y, w, a, t_end, cfg)
    r = init.y.size
    t, Y, W, A, Q = np.split(np.array(rows), np.cumsum([1, r, r, r]), axis=1)
    return GeneralizedTrajectory(t[:, 0].copy(), Y.copy(), W.copy(), A.copy(), Q.copy())


def _pushforward_jet(jet, w: Array, a: Array):
    u, Ut, Uy, Utt, Uty, Uyy = jet
    curve = np.einsum("pij,i,j->p", Uyy, w, w)
    if Utt is not None:
        curve = Utt + 2.0 * Uty @ w + curve
    return u, _chart_velocity(Ut, Uy, w), curve + Uy @ a


def covariance_residual(
    emb: Embedding,
    mass: MassMatrix,
    f: Optional[ForceField],
    t: float,
    y,
    w,
    a,
) -> float:
    """inf-norm defect of the covariance identity at a second-order jet.

    The ambient Lagrangian derivative (G xdd)^T is pushed through u_y and
    compared against the chart-side [L] built from the terms of
    :func:`_lagrange_terms`; with a force field both sides subtract their
    force rows.  The force is evaluated once, at the pushed-forward (t, x, v),
    which is also where the chart's force row Q = f u_y takes it.
    """
    y = np.asarray(y, float).reshape(-1)
    w = np.asarray(w, float).reshape(-1)
    a = np.asarray(a, float).reshape(-1)
    jet = _chart_jet(emb, t, y)
    x, v, xdd = _pushforward_jet(jet, w, a)
    ambient_row = xdd @ mass.G
    chart_row = _bracket(_lagrange_terms(mass.G, jet, w), a)
    if f is not None:
        fx = f(t, x, v)
        ambient_row = ambient_row - fx
        chart_row = chart_row - fx.dot(jet[2])
    return float(np.abs(ambient_row @ jet[2] - chart_row).max())


_INVERT_TOL = 1e-12  # |u(t, y) - x|_inf at which chart inversion stops


def _chart_invert(
    emb: Embedding, mass: MassMatrix, t: float, x: Array, y0: Array,
    r0: Optional[Array] = None, tol: float = _INVERT_TOL, max_iter: int = 20,
) -> Tuple[Array, float]:
    """Solve u(t, y) = x by G-weighted Gauss-Newton from y0; returns (y, residual).

    ``r0`` is u(t, y0) - x when the caller has it already; the residual
    returned is |u(t, y) - x|_inf.  Iteration stops once that is <= tol;
    when a step no longer lowers the Gauss-Newton objective r^T G r, which
    happens once x lies off the chart image by more than tol, as a first-kind
    position does when it drifts off the constraint manifold; or after a
    step below sqrt(eps) relative to y, since the next step, about its
    square, would be lost in rounding.  The best point found is returned.
    The Gauss-Newton step is :func:`_metric_solve` on u_y^T G u_y.
    Raises :class:`ChartError` when that metric is degenerate or the residual
    stays above 1e-6.
    """
    y = y0.copy()
    r = emb.value(t, y) - x if r0 is None else r0
    G = mass.G
    obj = None  # r^T G r, formed once a step is needed
    for _ in range(max_iter):
        if np.abs(r).max() <= tol:
            break
        if obj is None:
            obj = float(r @ G @ r)
        J = emb.d_y(t, y)
        JG = J.T @ G
        step = _metric_solve(JG @ J, JG @ r, t)
        y_next = y - step
        r_next = emb.value(t, y_next) - x
        obj_next = float(r_next @ G @ r_next)
        if not obj_next < obj:
            break
        y, r, obj = y_next, r_next, obj_next
        if np.abs(step).max() <= _SQRT_EPS * (1.0 + np.abs(y).max()):
            break
    resid = float(np.abs(r).max())
    if not resid <= 1e-6:
        raise ChartError(
            f"chart inversion diverged at t={t} (residual {resid:.3e}); "
            "trajectory left the chart"
        )
    return y, resid


def _hermite(tk: Array, Y: Array, W: Array, ts: Array) -> Tuple[Array, Array]:
    """Cubic Hermite interpolant through values Y and slopes W at the knots
    tk, and its derivative, at the times ts.

    Per interval the cubic is c3 + c2 s + c1 s^2 + c0 s^3 with s = t - tk[i],
    summed in increasing powers of s.  The coefficients and that order of
    summation are those of the standard piecewise-polynomial spline, which
    the tests hold it to bit for bit.  Times outside the knots use the end
    cubics.
    """
    if tk.size < 2:
        raise ValueError("Hermite resampling needs at least 2 knots")
    dx = np.diff(tk)
    if np.any(dx <= 0):
        raise ValueError("Hermite knots must be strictly increasing")
    dx = dx[:, None]
    slope = np.diff(Y, axis=0) / dx
    tt = (W[:-1] + W[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = tt / dx, (slope - W[:-1]) / dx - tt, W[:-1], Y[:-1]
    i = np.clip(np.searchsorted(tk, ts, side="right") - 1, 0, tk.size - 2)
    s = (ts - tk[i])[:, None]
    c0, c1, c2, c3 = c0[i], c1[i], c2[i], c3[i]
    ss = s * s
    value = ((c3 + c2 * s) + c1 * ss) + c0 * (ss * s)
    slope_at = (c2 + (c1 * 2.0) * s) + (c0 * 3.0) * ss
    return value, slope_at


@dataclass(frozen=True)
class MatchReport:
    sup_position: float
    sup_velocity: float
    max_inversion_residual: float


def match_trajectories(
    traj_x: Trajectory,
    emb: Embedding,
    traj_y: GeneralizedTrajectory,
    mass: Optional[MassMatrix] = None,
) -> MatchReport:
    """Compare a first-kind run against a second-kind run pushed through the chart.

    The first-kind grid is authoritative; (y, w) are resampled onto it by
    cubic Hermite interpolation.  Also inverts the chart per sample to report
    u(t,y)=x solvability residuals.  The maps are evaluated sample by
    sample, and the residuals r0 = u(t_i, y(t_i)) - x_i and the sups are
    formed for all samples at once.  Gauss-Newton runs, in sample order,
    only where |r0|_inf is not <= its tolerance, starting from the
    resampled y(t_i), which already lies close to the answer, with that r0;
    every other sample's inversion residual is its |r0|_inf, which is what
    :func:`_chart_invert` returns before its first step.  A sample with a
    NaN in r0 goes to :func:`_chart_invert` too, which raises; a NaN
    velocity difference makes ``sup_velocity`` NaN.
    """
    if mass is None:
        mass = MassMatrix(np.eye(emb.dim))
    ty = traj_y.times
    times = traj_x.times
    Ys, Ws = _hermite(ty, traj_y.y, traj_y.w, times)
    if times[0] < ty[0] - 1e-12 or times[-1] > ty[-1] + 1e-12:
        raise ValueError("first-kind grid extends beyond the second-kind run")
    X = traj_x.positions

    def inversion_residuals(R0: Array) -> Array:
        """|u(t, y) - x|_inf after inverting the chart on the rows of R0 that miss."""
        resid = np.abs(R0).max(axis=1)
        for i in np.flatnonzero(~(resid <= _INVERT_TOL)).tolist():
            resid[i] = _chart_invert(emb, mass, times[i], X[i], Ys[i], R0[i])[1]
        return resid

    U = np.empty((times.size, emb.dim))
    V = np.empty((times.size, emb.dim))
    i = 0  # the inversions of the samples before a failing sample i come first
    with in_state_order(lambda: inversion_residuals(U[:i] - X[:i])):
        for i, (t, y, w) in enumerate(zip(times, Ys, Ws)):
            U[i] = emb.value(t, y)
            V[i] = emb.velocity(t, y, w)
    R0 = U - X
    resid = inversion_residuals(R0)
    # ndarray.max carries a NaN through; the inversion has refused one in R0
    return MatchReport(
        sup_position=float(np.abs(R0).max(initial=0.0)),
        sup_velocity=float(np.abs(traj_x.velocities - V).max(initial=0.0)),
        max_inversion_residual=float(resid.max(initial=0.0)),
    )

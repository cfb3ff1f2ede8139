"""Constraint sets phi(t, x, v) = 0: evaluation, regularity, virtual bases.

Holonomy is declared, never inferred: a holonomic set is built with
:func:`lift_holonomic` from a geometric generator g(t, x), and the lift
phi = g_t + g_x v takes its Jacobians from g's second derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .smooth import Array, ConfigurationMap, SmoothMap, State

RANK_TOL_FACTOR = 1e-8
# largest |phi_t| of a set declared scleronomic, and largest |u(t + tau, y) -
# u(t, y)| of a chart declared time-independent
SCLERONOMY_TOL = 1e-12


class RegularityError(RuntimeError):
    """A constraint matrix (phi_v, the Gram matrix or a realization matrix)
    failed the regularity rule at time t; ``sigma_min`` is its smallest
    singular value or pivot."""

    def __init__(self, msg: str, sigma_min: float = 0.0, t: float = float("nan")):
        super().__init__(msg)
        self.sigma_min = sigma_min
        self.t = t


def require_regular(lo, hi, tol: float, what: str, t: Optional[float], error=RegularityError):
    """The one regularity rule: lo > tol * max(1, hi), where lo and hi are the
    smallest and largest singular value, eigenvalue or Cholesky pivot of the
    matrix named ``what``.  A NaN or infinite lo or hi fails it.

    On failure raises ``error`` (a :class:`RegularityError` also carries lo
    and t) with a message that names the matrix and t and says whether the
    spectrum was non-finite or degenerate.  ``t`` is None for a matrix that
    does not depend on time, such as a linear reparametrization.
    """
    finite = math.isfinite(lo) and math.isfinite(hi)
    if finite and lo > tol * max(1.0, hi):
        return
    when = "at every t" if t is None else f"at t={t}"
    msg = f"{what} is {'degenerate' if finite else 'non-finite'} {when}"
    msg += f" (min {lo:.3e}, max {hi:.3e}, tol {tol:g})"
    raise RegularityError(msg, float(lo), t) if error is RegularityError else error(msg)


def require_regular_stack(lo, hi, tol: float, what: str, times, error=RegularityError):
    """:func:`require_regular` for k matrices at once: ``lo``, ``hi`` and
    ``times`` hold one entry per matrix, and the earliest matrix that fails
    the rule raises."""
    i = int(np.argmin(lo > tol * np.maximum(1.0, hi)))  # the first failure, or the first of all
    require_regular(lo[i], hi[i], tol, what, float(times[i]), error)


def regular_svd(M: Array, tol: float, what: str, t, error=RegularityError):
    """(U, s, Vt), the full SVD of M, once its singular values pass
    :func:`require_regular`.  LAPACK's SVD does not converge on a NaN entry,
    which counts as a non-finite spectrum.

    M may also be a (k, a, b) stack with its k times ``t``: one stacked SVD,
    and the earliest matrix that fails the rule raises.
    """
    stack = M.ndim == 3
    try:
        U, s, Vt = np.linalg.svd(M)
    except np.linalg.LinAlgError:
        if not stack:
            require_regular(math.nan, math.nan, tol, what, t, error)
        for Mi, ti in zip(M, t):  # one unfactorable matrix fails the stack
            regular_svd(Mi, tol, what, float(ti), error)
        raise
    check = require_regular_stack if stack else require_regular
    check(s[..., -1], s[..., 0], tol, what, t, error)
    return U, s, Vt


@dataclass(frozen=True)
class ConstraintSet:
    """n differential constraints on an m-dimensional configuration.

    The kind of a set is read off the maps it holds.  A set with a
    ``generator`` g is holonomic: its phi is, by declaration, the lift
    g_t + g_x v, and the multiplier solve reads g (see :meth:`jet`); a phi
    that is not that lift is built with :meth:`general`.  A set with
    ``affine_a`` and ``affine_A``, a holonomic one included, is affine in v:
    phi = a + A v.

    ``scleronomic`` declares that phi does not depend on t, so that phi_t,
    and for a holonomic set g_t, g_tt and g_tx, vanish identically; the
    multiplier solve then skips them.  False, the default, claims nothing.
    """

    dim: int
    n: int
    phi: SmoothMap
    affine_a: Optional[Callable[[float, Array], Array]] = None
    affine_A: Optional[Callable[[float, Array], Array]] = None
    generator: Optional[ConfigurationMap] = None
    scleronomic: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}; no constraints is written None")
        if self.n >= self.dim:
            raise ValueError(f"need n < m, got n={self.n}, m={self.dim}")
        if self.phi is not None and self.phi.dim != self.n:
            raise ValueError("phi output dimension disagrees with n")

    @property
    def is_holonomic(self) -> bool:
        return self.generator is not None

    def require_declared_scleronomy(self, t: float, x: Array, v: Array, where: str) -> None:
        """Refuse, with a ValueError naming ``where``, a set declared
        scleronomic whose |phi_t| is not <= SCLERONOMY_TOL at (t, x, v): one
        that exceeds it or is NaN."""
        if not self.scleronomic:
            return
        rate = float(np.abs(self.phi.d_t(t, x, v)).max(initial=0.0))
        if not rate <= SCLERONOMY_TOL:
            raise ValueError(
                f"{where}: constraints declared scleronomic have |phi_t| = {rate:.3e} "
                f"> {SCLERONOMY_TOL:g} at t={t}"
            )

    def jet(self, t: float, x: Array, v: Array, phi_v: Optional[Array] = None) -> Tuple:
        """(phi_v, phi_t + phi_x v) at (t, x, v): the constraint terms of the
        multiplier solve.

        A holonomic set reads them off its generator, with g_tx evaluated
        once: phi_v = g_x and phi_t + phi_x v = (g_tt + g_tx v) + (g_tx +
        v g_xx) v, the same operations in the same order as the lift's
        Jacobians.  Any other set takes them from phi.  A scleronomic set
        leaves out the terms it declares zero: the drift is (v g_xx) v, or
        phi_x v, which differs from the full sum at most in the sign of an
        exact zero.  A holonomic set given ``phi_v``, its g_x at (t, x)
        already evaluated, returns it and does not call g_x again.
        """
        if self.is_holonomic:
            g = self.generator
            B = g.grad_x(t, x) if phi_v is None else phi_v
            if self.scleronomic:
                return B, v.dot(g.grad_xx(t, x)).dot(v)
            gtx = g.grad_tx(t, x)
            drift = g.grad_tt(t, x) + gtx.dot(v)
            return B, drift + (gtx + v.dot(g.grad_xx(t, x))).dot(v)
        phi = self.phi
        if self.scleronomic:
            return phi.d_v(t, x, v), phi.d_x(t, x, v).dot(v)
        return phi.d_v(t, x, v), phi.d_t(t, x, v) + phi.d_x(t, x, v).dot(v)

    @classmethod
    def general(cls, dim: int, phi: SmoothMap) -> "ConstraintSet":
        return cls(dim=dim, n=phi.dim, phi=phi)

    @classmethod
    def affine(
        cls,
        dim: int,
        a: Callable[[float, Array], Array],
        A: Callable[[float, Array], Array],
        jac_t: Callable,
        jac_x: Callable,
        n: Optional[int] = None,
        scleronomic: bool = False,
    ) -> "ConstraintSet":
        """Constraints linear in velocity, phi = a(t,x) + A(t,x) v.

        phi_v = A exactly; ``jac_t`` and ``jac_x`` are phi_t and phi_x, each
        a map of (t, x, v).  ``scleronomic`` declares that a and A do not
        depend on t.
        """
        if n is None:
            n = np.asarray(a(0.0, np.zeros(dim)), dtype=float).reshape(-1).size
        phi = SmoothMap(
            dim=n,
            value=lambda t, x, v: np.asarray(a(t, x), float).reshape(n)
            + np.asarray(A(t, x), float).reshape(n, dim) @ v,
            jac_t=jac_t,
            jac_x=jac_x,
            jac_v=lambda t, x, v: A(t, x),
        )
        return cls(dim=dim, n=n, phi=phi, affine_a=a, affine_A=A, scleronomic=scleronomic)


def lift_holonomic(g: ConfigurationMap, dim: int, scleronomic: bool = False) -> ConstraintSet:
    """Differential lift phi = g_t(t,x) + g_x(t,x) v of a geometric constraint.

    ker phi_v = ker g_x by construction.  ``scleronomic`` declares that g
    does not depend on t.  g is probed at three seeded points (t, x) in
    [-1, 1]: that shows only that it takes (t, x) and returns g.dim values
    there.  A generator that fails the probe raises ValueError naming t.
    """
    rng = np.random.default_rng(0)
    for _ in range(3):
        t = float(rng.uniform(-1, 1))
        x = rng.uniform(-1, 1, dim)
        try:
            g(t, x)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"holonomic generator g must take (t, x) and return an array of "
                f"size {g.dim}; at t={t} it failed: {exc}"
            ) from exc

    n = g.dim

    def value(t, x, v):
        return g.grad_t(t, x) + g.grad_x(t, x) @ v

    def jac_t(t, x, v):
        return g.grad_tt(t, x) + g.grad_tx(t, x) @ v

    def jac_x(t, x, v):
        # d/dx (g_t + g_x v) = g_tx + sum_k v_k g_xx[:, k, :]
        return g.grad_tx(t, x) + v @ g.grad_xx(t, x)

    def jac_v(t, x, v):
        return g.grad_x(t, x)

    phi = SmoothMap(dim=n, value=value, jac_t=jac_t, jac_x=jac_x, jac_v=jac_v)
    a = lambda t, x: g.grad_t(t, x)  # noqa: E731
    A = lambda t, x: g.grad_x(t, x)  # noqa: E731
    return ConstraintSet(
        dim=dim, n=n, phi=phi, affine_a=a, affine_A=A, generator=g, scleronomic=scleronomic
    )


@dataclass(frozen=True)
class RegularityVerdict:
    passed: bool
    sigma_min: float

    def __bool__(self) -> bool:
        return self.passed


def check_regularity(cs: ConstraintSet, s: State, tol: float = RANK_TOL_FACTOR) -> RegularityVerdict:
    """rank phi_v == n, tested by :func:`require_regular` as
    sigma_min(phi_v) > tol * max(1, sigma_max(phi_v)); a NaN phi_v fails."""
    try:
        _, sv, _ = regular_svd(cs.phi.d_v(s.t, s.x, s.v), tol, "constraint Jacobian phi_v", s.t)
    except RegularityError as exc:
        return RegularityVerdict(False, exc.sigma_min)
    return RegularityVerdict(True, float(sv[-1]))


@dataclass(frozen=True)
class VirtualBasis:
    """Orthonormal columns spanning ker phi_v at one state."""

    Xi: Array
    state: State


def _fix_signs(Q: Array) -> Array:
    """A C-contiguous copy of the (..., m, d) stack Q with every column
    negated whose first largest-magnitude entry is negative: a deterministic
    sign for each basis column."""
    Q = Q.copy()
    top = np.take_along_axis(Q, np.abs(Q).argmax(axis=-2)[..., None, :], axis=-2)
    np.negative(Q, out=Q, where=top < 0)
    return Q


def _kernel_basis(B: Array, n: int, t) -> Array:
    """Columns spanning ker B from one full SVD, once B = phi_v passes the
    regularity rule at RANK_TOL_FACTOR; for a (k, n, m) stack of phi_v at
    times ``t``, the (k, m, m - n) stack of such bases."""
    _, _, Vt = regular_svd(B, RANK_TOL_FACTOR, "constraint Jacobian phi_v", t)
    return Vt[..., n:, :].swapaxes(-1, -2)


def virtual_basis(cs: ConstraintSet, s: State) -> VirtualBasis:
    """Kernel basis of phi_v via SVD; m - n orthonormal columns."""
    B = cs.phi.d_v(s.t, s.x, s.v)
    return VirtualBasis(Xi=_fix_signs(_kernel_basis(B, cs.n, s.t)), state=s)


"""Constraint sets phi(t, x, v) = 0: evaluation, regularity, virtual bases.

Holonomy is declared, never inferred: a holonomic set is built with
:func:`lift_holonomic` from a geometric generator g(t, x), and the lift
phi = g_t + g_x v carries analytic Jacobians whenever g supplies second
derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .smooth import Array, ConfigurationMap, SmoothMap, State

RANK_TOL_FACTOR = 1e-8


class RegularityError(RuntimeError):
    """Constraint Jacobian phi_v lost full row rank at a state."""

    def __init__(self, msg: str, sigma_min: float = 0.0, t: float = float("nan")):
        super().__init__(msg)
        self.sigma_min = sigma_min
        self.t = t


@dataclass(frozen=True)
class ConstraintSet:
    """n differential constraints on an m-dimensional configuration.

    ``structure`` is one of ``general``, ``affine`` (phi = a + A v) or
    ``holonomic`` (phi = g_t + g_x v for a generator g).
    """

    dim: int
    n: int
    phi: SmoothMap
    structure: str = "general"
    affine_a: Optional[Callable[[float, Array], Array]] = None
    affine_A: Optional[Callable[[float, Array], Array]] = None
    generator: Optional[ConfigurationMap] = None

    def __post_init__(self):
        if self.n >= self.dim:
            raise ValueError(f"need n < m, got n={self.n}, m={self.dim}")
        if self.phi is not None and self.phi.dim != self.n:
            raise ValueError("phi output dimension disagrees with n")
        if self.structure not in ("general", "affine", "holonomic"):
            raise ValueError(f"unknown structure tag {self.structure!r}")

    @property
    def is_holonomic(self) -> bool:
        return self.structure == "holonomic"

    @property
    def is_empty(self) -> bool:
        return self.n == 0

    @classmethod
    def empty(cls, dim: int) -> "ConstraintSet":
        phi = SmoothMap(
            dim=0,
            value=lambda t, x, v: np.zeros(0),
            jac_t=lambda t, x, v: np.zeros(0),
            jac_x=lambda t, x, v: np.zeros((0, dim)),
            jac_v=lambda t, x, v: np.zeros((0, dim)),
        )
        return cls(dim=dim, n=0, phi=phi)

    @classmethod
    def general(cls, dim: int, phi: SmoothMap) -> "ConstraintSet":
        return cls(dim=dim, n=phi.dim, phi=phi)

    @classmethod
    def affine(
        cls,
        dim: int,
        a: Callable[[float, Array], Array],
        A: Callable[[float, Array], Array],
        jac_t: Optional[Callable] = None,
        jac_x: Optional[Callable] = None,
        n: Optional[int] = None,
    ) -> "ConstraintSet":
        """Constraints linear in velocity, phi = a(t,x) + A(t,x) v.

        phi_v = A exactly; phi_t and phi_x use the supplied analytic
        Jacobians or fall back to central differences of phi.
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
        return cls(dim=dim, n=n, phi=phi, structure="affine", affine_a=a, affine_A=A)


def lift_holonomic(g: ConfigurationMap, dim: int) -> ConstraintSet:
    """Differential lift phi = g_t(t,x) + g_x(t,x) v of a geometric constraint.

    ker phi_v = ker g_x by construction.  Rejects generators that turn out
    to depend on v (probed at random points).
    """
    rng = np.random.default_rng(0)
    for _ in range(3):
        t = float(rng.uniform(-1, 1))
        x = rng.uniform(-1, 1, dim)
        try:
            val = g(t, x)
        except TypeError as exc:
            raise ValueError("holonomic generator must be a map of (t, x) only") from exc
        if val.size != g.dim:
            raise ValueError("generator output dimension mismatch")

    n = g.dim

    def value(t, x, v):
        return g.grad_t(t, x) + g.grad_x(t, x) @ v

    def jac_t(t, x, v):
        return g.grad_tt(t, x) + g.grad_tx(t, x) @ v

    def jac_x(t, x, v):
        # d/dx (g_t + g_x v) = g_tx + sum_k g_xx[:, k, :] v_k
        return g.grad_tx(t, x) + np.einsum("ikj,k->ij", g.grad_xx(t, x), v)

    def jac_v(t, x, v):
        return g.grad_x(t, x)

    phi = SmoothMap(dim=n, value=value, jac_t=jac_t, jac_x=jac_x, jac_v=jac_v)
    a = lambda t, x: g.grad_t(t, x)  # noqa: E731
    A = lambda t, x: g.grad_x(t, x)  # noqa: E731
    return ConstraintSet(
        dim=dim, n=n, phi=phi, structure="holonomic", affine_a=a, affine_A=A, generator=g
    )


def eval_constraints(cs: ConstraintSet, s: State) -> Array:
    if s.dim != cs.dim:
        raise ValueError(f"state dimension {s.dim} != constraint dimension {cs.dim}")
    return cs.phi(s.t, s.x, s.v)


def constraint_jacobians(cs: ConstraintSet, s: State):
    """(phi_t, phi_x, phi_v) at the state, analytic when available."""
    if s.dim != cs.dim:
        raise ValueError(f"state dimension {s.dim} != constraint dimension {cs.dim}")
    t, x, v = s.t, s.x, s.v
    return cs.phi.d_t(t, x, v), cs.phi.d_x(t, x, v), cs.phi.d_v(t, x, v)


@dataclass(frozen=True)
class RegularityVerdict:
    passed: bool
    sigma_min: float

    def __bool__(self) -> bool:
        return self.passed


def check_regularity(cs: ConstraintSet, s: State, tol: Optional[float] = None) -> RegularityVerdict:
    """rank phi_v == n, tested as sigma_min(phi_v) > tol.

    Default tolerance is scale-aware: 1e-8 * max(1, ||phi_v||_2).
    """
    if cs.is_empty:
        return RegularityVerdict(True, np.inf)
    B = cs.phi.d_v(s.t, s.x, s.v)
    sv = np.linalg.svd(B, compute_uv=False)
    if tol is None:
        tol = RANK_TOL_FACTOR * max(1.0, sv[0] if sv.size else 0.0)
    smin = float(sv[-1]) if sv.size else 0.0
    return RegularityVerdict(bool(smin > tol), smin)


@dataclass(frozen=True)
class VirtualBasis:
    """Orthonormal columns spanning ker phi_v at one state."""

    Xi: Array
    state: State

    @property
    def dof(self) -> int:
        return self.Xi.shape[1]


def _fix_signs(Q: Array) -> Array:
    # deterministic sign convention: largest-magnitude entry of each column > 0
    Q = Q.copy()
    for j in range(Q.shape[1]):
        i = int(np.argmax(np.abs(Q[:, j])))
        if Q[i, j] < 0:
            Q[:, j] = -Q[:, j]
    return Q


def _kernel_basis(B: Array, n: int, t: float) -> Array:
    """Columns spanning ker B from one full SVD, after the regularity test
    sigma_min(B) > RANK_TOL_FACTOR * max(1, sigma_max(B))."""
    _, sv, Vt = np.linalg.svd(B, full_matrices=True)
    smin = float(sv[-1]) if sv.size else 0.0
    if smin <= RANK_TOL_FACTOR * max(1.0, sv[0] if sv.size else 0.0):
        raise RegularityError(
            f"constraint Jacobian rank-deficient at t={t} (sigma_min={smin:.3e})",
            sigma_min=smin,
            t=t,
        )
    return Vt[n:, :].T


def virtual_basis(cs: ConstraintSet, s: State) -> VirtualBasis:
    """Kernel basis of phi_v via SVD; m - n orthonormal columns."""
    if cs.is_empty:
        return VirtualBasis(Xi=np.eye(cs.dim), state=s)
    B = cs.phi.d_v(s.t, s.x, s.v)
    return VirtualBasis(Xi=_fix_signs(_kernel_basis(B, cs.n, s.t)), state=s)


@dataclass(frozen=True)
class ManifoldResidual:
    g_norm: float
    gdot_norm: float


def manifold_residual(cs: ConstraintSet, s: State) -> ManifoldResidual:
    """(||g||_inf, ||g_t + g_x v||_inf) — membership residuals for W."""
    if not cs.is_holonomic:
        raise ValueError("manifold_residual requires a holonomic constraint set")
    g = cs.generator
    gv = g(s.t, s.x)
    gdot = g.grad_t(s.t, s.x) + g.grad_x(s.t, s.x) @ s.v
    return ManifoldResidual(
        g_norm=float(np.abs(gv).max()) if gv.size else 0.0,
        gdot_norm=float(np.abs(gdot).max()) if gdot.size else 0.0,
    )

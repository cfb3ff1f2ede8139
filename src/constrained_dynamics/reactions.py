"""Constraint reactions in closed form, ideal or of another realization,
and the check that the ideal reaction does not depend on how the
constraints are written (psi = U(phi)).

A reaction N = Lambda S acts along the rows of S(t, x, v).  Keeping the
motion on phi = 0 fixes the multiplier row:

    Lambda^T = -(phi_v G^-1 S^T)^-1 (phi_t + phi_x v + phi_v G^-1 f^T).

The ideal reaction takes S = phi_v and does no virtual work.  Its matrix
phi_v G^-1 phi_v^T is symmetric positive definite whenever the constraint
Jacobian has full row rank, so the solve goes through Cholesky, whose
pivots must pass the regularity rule with a zero floor.  Any other S must
make phi_v G^-1 S^T regular in its singular values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .constraints import (
    ConstraintSet,
    VirtualBasis,
    regular_svd,
    require_regular,
    require_regular_stack,
)
from .smooth import Array, State, shaped
from .system import MechanicalSystem


@dataclass(frozen=True)
class ReactionResult:
    """Multipliers, reaction covector and the Gram matrix at one state."""

    Lambda: Array
    N: Array
    gram: Array
    state: State


_GRAM = "constraint Gram matrix"


def _chol_solve(gram: Array, rhs: Array, t, sign: float = 1.0) -> Array:
    """sign gram^-1 rhs (``sign`` 1 or -1) for a Gram matrix B G^-1 B^T, whose Cholesky
    pivots must pass the regularity rule with floor 0.  A 1x1 matrix is its own pivot,
    tested as a float, 0 < g < inf, and rhs / (sign g) has the bits of sign (rhs / g).

    ``gram`` may also be a (k, n, n) stack, with rhs (k, n) and the k times ``t``:
    one stacked test and solve with the bits of k single ones, and the earliest
    matrix that fails the rule raises.
    """
    stack = gram.ndim == 3
    if gram.shape[-1] == 1:
        if stack:
            g = gram[:, :, 0]
            require_regular_stack(g[:, 0], g[:, 0], 0.0, _GRAM, t)
            return rhs / (sign * g)
        g = gram.item()
        if not 0.0 < g < np.inf:
            require_regular(g, g, 0.0, _GRAM, t)
        return rhs / (sign * g)
    try:
        c = np.linalg.cholesky(gram)
        pivots = np.diagonal(c, axis1=-2, axis2=-1)
        lo, hi = pivots.min(axis=-1), pivots.max(axis=-1)
    except np.linalg.LinAlgError:  # the factorization stops at a pivot <= 0
        if stack:  # one unfactorable matrix fails the stack
            for gi, ri, ti in zip(gram, rhs, t):
                _chol_solve(gi, ri, float(ti))
            raise
        lo = hi = 0.0
    if not stack:
        require_regular(lo, hi, 0.0, _GRAM, t)
        return sign * np.linalg.solve(c.T, np.linalg.solve(c, rhs))
    require_regular_stack(lo, hi, 0.0, _GRAM, t)
    cT = c.swapaxes(1, 2)
    return sign * np.linalg.solve(cT, np.linalg.solve(c, rhs[:, :, None]))[:, :, 0]


@dataclass(frozen=True)
class Realization:
    """Alternative reaction directions: rows of S(t, x, v) replace phi_v.

    ``S`` maps (t, x, v) to the (n, m) matrix S, or to its n m entries in
    row order.  Valid wherever det(phi_v G^-1 S^T) != 0; with S = phi_v this
    reproduces the ideal reaction exactly.
    """

    S: Callable[[float, Array, Array], Array]


def _realization_solve(M: Array, rhs: Array, t: float) -> Array:
    """-M^-1 rhs for a realization matrix M whose singular values pass the rule at 1e-12."""
    regular_svd(M, 1e-12, "realization matrix phi_v G^-1 S^T", t)
    return -np.linalg.solve(M, rhs)


def _multiplier_solver(sys: MechanicalSystem, cs, real: Optional[Realization] = None) -> Callable:
    """The multiplier solve of ``sys`` on ``cs``, with G^-1, the force, the
    constraint jet and the reaction ``real`` (ideal when None) bound once.

    ``solve(t, x, v, jet=None, f=None)`` returns (f, phi_v, S, Lambda, M,
    phi_t + phi_x v) at (t, x, v), with M = phi_v G^-1 S^T; S is phi_v, or
    ``real.S`` for a realization.  ``jet``, when given, is the (phi_v,
    phi_t + phi_x v) of the constraints at (t, x, v), and ``f``, when given,
    the force there: the solve then evaluates neither again.  A free system
    (``cs`` None) has no multipliers: its solve returns f and five Nones.

    The one evaluation of the closed form: every consumer of multipliers
    takes the force, phi_v, the solve matrix and the acceleration-free part
    of d(phi)/dt from a solve built here, one per run or check.
    """
    Ginv, force = sys.mass.inverse, sys.force
    if cs is None:
        return lambda t, x, v, jet=None, f=None: (force(t, x, v), None, None, None, None, None)
    constraint_jet, S_shape = cs.jet, (cs.n, cs.dim)
    S_value = None if real is None else real.S

    def solve(t, x, v, jet=None, f=None):
        if f is None:
            f = force(t, x, v)
        B, drift = constraint_jet(t, x, v) if jet is None else jet
        W = B.dot(Ginv)
        rhs = drift + W.dot(f)
        if S_value is None:
            M = W.dot(B.T)
            return f, B, B, _chol_solve(M, rhs, t, -1.0), M, drift
        S = shaped(S_value(t, x, v), S_shape)
        M = W.dot(S.T)
        return f, B, S, _realization_solve(M, rhs, t), M, drift

    return solve


def _stacked_solve(Ginv: Array, B: Array, drift: Array, F: Array, t: Array) -> tuple:
    """(Lambda, N = Lambda phi_v) of the ideal reaction at k states at once, from
    the (k, n, m), (k, n) and (k, m) stacks of phi_v, phi_t + phi_x v and the
    force at the k times ``t``.

    Each stacked `@` takes a state's product with the operations of the
    ndarray.dot of :func:`_multiplier_solver`, so every row has the bits of
    that per-state solve, but for the sign of an entry of N whose product
    Lambda_j phi_v[j, l] underflows to zero (+0.0 here, -0.0 there).  The
    earliest state whose Gram matrix fails the rule raises.  A per-step
    caller keeps the per-state solve: on one state the stacked one costs
    several times as much.
    """
    W = B @ Ginv
    rhs = drift + (W @ F[:, :, None])[:, :, 0]
    lam = _chol_solve(W @ B.swapaxes(1, 2), rhs, t, -1.0)
    return lam, (lam[:, None, :] @ B)[:, 0]


def reaction(
    sys: MechanicalSystem,
    cs: Optional[ConstraintSet],
    s: State,
    real: Optional[Realization] = None,
) -> ReactionResult:
    """Reaction N = Lambda S at a regular state: the unique ideal one
    (S = phi_v) by default, or that of the realization ``real``.  ``gram``
    holds the matrix M = phi_v G^-1 S^T of the solve."""
    if cs is None:
        return ReactionResult(
            Lambda=np.zeros(0), N=np.zeros(sys.dim), gram=np.zeros((0, 0)), state=s
        )
    _, _, S, lam, M, _ = _multiplier_solver(sys, cs, real)(s.t, s.x, s.v)
    return ReactionResult(Lambda=lam, N=lam @ S, gram=M, state=s)


@dataclass(frozen=True)
class Reparametrization:
    """Change of constraint representation psi = U(t, x, v, phi).

    ``value`` maps (t, x, v, z) to R^n with U(., 0) = 0 and U_z(., 0)
    invertible, so psi = 0 cuts out the same manifold as phi = 0.
    """

    n: int
    value: Callable[[float, Array, Array, Array], Array]
    jac_z: Callable[[float, Array, Array, Array], Array]
    jac_t: Callable[[float, Array, Array, Array], Array]
    jac_x: Callable[[float, Array, Array, Array], Array]
    jac_v: Callable[[float, Array, Array, Array], Array]

    def __call__(self, t, x, v, z):
        return shaped(self.value(t, x, v, z), (self.n,))

    def d_z(self, t, x, v, z):
        return shaped(self.jac_z(t, x, v, z), (self.n, self.n))

    def d_t(self, t, x, v, z):
        return shaped(self.jac_t(t, x, v, z), (self.n,))

    def d_x(self, t, x, v, z):
        return shaped(self.jac_x(t, x, v, z), (self.n, x.size))

    def d_v(self, t, x, v, z):
        return shaped(self.jac_v(t, x, v, z), (self.n, v.size))

    @classmethod
    def identity(cls, n: int) -> "Reparametrization":
        return cls.componentwise(n, lambda z: z, lambda z: np.ones_like(z))

    @classmethod
    def componentwise(cls, n: int, fn, dfn) -> "Reparametrization":
        """U acting elementwise on z, independent of (t, x, v); fn(0) must be 0."""
        zero_v = lambda t, x, v, z: np.zeros(n)  # noqa: E731
        return cls(
            n=n,
            value=lambda t, x, v, z: np.asarray(fn(np.asarray(z, float)), float),
            jac_z=lambda t, x, v, z: np.diag(
                np.atleast_1d(np.asarray(dfn(np.asarray(z, float)), float))
            ),
            jac_t=zero_v,
            jac_x=lambda t, x, v, z: np.zeros((n, x.size)),
            jac_v=lambda t, x, v, z: np.zeros((n, v.size)),
        )

    @classmethod
    def linear(cls, M: Array) -> "Reparametrization":
        M = np.asarray(M, float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"linear mix matrix M must be square, got shape {M.shape}")
        n = M.shape[0]
        regular_svd(M, 1e-10, "linear mix matrix M, which must be invertible,", None, ValueError)
        return cls(
            n=n,
            value=lambda t, x, v, z: M @ np.asarray(z, float),
            jac_z=lambda t, x, v, z: M,
            jac_t=lambda t, x, v, z: np.zeros(n),
            jac_x=lambda t, x, v, z: np.zeros((n, x.size)),
            jac_v=lambda t, x, v, z: np.zeros((n, v.size)),
        )


def _probe_reparametrization(cs: ConstraintSet, rep: Reparametrization) -> None:
    """Refuse, with a ValueError, a U whose output count is not the constraint
    count, or that fails at one of three seeded states (t, x, v) in [-1, 1]:
    U(., 0) must vanish and U_z(., 0) must be regular there.  The probe
    shows no more than that."""
    if rep.n != cs.n:
        raise ValueError("reparametrization output count must equal constraint count")
    rng = np.random.default_rng(1)
    for _ in range(3):
        t = float(rng.uniform(-1, 1))
        x = rng.uniform(-1, 1, cs.dim)
        v = rng.uniform(-1, 1, cs.dim)
        z0 = np.zeros(cs.n)
        if not np.abs(rep(t, x, v, z0)).max(initial=0.0) <= 1e-10:  # a NaN fails too
            raise ValueError("U(t, x, v, 0) must vanish")
        Uz = rep.d_z(t, x, v, z0)
        regular_svd(Uz, 1e-10, "U_z(t, x, v, 0), which must be invertible,", t, ValueError)


def _chain_rule(U_s: Array, U_z: Array, phi_s: Array) -> Array:
    """psi_s = U_s + U_z phi_s: the partial of psi = U(t, x, v, phi(t, x, v))
    in one slot s of t, x and v at one state, from U's partials U_s and U_z
    at z = phi and phi's partial phi_s.  In the t slot U_s and phi_s are
    vectors of n entries.
    """
    if phi_s.ndim == 1:  # the t slot, taken as one column
        return U_s + (U_z @ phi_s[:, None])[:, 0]
    return U_s + U_z @ phi_s


def invariance_report(
    sys: MechanicalSystem,
    cs: ConstraintSet,
    reps: Sequence[Reparametrization],
    t: Array,
    X: Array,
    V: Array,
) -> float:
    """max ||N_phi - N_psi||_inf over the on-manifold states (t[i], X[i],
    V[i]) and the representations psi = U(phi) of every U in ``reps``.

    Every U first passes :func:`_probe_reparametrization`.  The reaction is
    representation-independent only on phi = 0, so a state violating
    ||phi||_inf <= 1e-10 is rejected.  The states go in order.  At each one,
    phi, the force and phi's partials are evaluated once, and phi's reaction
    is solved; then each family in turn evaluates U_z, U_t, U_x and U_v,
    forms psi's partials by :func:`_chain_rule` and solves psi's reaction.
    Every solve is made by one :func:`_multiplier_solver`, given the jet and
    the force in hand.  A NaN reaction makes the result NaN.
    """
    for rep in reps:
        _probe_reparametrization(cs, rep)
    phi, force, solve = cs.phi, sys.force, _multiplier_solver(sys, cs)
    gaps = []
    for ti, x, v in zip(np.asarray(t, float).tolist(), X, V):
        z = phi(ti, x, v)
        resid = float(np.abs(z).max(initial=0.0))
        if not resid <= 1e-10:
            raise ValueError(f"state at t={ti} is off-manifold (||phi||={resid:.3e} > 1e-10)")
        f = force(ti, x, v)
        phi_t, phi_x, phi_v = phi.d_t(ti, x, v), phi.d_x(ti, x, v), phi.d_v(ti, x, v)
        # phi's own jet, equal to ConstraintSet.jet's but for the sign of an
        # exact zero where a holonomic or scleronomic set reads it otherwise
        N_phi = solve(ti, x, v, jet=(phi_v, phi_t + phi_x @ v), f=f)[3] @ phi_v
        for rep in reps:
            U_z, U_t, U_x, U_v = (
                rep.d_z(ti, x, v, z), rep.d_t(ti, x, v, z), rep.d_x(ti, x, v, z),
                rep.d_v(ti, x, v, z),
            )
            psi_v = _chain_rule(U_v, U_z, phi_v)
            drift = _chain_rule(U_t, U_z, phi_t) + _chain_rule(U_x, U_z, phi_x) @ v
            N_psi = solve(ti, x, v, jet=(psi_v, drift), f=f)[3] @ psi_v
            gaps.append(np.abs(N_psi - N_phi))
    # ndarray.max carries a NaN gap through, so a NaN reaction fails the check
    return float(np.max(gaps, initial=0.0))


def virtual_work(res: ReactionResult, basis: VirtualBasis) -> float:
    """max over basis columns of |N . xi|; zero for ideal reactions."""
    s1, s2 = res.state, basis.state
    if s1.t != s2.t or not (np.array_equal(s1.x, s2.x) and np.array_equal(s1.v, s2.v)):
        raise ValueError("reaction and basis were computed at different states")
    if basis.Xi.shape[1] == 0:
        return 0.0
    return float(np.abs(res.N @ basis.Xi).max(initial=0.0))

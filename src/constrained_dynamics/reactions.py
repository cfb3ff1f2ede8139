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
from .smooth import Array, State, in_state_order, shaped
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
    in one slot s of t, x and v, from U's partials U_s and U_z at z = phi
    and phi's partial phi_s, at one state or for a stack of k states.  In
    the t slot U_s and phi_s are vectors of n entries, or (k, n) stacks.

    `@` gives a stack's rows the bits of one state's.
    """
    if phi_s.ndim < U_z.ndim:  # the t slot, taken as one column
        return U_s + (U_z @ phi_s[..., None])[..., 0]
    return U_s + U_z @ phi_s


def invariance_report(
    sys: MechanicalSystem,
    cs: ConstraintSet,
    reps: Sequence[Reparametrization],
    t: Array,
    X: Array,
    V: Array,
    on_manifold_tol: float = 1e-10,
) -> float:
    """max ||N_phi - N_psi||_inf over the on-manifold states (t[i], X[i],
    V[i]) and the representations psi = U(phi) of every U in ``reps``.

    Every U first passes :func:`_probe_reparametrization`.  The reaction is
    representation-independent only on phi = 0, so a state violating
    ||phi||_inf <= tol is rejected.  Each state evaluates phi, phi_t, phi_x,
    phi_v and the force once, whatever the number of families, and each
    family U_z, U_t, U_x and U_v once, in state order.  Then psi's partials
    follow from phi's by :func:`_chain_rule`, and every reaction comes from
    one :func:`_stacked_solve`, ordered as a per-state loop solves: by
    state, and at a state phi before the families, in their order.  So a
    failing Gram matrix raises for the earliest such solve, and a map that
    fails raises only after the solves that such a loop finishes before it
    pass.  A NaN reaction makes the result NaN.
    """
    for rep in reps:
        _probe_reparametrization(cs, rep)
    phi, force, Ginv = cs.phi, sys.force, sys.mass.inverse
    t, V = np.asarray(t, float), np.asarray(V, float)
    k, n, m, nf = min(t.size, len(X), len(V)), cs.n, cs.dim, len(reps)
    if k == 0:
        return 0.0
    # every state's maps, written in place: f and phi's partials, and U's per
    # family; zeros, as a failing state's unevaluated maps pass through the
    # stacked chain rule before its solves are cut to the finished ones
    f, phi_t = np.zeros((k, m)), np.zeros((k, n))
    phi_x, phi_v = np.zeros((k, n, m)), np.zeros((k, n, m))
    U_z, U_t = np.zeros((nf, k, n, n)), np.zeros((nf, k, n))
    U_x, U_v = np.zeros((nf, k, n, m)), np.zeros((nf, k, n, m))

    def reactions(states, solves=None):
        """N of the first ``solves`` (all when None) of the solves at the
        first ``states`` states, in state order and at a state phi's first."""
        v = V[:states, :, None]
        # phi's own jet, equal to ConstraintSet.jet's but for the sign of an
        # exact zero where a holonomic or scleronomic set reads it otherwise
        B, drift = [phi_v[:states]], [phi_t[:states] + (phi_x[:states] @ v)[:, :, 0]]
        for j in range(nf):
            Uz = U_z[j, :states]
            psi_x = _chain_rule(U_x[j, :states], Uz, phi_x[:states])
            B.append(_chain_rule(U_v[j, :states], Uz, phi_v[:states]))
            drift.append(_chain_rule(U_t[j, :states], Uz, phi_t[:states]) + (psi_x @ v)[:, :, 0])
        return _stacked_solve(
            Ginv, np.stack(B, 1).reshape(-1, n, m)[:solves],
            np.stack(drift, 1).reshape(-1, n)[:solves], np.repeat(f[:states], 1 + nf, 0)[:solves],
            np.repeat(t[:states], 1 + nf)[:solves],
        )[1]

    done = 0  # the solves whose maps are all evaluated, which a per-state loop makes first
    with in_state_order(lambda: done and reactions(done // (1 + nf) + 1, done)):
        for i, (ti, x, v) in enumerate(zip(t.tolist(), X, V)):
            z = phi(ti, x, v)
            resid = float(np.abs(z).max(initial=0.0))
            if not resid <= on_manifold_tol:
                raise ValueError(
                    f"state at t={ti} is off-manifold (||phi||={resid:.3e} > {on_manifold_tol})"
                )
            f[i] = force(ti, x, v)
            phi_t[i], phi_x[i], phi_v[i] = phi.d_t(ti, x, v), phi.d_x(ti, x, v), phi.d_v(ti, x, v)
            done += 1
            for j, rep in enumerate(reps):
                U_z[j, i], U_t[j, i], U_x[j, i], U_v[j, i] = (
                    rep.d_z(ti, x, v, z), rep.d_t(ti, x, v, z), rep.d_x(ti, x, v, z),
                    rep.d_v(ti, x, v, z),
                )
                done += 1
    N = reactions(k).reshape(k, 1 + nf, m)
    # ndarray.max carries a NaN difference through, so a NaN reaction fails the check
    return float(np.abs(N[:, 1:] - N[:, :1]).max(initial=0.0))


def virtual_work(res: ReactionResult, basis: VirtualBasis) -> float:
    """max over basis columns of |N . xi|; zero for ideal reactions."""
    s1, s2 = res.state, basis.state
    if s1.t != s2.t or not (np.array_equal(s1.x, s2.x) and np.array_equal(s1.v, s2.v)):
        raise ValueError("reaction and basis were computed at different states")
    if basis.Xi.shape[1] == 0:
        return 0.0
    return float(np.abs(res.N @ basis.Xi).max(initial=0.0))

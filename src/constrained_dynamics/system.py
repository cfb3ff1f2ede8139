"""Mass matrices, force fields and the mechanical system container."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .smooth import Array, EvaluationError, shaped

SPD_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class SpdVerdict:
    passed: bool
    symmetric: bool
    positive_definite: bool

    def __bool__(self) -> bool:
        return self.passed


def check_spd(M: Array, tol: float = SPD_SYMMETRY_TOL) -> SpdVerdict:
    """Verdict on symmetry (relative inf-norm) and positive definiteness.

    Positive definiteness is tested by attempting a Cholesky factorization
    of the symmetrized matrix.  A matrix with a NaN or infinite entry passes
    neither test (numpy's Cholesky does not refuse a NaN).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("check_spd expects a square matrix")
    finite = bool(np.isfinite(M).all())
    scale = np.abs(M).max()
    # Python bools, since SpdVerdict.__bool__ must return one
    sym = finite and bool(scale == 0.0 or np.abs(M - M.T).max() <= tol * max(scale, 1e-300))
    pd = finite
    if finite:
        try:
            np.linalg.cholesky(0.5 * (M + M.T))
        except np.linalg.LinAlgError:
            pd = False
    return SpdVerdict(passed=sym and pd, symmetric=sym, positive_definite=pd)


@dataclass(frozen=True)
class MassMatrix:
    """Constant symmetric positive definite mass matrix."""

    G: Array

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        G.setflags(write=False)
        object.__setattr__(self, "G", G)
        verdict = check_spd(G)
        if not verdict:
            raise ValueError(
                "mass matrix must be symmetric positive definite "
                f"(symmetric={verdict.symmetric}, pd={verdict.positive_definite})"
            )
        Ginv = np.linalg.inv(G)
        Ginv.setflags(write=False)
        object.__setattr__(self, "_Ginv", Ginv)

    @property
    def dim(self) -> int:
        return self.G.shape[0]

    @property
    def inverse(self) -> Array:
        return self._Ginv


def build_point_mass_matrix(masses) -> MassMatrix:
    """diag(m1, m1, m1, ..., m_nu, m_nu, m_nu) for nu point masses in R^3."""
    masses = [float(m) for m in masses]
    if not masses:
        raise ValueError("need at least one mass")
    for i, m in enumerate(masses):
        if not (m > 0.0):
            raise ValueError(f"mass {i} must be positive (got {m})")
    diag = np.repeat(np.asarray(masses, dtype=float), 3)
    return MassMatrix(G=np.diag(diag))


@dataclass(frozen=True)
class ForceField:
    """Active-force covector f(t, x, v), with an optional potential.

    ``potential`` declares the force as -grad V; the energy diagnostic then
    reports T + V instead of T alone.  Every evaluation goes through
    ``__call__``, which refuses a non-finite value with
    :class:`EvaluationError` naming t, so a NaN force stops a run at the
    stage that produced it.
    """

    dim: int
    value: Callable[[float, Array, Array], Array]
    potential: Optional[Callable[[float, Array], float]] = None

    def __call__(self, t: float, x: Array, v: Array) -> Array:
        out = shaped(self.value(t, x, v), (-1,))
        if out.size != self.dim:
            raise ValueError(
                f"force field declared dimension {self.dim}, got {out.size}"
            )
        # for a few coordinates this is several times cheaper than np.isfinite
        if not all(map(math.isfinite, out.tolist())):
            raise EvaluationError(f"force field f(t, x, v) is non-finite at t={t}")
        return out

    @classmethod
    def zero(cls, dim: int) -> "ForceField":
        z = np.zeros(dim)
        return cls(dim=dim, value=lambda t, x, v: z, potential=lambda t, x: 0.0)


@dataclass(frozen=True)
class MechanicalSystem:
    """Constant-mass system G xdd = f^T + N^T."""

    mass: MassMatrix
    force: ForceField = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.force is None:
            object.__setattr__(self, "force", ForceField.zero(self.mass.dim))
        if self.force.dim != self.mass.dim:
            raise ValueError(
                f"force dimension {self.force.dim} != mass dimension {self.mass.dim}"
            )

    @property
    def dim(self) -> int:
        return self.mass.dim


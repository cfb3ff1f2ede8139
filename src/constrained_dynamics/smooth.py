"""Smooth-map carriers with analytic Jacobians and a finite-difference fallback.

Every map the engine consumes (constraint functions, realizations,
reparametrizations, holonomic generators) is wrapped in one of the carrier
types here so that downstream code never cares whether a derivative was
supplied analytically or approximated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Central-difference step: h = cbrt(eps) * max(1, |coordinate|), fixed so
# fallback Jacobians are reproducible bit-for-bit on one platform.
FD_BASE_STEP = float(np.cbrt(np.finfo(float).eps))

Array = np.ndarray
_FLOAT = np.dtype(float)


def shaped(out, shape: tuple) -> Array:
    """``np.asarray(out, float).reshape(shape)``, or ``out`` itself when it
    already is a float64 ndarray of that shape (of one axis, for shape (-1,)).

    The one guard on what an evaluator returns: a map that builds its array
    in the declared shape skips the conversion, any other output takes it,
    numpy's errors included.  Either way the result may share memory with
    the evaluator's array.
    """
    # `is` on the dtype: a float64 dtype other than numpy's own instance
    # only takes the conversion
    if type(out) is np.ndarray and out.dtype is _FLOAT and (
        out.shape == shape or (shape == (-1,) and out.ndim == 1)
    ):
        return out
    return np.asarray(out, dtype=float).reshape(shape)


def _fd_step(coord: float) -> float:
    return FD_BASE_STEP * max(1.0, abs(coord))


def require_finite_state(t: float, x: Array, v: Array) -> None:
    """Refuse a state (t, x, v) with a NaN or infinite entry, naming t."""
    # one math.isfinite pass over a flat list: for a few coordinates this is
    # several times cheaper than np.isfinite
    if not all(map(math.isfinite, [t] + x.tolist() + v.tolist())):
        raise ValueError(f"state entries must be finite at t={t}")


@dataclass(frozen=True)
class State:
    """Point (t, x, xdot) of the extended phase space."""

    t: float
    x: Array
    v: Array

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.x.ndim != 1 or self.v.ndim != 1:
            raise ValueError("x and v must be 1-d vectors")
        if self.x.size != self.v.size:
            raise ValueError(
                f"x has length {self.x.size} but v has length {self.v.size}"
            )
        if self.x.size < 1:
            raise ValueError("configuration dimension must be >= 1")
        require_finite_state(self.t, self.x, self.v)

    @property
    def dim(self) -> int:
        return self.x.size


class EvaluationError(RuntimeError):
    """Raised when an evaluator fails inside a finite-difference stencil, or
    a force field returns a non-finite value."""


@dataclass(frozen=True)
class SmoothMap:
    """Map (t, x, v) -> R^k with optional analytic partial derivatives.

    ``jac_t`` returns a k-vector, ``jac_x`` and ``jac_v`` return k-by-m
    matrices.  Missing derivatives fall back to central differences.
    """

    dim: int
    value: Callable[[float, Array, Array], Array]
    jac_t: Optional[Callable[[float, Array, Array], Array]] = None
    jac_x: Optional[Callable[[float, Array, Array], Array]] = None
    jac_v: Optional[Callable[[float, Array, Array], Array]] = None

    def __call__(self, t: float, x: Array, v: Array) -> Array:
        out = shaped(self.value(t, x, v), (-1,))
        if out.size != self.dim:
            raise ValueError(
                f"declared output dimension {self.dim}, evaluator returned {out.size}"
            )
        return out

    def d_t(self, t: float, x: Array, v: Array) -> Array:
        if self.jac_t is not None:
            return shaped(self.jac_t(t, x, v), (self.dim,))
        return fd_jacobian(self, State(t, x, v), "t").reshape(self.dim)

    def d_x(self, t: float, x: Array, v: Array) -> Array:
        if self.jac_x is not None:
            return shaped(self.jac_x(t, x, v), (self.dim, x.size))
        return fd_jacobian(self, State(t, x, v), "x")

    def d_v(self, t: float, x: Array, v: Array) -> Array:
        if self.jac_v is not None:
            return shaped(self.jac_v(t, x, v), (self.dim, v.size))
        return fd_jacobian(self, State(t, x, v), "v")


def _difference(fn, hi, lo, h: float, where: str):
    try:
        return (fn(hi) - fn(lo)) / (2.0 * h)
    except Exception as exc:  # noqa: BLE001 - re-raise with stencil context
        raise EvaluationError(f"evaluation failed {where}: {exc}") from exc


def time_difference(fn: Callable[[float], Array], t: float) -> Array:
    """(fn(t + h) - fn(t - h)) / 2h with h = _fd_step(t)."""
    h = _fd_step(t)
    return _difference(fn, t + h, t - h, h, f"at t = {t} +/- {h}")


def central_differences(fn: Callable[[Array], Array], base: Array, name: str = "x") -> Array:
    """(fn(base + h e_i) - fn(base - h e_i)) / 2h for every coordinate i,
    stacked along a new last axis, with h = _fd_step(base[i]).

    A failing evaluation raises :class:`EvaluationError` naming the stencil
    as ``name[i]``.
    """
    slabs = []
    for i in range(base.size):
        h = _fd_step(base[i])
        hi, lo = base.copy(), base.copy()
        hi[i] += h
        lo[i] -= h
        slabs.append(_difference(fn, hi, lo, h, f"perturbing {name}[{i}] by {h}"))
    return np.stack(slabs, axis=-1)


def fd_jacobian(m: SmoothMap, state: State, slot: str) -> Array:
    """Central-difference Jacobian of ``m`` at ``state`` w.r.t. one slot.

    ``slot`` is one of ``"t"``, ``"x"``, ``"v"``.  Returns a k-vector for the
    time slot, a k-by-m matrix otherwise.
    """
    t, x, v = state.t, state.x, state.v
    if slot == "t":
        return time_difference(lambda tt: m(tt, x, v), t)
    if slot == "x":
        return central_differences(lambda xx: m(t, xx, v), x, "x")
    if slot == "v":
        return central_differences(lambda vv: m(t, x, vv), v, "v")
    raise ValueError(f"unknown slot {slot!r}")


@dataclass(frozen=True)
class ConfigurationMap:
    """Map (t, x) -> R^n with first and (optionally) second derivatives.

    Used for holonomic generators g(t, x), whose differential lift needs
    g_tt, g_tx and g_xx to give the lifted constraint analytic Jacobians.
    Second derivatives fall back to central differences of the first ones.
    """

    dim: int
    value: Callable[[float, Array], Array]
    d_t: Callable[[float, Array], Array]
    d_x: Callable[[float, Array], Array]
    d_tt: Optional[Callable[[float, Array], Array]] = None
    d_tx: Optional[Callable[[float, Array], Array]] = None
    d_xx: Optional[Callable[[float, Array], Array]] = None

    def __call__(self, t: float, x: Array) -> Array:
        return shaped(self.value(t, x), (self.dim,))

    def grad_t(self, t: float, x: Array) -> Array:
        return shaped(self.d_t(t, x), (self.dim,))

    def grad_x(self, t: float, x: Array) -> Array:
        return shaped(self.d_x(t, x), (self.dim, x.size))

    def grad_tt(self, t: float, x: Array) -> Array:
        if self.d_tt is not None:
            return shaped(self.d_tt(t, x), (self.dim,))
        return time_difference(lambda tt: self.grad_t(tt, x), t)

    def grad_tx(self, t: float, x: Array) -> Array:
        # d/dx of g_t, an n-by-m matrix
        if self.d_tx is not None:
            return shaped(self.d_tx(t, x), (self.dim, x.size))
        return central_differences(lambda xx: self.grad_t(t, xx), x)

    def grad_xx(self, t: float, x: Array) -> Array:
        # d/dx of g_x, an n-by-m-by-m tensor; [i, j, k] = d^2 g_i / dx_j dx_k
        if self.d_xx is not None:
            return shaped(self.d_xx(t, x), (self.dim, x.size, x.size))
        return central_differences(lambda xx: self.grad_x(t, xx), x)

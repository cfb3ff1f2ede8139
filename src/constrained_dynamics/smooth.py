"""Smooth-map carriers with their declared derivatives.

Every constraint function and holonomic generator the engine consumes is
wrapped in one of the carrier types here, together with the partial
derivatives the closed-form reaction and the differential lift need.  Each
derivative is a required field: a carrier built without one raises
``TypeError`` naming it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

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


def require_finite_state(t: float, x: Array, v: Array) -> None:
    """Refuse a state (t, x, v) with a NaN or infinite entry, naming t."""
    # one math.isfinite pass over a flat list: for a few coordinates this is
    # several times cheaper than np.isfinite
    if not all(map(math.isfinite, [t] + x.tolist() + v.tolist())):
        raise ValueError(f"state entries must be finite at t={t}")


@contextmanager
def in_state_order(deferred: Callable[[], object]):
    """Fail as a per-state loop would: the block evaluates maps state by state,
    and ``deferred()`` is the stacked verdict on the states it finished, which
    such a loop makes first.  When the block raises, the verdict's failure is
    raised from the block's exception; if the verdict passes, the block's own
    exception propagates.  A block that succeeds never calls ``deferred``."""
    try:
        yield
    except Exception as exc:
        try:
            deferred()
        except Exception as first:
            raise first from exc
        raise


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
    """Raised when a force field returns a non-finite value, or when a
    Dormand-Prince attempt is not finite; a run raises it again naming the
    stage of the step that failed."""


@dataclass(frozen=True)
class SmoothMap:
    """Map (t, x, v) -> R^k with its partial derivatives.

    ``jac_t`` returns a k-vector, ``jac_x`` and ``jac_v`` return k-by-m
    matrices.
    """

    dim: int
    value: Callable[[float, Array, Array], Array]
    jac_t: Callable[[float, Array, Array], Array]
    jac_x: Callable[[float, Array, Array], Array]
    jac_v: Callable[[float, Array, Array], Array]

    def __call__(self, t: float, x: Array, v: Array) -> Array:
        out = shaped(self.value(t, x, v), (-1,))
        if out.size != self.dim:
            raise ValueError(
                f"declared output dimension {self.dim}, evaluator returned {out.size}"
            )
        return out

    def d_t(self, t: float, x: Array, v: Array) -> Array:
        return shaped(self.jac_t(t, x, v), (self.dim,))

    def d_x(self, t: float, x: Array, v: Array) -> Array:
        return shaped(self.jac_x(t, x, v), (self.dim, x.size))

    def d_v(self, t: float, x: Array, v: Array) -> Array:
        return shaped(self.jac_v(t, x, v), (self.dim, v.size))


@dataclass(frozen=True)
class ConfigurationMap:
    """Map (t, x) -> R^n with its first and second derivatives.

    Used for holonomic generators g(t, x), whose differential lift takes
    its Jacobians from g_tt, g_tx and g_xx.
    """

    dim: int
    value: Callable[[float, Array], Array]
    d_t: Callable[[float, Array], Array]
    d_x: Callable[[float, Array], Array]
    d_tt: Callable[[float, Array], Array]
    d_tx: Callable[[float, Array], Array]
    d_xx: Callable[[float, Array], Array]

    def __call__(self, t: float, x: Array) -> Array:
        return shaped(self.value(t, x), (self.dim,))

    def grad_t(self, t: float, x: Array) -> Array:
        return shaped(self.d_t(t, x), (self.dim,))

    def grad_x(self, t: float, x: Array) -> Array:
        return shaped(self.d_x(t, x), (self.dim, x.size))

    def grad_tt(self, t: float, x: Array) -> Array:
        return shaped(self.d_tt(t, x), (self.dim,))

    def grad_tx(self, t: float, x: Array) -> Array:
        # d/dx of g_t, an n-by-m matrix
        return shaped(self.d_tx(t, x), (self.dim, x.size))

    def grad_xx(self, t: float, x: Array) -> Array:
        # d/dx of g_x, an n-by-m-by-m tensor; [i, j, k] = d^2 g_i / dx_j dx_k
        return shaped(self.d_xx(t, x), (self.dim, x.size, x.size))

from dataclasses import replace

import numpy as np
import pytest

from constrained_dynamics import (
    ConfigurationMap,
    ConstraintSet,
    Embedding,
    ForceField,
    Reparametrization,
    SmoothMap,
    State,
    lift_holonomic,
)
from constrained_dynamics.scenarios import (
    rotating_line_embedding,
    sphere_generator,
    sphere_polar_embedding,
)
from constrained_dynamics.smooth import in_state_order, shaped


def _zero(*args):
    return np.zeros(1)


# a carrier of each kind with every derivative given, by its builder and the
# keyword arguments that build it
CARRIERS = {
    "SmoothMap": (SmoothMap, dict(dim=1, value=_zero, jac_t=_zero, jac_x=_zero, jac_v=_zero)),
    "ConfigurationMap": (ConfigurationMap, dict(
        dim=1, value=_zero, d_t=_zero, d_x=_zero, d_tt=_zero, d_tx=_zero, d_xx=_zero,
    )),
    "Reparametrization": (Reparametrization, dict(
        n=1, value=_zero, jac_z=_zero, jac_t=_zero, jac_x=_zero, jac_v=_zero,
    )),
    "ConstraintSet.affine": (ConstraintSet.affine, dict(
        dim=2, a=_zero, A=_zero, jac_t=_zero, jac_x=_zero, n=1,
    )),
    "Embedding": (Embedding, dict(
        dim=2, r=1, u=_zero, u_t=_zero, u_y=_zero, u_tt=_zero, u_ty=_zero, u_yy=_zero,
    )),
}
DERIVATIVES = {
    "SmoothMap": ("jac_t", "jac_x", "jac_v"),
    "ConfigurationMap": ("d_t", "d_x", "d_tt", "d_tx", "d_xx"),
    "Reparametrization": ("jac_z", "jac_t", "jac_x", "jac_v"),
    "ConstraintSet.affine": ("jac_t", "jac_x"),
    "Embedding": ("u_t", "u_y", "u_tt", "u_ty", "u_yy"),
}


def _built(carrier, **maps):
    """The complete carrier of CARRIERS with the fields ``maps`` in place."""
    build, fields = CARRIERS[carrier]
    return build(**{**fields, **maps})


@pytest.mark.parametrize(
    "carrier, name", [(c, name) for c, names in DERIVATIVES.items() for name in names]
)
def test_a_carrier_without_a_derivative_is_refused_by_name(carrier, name):
    build, fields = CARRIERS[carrier]
    build(**fields)
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        build(**{k: f for k, f in fields.items() if k != name})


def test_a_chart_without_u_t_needs_no_time_derivatives():
    _, fields = CARRIERS["Embedding"]
    timeless = {**fields, "u_t": None, "u_tt": None, "u_ty": None}
    emb = Embedding(**timeless)
    assert np.array_equal(emb.d_tt(0.0, np.zeros(1)), np.zeros(2))
    Embedding(**{k: f for k, f in timeless.items() if k not in ("u_tt", "u_ty")})
    with pytest.raises(TypeError, match=r"^Embedding needs u_yy$"):
        Embedding(**{**timeless, "u_yy": None})
    with pytest.raises(TypeError, match=r"^Embedding needs u_tt and u_ty$"):
        Embedding(**{**fields, "u_tt": None, "u_ty": None})


def test_replace_wraps_every_map_of_a_catalog_chart_and_generator():
    # the bench tracer swaps each map for a counting wrapper by field name,
    # and passes None through for a time-independent chart's time maps
    def wrapped(carrier, names):
        called = set()

        def counted(k, fn):
            if fn is None:
                return None
            return lambda *args: called.add(k) or fn(*args)

        return replace(carrier, **{k: counted(k, getattr(carrier, k)) for k in names}), called

    t = 0.3
    for emb, y in ((sphere_polar_embedding(1.2), np.array([0.4, 1.1])),
                   (rotating_line_embedding(0.7), np.array([0.4]))):
        names = ("u", "u_t", "u_y", "u_tt", "u_ty", "u_yy")
        counted, called = wrapped(emb, names)
        for k in ("value", "d_t", "d_y", "d_tt", "d_ty", "d_yy"):
            assert np.array_equal(getattr(counted, k)(t, y), getattr(emb, k)(t, y))
        assert called == {k for k in names if getattr(emb, k) is not None}
    g = sphere_generator(1.3, 3)
    names = ("value", "d_t", "d_x", "d_tt", "d_tx", "d_xx")
    counted, called = wrapped(g, names)
    x, v = np.array([0.3, -0.2, 0.9]), np.array([0.1, 0.5, -0.4])
    lifts = lift_holonomic(counted, 3), lift_holonomic(g, 3)
    assert np.array_equal(lifts[0].phi(t, x, v), lifts[1].phi(t, x, v))  # g_t + g_x v
    for a, b in zip(lifts[0].jet(t, x, v), lifts[1].jet(t, x, v)):
        assert np.array_equal(a, b)
    assert called == set(names)


def test_dimension_mismatch_detected():
    m = _built("SmoothMap", dim=2, value=lambda t, x, v: np.array([1.0]))
    with pytest.raises(ValueError, match="declared output dimension"):
        m(0.0, np.array([1.0]), np.array([1.0]))


def test_state_invariants():
    with pytest.raises(ValueError):
        State(0.0, np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        State(0.0, np.array([np.nan]), np.array([1.0]))
    with pytest.raises(ValueError):
        State(0.0, np.array([]), np.array([]))


# ---------------------------------------------------------------------------
# the output guard: an exact float64 array passes as it is, anything else is
# converted as np.asarray(out, float).reshape(shape) would, errors included


def test_shaped_passes_an_exact_float_array_through():
    a = np.arange(6.0).reshape(2, 3)
    assert shaped(a, (2, 3)) is a
    flat = np.arange(3.0)
    assert shaped(flat, (-1,)) is flat


@pytest.mark.parametrize(
    "out, shape",
    [
        ([1.0, 2.0], (2,)),  # a list
        (np.array([1, 2]), (2,)),  # int dtype
        (np.array([[1.0, 2.0]]), (2,)),  # another shape of the same size
        (np.array([[1.0], [2.0]]), (-1,)),
        (np.float32([1.0, 2.0]), (1, 2)),
    ],
)
def test_shaped_converts_anything_else(out, shape):
    got = shaped(out, shape)
    ref = np.asarray(out, dtype=float).reshape(shape)
    assert got.dtype == np.float64 and got.shape == ref.shape
    assert np.array_equal(got, ref)


def _cmap(**maps):
    return _built("ConfigurationMap", **maps)


def test_wrappers_convert_lists_and_int_arrays():
    x, v = np.array([1.0, 2.0]), np.array([0.5, 0.0])
    m = _built("SmoothMap", dim=2, value=lambda t, x, v: [1, 2],
               jac_x=lambda t, x, v: np.eye(2, dtype=int))
    for out in (m(0.0, x, v), m.d_x(0.0, x, v)):
        assert out.dtype == np.float64
    assert np.array_equal(m.d_x(0.0, x, v), np.eye(2))
    g = _cmap(d_x=lambda t, x: [[3, 4]])
    assert g.grad_x(0.0, x).dtype == np.float64 and g.grad_x(0.0, x).shape == (1, 2)
    f = ForceField(dim=2, value=lambda t, x, v: [0, -1])
    assert f(0.0, x, v).dtype == np.float64
    emb = _built("Embedding", u=lambda t, y: [1, 0], u_t=lambda t, y: [0, 0],
                 u_y=lambda t, y: [0, 1])
    assert emb.d_y(0.0, np.zeros(1)).dtype == np.float64
    rep = _built("Reparametrization", value=lambda t, x, v, z: z, jac_z=lambda t, x, v, z: [[2]])
    assert np.array_equal(rep.d_z(0.0, x, v, np.zeros(1)), np.array([[2.0]]))


def test_wrappers_keep_their_shape_errors():
    x, v = np.array([1.0, 2.0]), np.array([0.5, 0.0])
    m = _built("SmoothMap", dim=2, value=lambda t, x, v: [1.0, 2.0, 3.0],
               jac_x=lambda t, x, v: np.ones((2, 3)))
    with pytest.raises(ValueError, match="declared output dimension 2, evaluator returned 3"):
        m(0.0, x, v)
    with pytest.raises(ValueError, match=r"cannot reshape array of size 6 into shape \(2,2\)"):
        m.d_x(0.0, x, v)
    g = _cmap(d_x=lambda t, x: np.ones(3))
    with pytest.raises(ValueError, match=r"cannot reshape array of size 3 into shape \(1,2\)"):
        g.grad_x(0.0, x)
    f = ForceField(dim=2, value=lambda t, x, v: np.ones((1, 3)))
    with pytest.raises(ValueError, match="force field declared dimension 2, got 3"):
        f(0.0, x, v)
    emb = _built("Embedding", u=lambda t, y: np.ones(2), u_t=lambda t, y: np.ones(2),
                 u_y=lambda t, y: np.ones((2, 2)))
    with pytest.raises(ValueError, match=r"cannot reshape array of size 4 into shape \(2,1\)"):
        emb.d_y(0.0, np.zeros(1))


def test_in_state_order_raises_the_verdicts_failure_from_the_blocks():
    def verdict():
        raise ArithmeticError("an earlier state fails")

    with pytest.raises(ArithmeticError, match="an earlier state fails") as err:
        with in_state_order(verdict):
            raise KeyError("a later state's map fails")
    assert isinstance(err.value.__cause__, KeyError)
    assert err.value.__cause__.args == ("a later state's map fails",)


def test_in_state_order_lets_the_blocks_failure_through_when_the_verdict_passes():
    calls, failure = [], KeyError("a map fails")
    with pytest.raises(KeyError) as err:
        with in_state_order(lambda: calls.append("verdict")):
            raise failure
    assert err.value is failure and err.value.__cause__ is None
    assert calls == ["verdict"]


def test_in_state_order_makes_no_verdict_on_a_block_that_succeeds():
    calls = []
    with in_state_order(lambda: calls.append("verdict")):
        calls.append("block")
    assert calls == ["block"]

import numpy as np
import pytest

from constrained_dynamics import (
    ConfigurationMap,
    Embedding,
    ForceField,
    Reparametrization,
    SmoothMap,
    State,
    fd_jacobian,
)
from constrained_dynamics.smooth import (
    EvaluationError,
    central_differences,
    shaped,
    time_difference,
)


def test_fd_square_scalar():
    m = SmoothMap(dim=1, value=lambda t, x, v: np.array([x[0] ** 2]))
    s = State(0.0, np.array([3.0]), np.array([0.0]))
    J = fd_jacobian(m, s, "x")
    assert abs(J[0, 0] - 6.0) < 1e-9


def test_fd_affine_exact_in_v():
    A = np.array([[1.0, 2.0], [3.0, -4.0]])
    a = np.array([0.5, -0.5])
    m = SmoothMap(dim=2, value=lambda t, x, v: a + A @ v)
    s = State(0.0, np.array([1.0, 1.0]), np.array([0.7, -0.2]))
    J = fd_jacobian(m, s, "v")
    assert np.abs(J - A).max() < 1e-9


def test_fd_pendulum_constraint_v_slot():
    m = SmoothMap(dim=1, value=lambda t, x, v: np.array([x @ v]))
    s = State(0.0, np.array([0.0, -1.0]), np.array([2.0, 0.0]))
    J = fd_jacobian(m, s, "v")
    assert np.abs(J - np.array([[0.0, -1.0]])).max() < 1e-9


def test_fd_time_slot():
    m = SmoothMap(dim=1, value=lambda t, x, v: np.array([np.sin(t) * x[0]]))
    s = State(0.3, np.array([2.0]), np.array([0.0]))
    d = fd_jacobian(m, s, "t")
    assert abs(d[0] - 2.0 * np.cos(0.3)) < 1e-9


def test_bad_slot_rejected():
    m = SmoothMap(dim=1, value=lambda t, x, v: np.array([0.0]))
    s = State(0.0, np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        fd_jacobian(m, s, "z")


def test_dimension_mismatch_detected():
    m = SmoothMap(dim=2, value=lambda t, x, v: np.array([1.0]))
    with pytest.raises(ValueError, match="declared output dimension"):
        m(0.0, np.array([1.0]), np.array([1.0]))


def test_evaluation_failure_reports_stencil():
    def bad(t, x, v):
        if x[0] > 1.0:
            raise FloatingPointError("blew up")
        return np.array([x[0]])

    m = SmoothMap(dim=1, value=bad)
    s = State(0.0, np.array([1.0]), np.array([0.0]))
    with pytest.raises(EvaluationError, match=r"x\[0\]"):
        fd_jacobian(m, s, "x")


def test_second_derivative_fallback_failure_reports_stencil():
    def d_x(t, x):
        if x[1] > 2.0:
            raise FloatingPointError("blew up")
        return x.reshape(1, 2)

    g = ConfigurationMap(
        dim=1, value=lambda t, x: np.array([0.5 * x @ x]), d_t=lambda t, x: np.zeros(1), d_x=d_x
    )
    assert np.abs(g.grad_xx(0.0, np.array([1.0, 1.0]))[0] - np.eye(2)).max() < 1e-9
    with pytest.raises(EvaluationError, match=r"x\[1\]"):
        g.grad_xx(0.0, np.array([1.0, 2.0]))


def test_stencils_match_the_written_out_differences():
    fn = lambda z: np.array([np.sin(3.0 * z[0]) * z[1], z[0] ** 3])  # noqa: E731
    base = np.array([0.4, -1.7])
    h = [np.cbrt(np.finfo(float).eps) * max(1.0, abs(c)) for c in base]
    cols = [(fn(base + h[i] * e) - fn(base - h[i] * e)) / (2.0 * h[i])
            for i, e in enumerate(np.eye(2))]
    assert np.array_equal(central_differences(fn, base), np.stack(cols, axis=1))
    f = lambda t: np.array([np.cos(t), t * t])  # noqa: E731
    ht = np.cbrt(np.finfo(float).eps) * 2.5
    assert np.array_equal(time_difference(f, 2.5), (f(2.5 + ht) - f(2.5 - ht)) / (2.0 * ht))


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
    base = dict(value=lambda t, x: np.zeros(1), d_t=lambda t, x: np.zeros(1),
                d_x=lambda t, x: np.zeros((1, 2)))
    return ConfigurationMap(dim=1, **{**base, **maps})


def test_wrappers_convert_lists_and_int_arrays():
    x, v = np.array([1.0, 2.0]), np.array([0.5, 0.0])
    m = SmoothMap(dim=2, value=lambda t, x, v: [1, 2], jac_x=lambda t, x, v: np.eye(2, dtype=int))
    for out in (m(0.0, x, v), m.d_x(0.0, x, v)):
        assert out.dtype == np.float64
    assert np.array_equal(m.d_x(0.0, x, v), np.eye(2))
    g = _cmap(d_x=lambda t, x: [[3, 4]])
    assert g.grad_x(0.0, x).dtype == np.float64 and g.grad_x(0.0, x).shape == (1, 2)
    f = ForceField(dim=2, value=lambda t, x, v: [0, -1])
    assert f(0.0, x, v).dtype == np.float64
    emb = Embedding(dim=2, r=1, u=lambda t, y: [1, 0], u_t=lambda t, y: [0, 0],
                    u_y=lambda t, y: [0, 1])
    assert emb.d_y(0.0, np.zeros(1)).dtype == np.float64
    rep = Reparametrization(n=1, value=lambda t, x, v, z: z, jac_z=lambda t, x, v, z: [[2]])
    assert np.array_equal(rep.d_z(0.0, x, v, np.zeros(1)), np.array([[2.0]]))


def test_wrappers_keep_their_shape_errors():
    x, v = np.array([1.0, 2.0]), np.array([0.5, 0.0])
    m = SmoothMap(dim=2, value=lambda t, x, v: [1.0, 2.0, 3.0],
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
    emb = Embedding(dim=2, r=1, u=lambda t, y: np.ones(2), u_t=lambda t, y: np.ones(2),
                    u_y=lambda t, y: np.ones((2, 2)))
    with pytest.raises(ValueError, match=r"cannot reshape array of size 4 into shape \(2,1\)"):
        emb.d_y(0.0, np.zeros(1))

import numpy as np
import pytest

from constrained_dynamics import (
    ConfigurationMap,
    ConstraintSet,
    RegularityError,
    State,
    check_regularity,
    lift_holonomic,
    virtual_basis,
)
from constrained_dynamics.scenarios import (
    knife_edge_constraints,
    rotating_line_generator,
)
from oracles import random_polynomial_generator, reparametrized


def _phi(cs, s):
    return cs.phi(s.t, s.x, s.v)


def _jacobians(cs, s):
    """(phi_t, phi_x, phi_v) at the state s."""
    return cs.phi.d_t(s.t, s.x, s.v), cs.phi.d_x(s.t, s.x, s.v), cs.phi.d_v(s.t, s.x, s.v)


def test_pendulum_lift_tangent_velocity(circle_lift):
    s = State(0.0, np.array([0.0, -1.0]), np.array([2.0, 0.0]))
    assert abs(_phi(circle_lift, s)[0]) < 1e-15


def test_pendulum_lift_normal_velocity(circle_lift):
    s = State(0.0, np.array([0.0, -1.0]), np.array([0.0, 1.0]))
    assert abs(_phi(circle_lift, s)[0] - (-1.0)) < 1e-15


def test_knife_edge_value():
    cs = knife_edge_constraints()
    s = State(0.0, np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]))
    assert abs(_phi(cs, s)[0] - (-1.0)) < 1e-15


def test_affine_phi_v_is_A_exactly():
    cs = knife_edge_constraints()
    s = State(0.0, np.array([0.5, -0.3, 0.7]), np.array([1.0, 2.0, 3.0]))
    _, _, phi_v = _jacobians(cs, s)
    assert np.array_equal(phi_v, np.array([[np.sin(0.7), -np.cos(0.7), 0.0]]))


def test_pendulum_lift_jacobians(circle_lift):
    s = State(0.0, np.array([0.0, -1.0]), np.array([2.0, 0.5]))
    phi_t, phi_x, phi_v = _jacobians(circle_lift, s)
    assert np.abs(phi_v - np.array([[0.0, -1.0]])).max() < 1e-14
    assert np.abs(phi_x - np.array([[2.0, 0.5]])).max() < 1e-14
    assert abs(phi_t[0]) < 1e-14


def test_rotating_wire_lift_jacobians():
    cs = lift_holonomic(rotating_line_generator(1.0), 2)
    s = State(0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    phi_t, phi_x, phi_v = _jacobians(cs, s)
    # phi = -omega (x cos wt + y sin wt) - vx sin wt + vy cos wt
    assert np.abs(phi_v - np.array([[0.0, 1.0]])).max() < 1e-14
    # phi_t = g_tt + g_tx v vanishes here; phi_x = g_tx since g is linear in x
    assert abs(phi_t[0]) < 1e-14
    assert np.abs(phi_x - np.array([[-1.0, 0.0]])).max() < 1e-14


def test_regularity_pendulum_pass(circle_lift):
    s = State(0.0, np.array([0.0, -1.0]), np.array([2.0, 0.0]))
    verdict = check_regularity(circle_lift, s, tol=1e-8)
    assert verdict.passed
    assert abs(verdict.sigma_min - 1.0) < 1e-12


def test_regularity_origin_fails(circle_lift):
    s = State(0.0, np.array([0.0, 0.0]), np.array([2.0, 0.0]))
    verdict = check_regularity(circle_lift, s)
    assert not verdict.passed
    assert verdict.sigma_min == 0.0


def test_duplicated_constraints_fail():
    from constrained_dynamics import SmoothMap

    phi = SmoothMap(
        dim=2,
        value=lambda t, x, v: np.array([v[0], v[0]]),
        jac_t=lambda t, x, v: np.zeros(2),
        jac_x=lambda t, x, v: np.zeros((2, 3)),
        jac_v=lambda t, x, v: np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
    )
    cs = ConstraintSet.general(3, phi)
    s = State(0.0, np.zeros(3), np.zeros(3))
    verdict = check_regularity(cs, s)
    assert not verdict.passed
    assert verdict.sigma_min < 1e-12


def test_virtual_basis_single_row(circle_lift):
    s = State(0.0, np.array([0.0, -1.0]), np.array([2.0, 0.0]))
    basis = virtual_basis(circle_lift, s)
    assert basis.Xi.shape == (2, 1)
    assert np.abs(np.abs(basis.Xi[:, 0]) - np.array([1.0, 0.0])).max() < 1e-12


def test_virtual_basis_coordinate_kernel():
    from constrained_dynamics import SmoothMap

    phi = SmoothMap(
        dim=2,
        value=lambda t, x, v: v[:2],
        jac_t=lambda t, x, v: np.zeros(2),
        jac_x=lambda t, x, v: np.zeros((2, 3)),
        jac_v=lambda t, x, v: np.eye(2, 3),
    )
    cs = ConstraintSet.general(3, phi)
    basis = virtual_basis(cs, State(0.0, np.zeros(3), np.zeros(3)))
    assert np.abs(basis.Xi[:, 0] - np.array([0.0, 0.0, 1.0])).max() < 1e-14


def test_virtual_basis_knife_edge_half_pi():
    cs = knife_edge_constraints()
    s = State(0.0, np.array([0.0, 0.0, np.pi / 2]), np.array([0.0, 0.0, 0.0]))
    basis = virtual_basis(cs, s)
    # phi_v = (1, 0, 0): kernel spans e2, e3
    assert basis.Xi.shape == (3, 2)
    assert np.abs(np.array([1.0, 0.0, 0.0]) @ basis.Xi).max() < 1e-12


def test_virtual_basis_requires_regularity(circle_lift):
    with pytest.raises(RegularityError):
        virtual_basis(circle_lift, State(0.0, np.zeros(2), np.zeros(2)))


def test_virtual_basis_deterministic(circle_lift):
    s = State(0.0, np.array([0.6, -0.8]), np.array([0.8, 0.6]))
    a = virtual_basis(circle_lift, s).Xi
    b = virtual_basis(circle_lift, s).Xi
    assert a.tobytes() == b.tobytes()


# the second derivatives of a generator linear in x and free of t
_LINEAR = dict(
    d_tt=lambda t, x: np.zeros(1),
    d_tx=lambda t, x: np.zeros((1, x.size)),
    d_xx=lambda t, x: np.zeros((1, x.size, x.size)),
)


def test_lift_coordinate_plane():
    g = ConfigurationMap(
        dim=1,
        value=lambda t, x: x[:1],
        d_t=lambda t, x: np.zeros(1),
        d_x=lambda t, x: np.eye(1, x.size),
        **_LINEAR,
    )
    cs = lift_holonomic(g, 2)
    s = State(0.0, np.array([0.3, 0.4]), np.array([1.5, -0.5]))
    assert abs(_phi(cs, s)[0] - 1.5) < 1e-14


@pytest.mark.parametrize(
    "value, why",
    [
        (lambda t, x: x, "cannot reshape array of size 2"),
        (lambda t, x, v: x[:1], "missing 1 required positional argument"),
    ],
    ids=["wrong-size", "takes-v"],
)
def test_lift_refuses_a_generator_that_fails_the_probe(value, why):
    # the probe shows only that g takes (t, x) and returns g.dim values
    g = ConfigurationMap(
        dim=1, value=value, d_t=lambda t, x: np.zeros(1), d_x=lambda t, x: np.eye(1, x.size),
        **_LINEAR,
    )
    with pytest.raises(
        ValueError,
        match=r"^holonomic generator g must take \(t, x\) and return an array of size 1; "
        r"at t=-?0\.\d+ it failed: .*" + why,
    ):
        lift_holonomic(g, 2)


def test_lift_rotating_wire_value():
    cs = lift_holonomic(rotating_line_generator(1.0), 2)
    t, x, v = 0.5, np.array([0.4, 0.9]), np.array([0.2, -0.1])
    expected = (
        -1.0 * (x[0] * np.cos(t) + x[1] * np.sin(t))
        - v[0] * np.sin(t)
        + v[1] * np.cos(t)
    )
    assert abs(cs.phi(t, x, v)[0] - expected) < 1e-14


def _principal_angle(A, B):
    qa, _ = np.linalg.qr(A)
    qb, _ = np.linalg.qr(B)
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.arccos(np.clip(sv.min(), -1, 1)))


def test_kernel_identity_lift_vs_generator(circle_lift):
    # ker phi_v == ker g_x at random on-domain states
    rng = np.random.default_rng(8)
    g = circle_lift.generator
    for _ in range(100):
        theta = rng.uniform(-np.pi, np.pi)
        x = np.array([np.sin(theta), -np.cos(theta)])
        v = rng.uniform(-2, 2, 2)
        s = State(float(rng.uniform(0, 1)), x, v)
        Xi = virtual_basis(circle_lift, s).Xi
        gx = g.grad_x(s.t, s.x)
        _, _, Vt = np.linalg.svd(gx, full_matrices=True)
        ker_gx = Vt[1:, :].T
        # arccos amplifies roundoff near zero angle, hence the looser bound
        assert _principal_angle(Xi, ker_gx) <= 1e-6


def test_affine_superposition_probe():
    cs = knife_edge_constraints()
    rng = np.random.default_rng(9)
    for _ in range(50):
        t = float(rng.uniform(-1, 1))
        x = rng.uniform(-1, 1, 3)
        v1 = rng.uniform(-1, 1, 3)
        v2 = rng.uniform(-1, 1, 3)
        lhs = (
            cs.phi(t, x, v1 + v2)
            - cs.phi(t, x, v1)
            - cs.phi(t, x, v2)
            + cs.phi(t, x, np.zeros(3))
        )
        assert np.abs(lhs).max() < 1e-12


def test_basis_orthonormal_and_annihilated(all_scenarios):
    rng = np.random.default_rng(10)
    for sc in all_scenarios:
        for s in map(State, *sc.sample_states(rng, 50)):
            basis = virtual_basis(sc.constraints, s)
            Xi = basis.Xi
            assert np.abs(Xi.T @ Xi - np.eye(Xi.shape[1])).max() < 1e-12
            B = sc.constraints.phi.d_v(s.t, s.x, s.v)
            scale = max(1.0, float(np.abs(B).max()))
            assert np.abs(B @ Xi).max() < 1e-10 * scale


def test_n_must_be_less_than_m():
    from constrained_dynamics import SmoothMap

    phi = SmoothMap(
        dim=2,
        value=lambda t, x, v: v[:2],
        jac_t=lambda t, x, v: np.zeros(2),
        jac_x=lambda t, x, v: np.zeros((2, 2)),
        jac_v=lambda t, x, v: np.eye(2),
    )
    with pytest.raises(ValueError):
        ConstraintSet.general(2, phi)


def test_virtual_basis_runs_one_svd(circle_lift, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    s = State(0.0, np.array([0.6, -0.8]), np.array([0.8, 0.6]))
    before = virtual_basis(circle_lift, s).Xi
    monkeypatch.setattr(np.linalg, "svd", counted)
    assert np.array_equal(virtual_basis(circle_lift, s).Xi, before)
    assert len(calls) == 1


def test_virtual_basis_regularity_error_fields(circle_lift):
    with pytest.raises(RegularityError) as err:
        virtual_basis(circle_lift, State(0.5, np.zeros(2), np.zeros(2)))
    assert err.value.sigma_min == 0.0 and err.value.t == 0.5


def _jet_sets():
    from constrained_dynamics import Reparametrization
    from constrained_dynamics.scenarios import sphere_generator

    return {
        "sphere-2": lift_holonomic(sphere_generator(1.0, 2), 2),
        "sphere-3": lift_holonomic(sphere_generator(1.4, 3), 3),
        "rotating-line": lift_holonomic(rotating_line_generator(1.7), 2),
        # off the catalog: n = 2, rheonomic
        "random-polynomial": lift_holonomic(
            random_polynomial_generator(np.random.default_rng(74), 3, 2), 3
        ),
        "knife-edge": knife_edge_constraints(),
        "reparametrized": reparametrized(
            lift_holonomic(rotating_line_generator(0.6), 2),
            Reparametrization.componentwise(1, np.sinh, np.cosh),
        ),
    }


@pytest.mark.parametrize("name", list(_jet_sets()))
def test_jet_equals_the_phi_jacobians(name):
    # a holonomic set's jet reads its generator, and must give the bits of
    # the lift's own Jacobians; any other set's reads phi
    cs = _jet_sets()[name]
    phi = cs.phi
    rng = np.random.default_rng(73)
    for _ in range(20):
        t = float(rng.uniform(0.0, 3.0))
        x = rng.uniform(-2.0, 2.0, cs.dim)
        v = rng.uniform(-2.0, 2.0, cs.dim)
        B, drift = cs.jet(t, x, v)
        assert np.array_equal(B, phi.d_v(t, x, v))
        assert np.array_equal(drift, phi.d_t(t, x, v) + phi.d_x(t, x, v) @ v)


def test_holonomic_kind_is_read_off_the_generator(circle_lift):
    import dataclasses

    # the lift is holonomic because it holds g; without g it is the affine
    # set phi = g_t + g_x v, whose jet reads phi and gives the same values
    affine = dataclasses.replace(circle_lift, generator=None)
    assert circle_lift.is_holonomic and not affine.is_holonomic
    assert affine.affine_A is circle_lift.affine_A
    rng = np.random.default_rng(29)
    for _ in range(5):
        t, x, v = float(rng.uniform(0.0, 3.0)), rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
        for got, want in zip(affine.jet(t, x, v), circle_lift.jet(t, x, v)):
            assert np.array_equal(got, want)
    assert not ConstraintSet.general(2, circle_lift.phi).is_holonomic


def test_scleronomy_is_declared_by_the_catalog(all_scenarios):
    declared = {sc.name: sc.constraints.scleronomic for sc in all_scenarios}
    assert declared == {
        "pendulum": True, "spherical-pendulum": True,
        "rotating-wire-bead": False, "knife-edge": True,
    }
    assert not lift_holonomic(rotating_line_generator(1.0), 2).scleronomic


def test_declared_scleronomy_refuses_a_nan_phi_t(pendulum):
    # a NaN compares false with the tolerance, so the test is "not <="
    import dataclasses

    from constrained_dynamics.checks import check_scenario

    cs = pendulum.constraints
    phi = dataclasses.replace(cs.phi, jac_t=lambda t, x, v: np.full(1, np.nan))
    nan_set = dataclasses.replace(cs, phi=phi)
    s = pendulum.initial
    cs.require_declared_scleronomy(s.t, s.x, s.v, "here")
    with pytest.raises(
        ValueError,
        match=r"^here: constraints declared scleronomic have \|phi_t\| = nan > 1e-12 at t=0\.0$",
    ):
        nan_set.require_declared_scleronomy(s.t, s.x, s.v, "here")
    # the property suite refuses it too, at the initial state of its run
    with pytest.raises(ValueError, match=r"^initial state: .* \|phi_t\| = nan > "):
        check_scenario(dataclasses.replace(pendulum, constraints=nan_set))


def test_phi_of_the_wrong_dimension_is_refused():
    phi = knife_edge_constraints().phi  # one output
    with pytest.raises(ValueError, match="phi output dimension disagrees with n"):
        ConstraintSet(dim=3, n=2, phi=phi)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constrained_dynamics import (
    MassMatrix,
    State,
    build_point_mass_matrix,
    check_spd,
)
from constrained_dynamics.scenarios import _make_force


def test_single_unit_mass():
    mm = build_point_mass_matrix([1.0])
    assert mm.dim == 3
    assert np.array_equal(mm.G, np.eye(3))


def test_two_masses_repeated_three_times():
    mm = build_point_mass_matrix([2.0, 3.0])
    assert np.array_equal(np.diag(mm.G), np.array([2.0, 2.0, 2.0, 3.0, 3.0, 3.0]))


def test_nonpositive_mass_rejected_with_index():
    with pytest.raises(ValueError, match="mass 1 must be positive"):
        build_point_mass_matrix([1.0, 0.0])


def test_check_spd_identity_passes():
    assert check_spd(np.eye(3)).passed


def test_check_spd_indefinite_fails():
    assert not check_spd(np.diag([1.0, -1.0])).passed


def test_check_spd_projected_mass():
    # oracle: direct 2x2 multiplication of B G B^T
    B = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    G = np.diag([2.0, 3.0, 4.0])
    M = B @ G @ B.T
    assert np.array_equal(M, np.diag([2.0, 3.0]))
    assert check_spd(M).passed


@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_point_mass_matrix_always_spd(masses):
    mm = build_point_mass_matrix(masses)
    assert check_spd(mm.G, tol=1e-12).passed


def test_mass_matrix_construction_is_pure():
    a = build_point_mass_matrix([1.5, 2.5]).G
    b = build_point_mass_matrix([1.5, 2.5]).G
    assert a.tobytes() == b.tobytes()


def test_mass_matrix_rejects_indefinite():
    with pytest.raises(ValueError):
        MassMatrix(np.diag([1.0, -2.0]))


def test_mass_matrix_rejects_asymmetric():
    verdict = check_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert verdict.symmetric is False and verdict.passed is False
    with pytest.raises(ValueError, match="symmetric=False"):
        MassMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))


def _catalog_forces(m, mass):
    return [
        _make_force({"type": "uniform-gravity", "g0": 10.0, "axis": m - 1}, mass),
        _make_force({"type": "linear-spring", "k": 2.5, "anchor": [0.1] * m}, mass),
    ]


def test_potential_consistent_with_force():
    # -grad V == f for the declared-potential catalog forces
    rng = np.random.default_rng(6)
    m = 2
    mass = MassMatrix(np.eye(2))
    h = 1e-6
    for f in _catalog_forces(m, mass):
        for _ in range(20):
            t = float(rng.uniform(-1, 1))
            x = rng.uniform(-1, 1, m)
            grad = np.zeros(m)
            for i in range(m):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                grad[i] = (f.potential(t, xp) - f.potential(t, xm)) / (2 * h)
            assert np.abs(-grad - f(t, x, np.zeros(m))).max() < 1e-6


def test_check_spd_refuses_a_non_square_matrix():
    with pytest.raises(ValueError, match="check_spd expects a square matrix"):
        check_spd(np.ones((2, 3)))


def test_no_point_mass_is_refused():
    with pytest.raises(ValueError, match="need at least one mass"):
        build_point_mass_matrix([])


def test_force_and_mass_of_different_dimensions_are_refused():
    from constrained_dynamics import ForceField, MechanicalSystem

    with pytest.raises(ValueError, match="force dimension 3 != mass dimension 2"):
        MechanicalSystem(mass=MassMatrix(np.eye(2)), force=ForceField.zero(3))

import json

import numpy as np
import pytest

from constrained_dynamics import (
    ConfigurationMap,
    ConstraintSet,
    ForceField,
    MassMatrix,
    MechanicalSystem,
    State,
    catalog_scenario,
    lift_holonomic,
)


@pytest.fixture(scope="session")
def pendulum():
    return catalog_scenario("pendulum")


@pytest.fixture(scope="session")
def spherical():
    return catalog_scenario("spherical-pendulum")


@pytest.fixture(scope="session")
def rotating_wire():
    return catalog_scenario("rotating-wire-bead")


@pytest.fixture(scope="session")
def knife_edge():
    return catalog_scenario("knife-edge")


@pytest.fixture(scope="session")
def all_scenarios(pendulum, spherical, rotating_wire, knife_edge):
    return [pendulum, spherical, rotating_wire, knife_edge]


@pytest.fixture
def pendulum_bottom():
    """The classic tension check state: x = (0, -1), v = (2, 0)."""
    return State(0.0, np.array([0.0, -1.0]), np.array([2.0, 0.0]))


def unit_circle_lift():
    g = ConfigurationMap(
        dim=1,
        value=lambda t, x: np.array([0.5 * (x @ x - 1.0)]),
        d_t=lambda t, x: np.zeros(1),
        d_x=lambda t, x: x.reshape(1, 2),
        d_tt=lambda t, x: np.zeros(1),
        d_tx=lambda t, x: np.zeros((1, 2)),
        d_xx=lambda t, x: np.eye(2).reshape(1, 2, 2),
    )
    return lift_holonomic(g, 2)


@pytest.fixture
def circle_lift():
    return unit_circle_lift()


@pytest.fixture
def free_particle_file(tmp_path):
    """A scenario document without a constraint: a point in the plane under gravity."""
    doc = {
        "name": "free-particle",
        "mass": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "force": {"type": "uniform-gravity", "g0": 9.81, "axis": 1},
        "initial": {"t": 0.0, "x": [0.0, 1.0], "v": [1.0, 0.0]},
        "integrator": {"method": "rk4-fixed", "dt": 1e-2},
    }
    path = tmp_path / "free-particle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture
def free_particle_vx():
    """m = 1 in the plane, constraint v1 = 0, force (3, 5)."""
    sys = MechanicalSystem(
        mass=MassMatrix(np.eye(2)),
        force=ForceField(dim=2, value=lambda t, x, v: np.array([3.0, 5.0])),
    )
    cs = ConstraintSet.affine(
        dim=2,
        a=lambda t, x: np.zeros(1),
        A=lambda t, x: np.array([[1.0, 0.0]]),
        jac_t=lambda t, x, v: np.zeros(1),
        jac_x=lambda t, x, v: np.zeros((1, 2)),
        n=1,
    )
    return sys, cs

"""Constrained-dynamics engine: ideal reactions in closed form, Lagrange
equations of the first and second kind, and machine checks of the theory's
structural identities."""

__version__ = "0.1.0"

from .smooth import ConfigurationMap, SmoothMap, State
from .system import (
    ForceField,
    MassMatrix,
    MechanicalSystem,
    build_point_mass_matrix,
    check_spd,
)
from .constraints import (
    ConstraintSet,
    RegularityError,
    VirtualBasis,
    check_regularity,
    lift_holonomic,
    virtual_basis,
)
from .reactions import (
    ReactionResult,
    Realization,
    Reparametrization,
    invariance_report,
    reaction,
    virtual_work,
)
from .integrate import (
    IntegratorConfig,
    OffManifoldError,
    Trajectory,
    acceleration,
    gde_residual,
    integrate_first_kind,
)
from .generalized import (
    ChartError,
    Embedding,
    GeneralizedState,
    GeneralizedTrajectory,
    covariance_residual,
    decompose_T,
    integrate_second_kind,
    lagrangian_derivative,
    match_trajectories,
    pullback_lagrangian,
    pushforward_state,
)
from .scenarios import Scenario, ScenarioError, catalog_scenario, parse_scenario, write_scenario

__all__ = [
    "ChartError",
    "ConfigurationMap",
    "ConstraintSet",
    "Embedding",
    "ForceField",
    "GeneralizedState",
    "GeneralizedTrajectory",
    "IntegratorConfig",
    "MassMatrix",
    "MechanicalSystem",
    "OffManifoldError",
    "ReactionResult",
    "Realization",
    "RegularityError",
    "Reparametrization",
    "Scenario",
    "ScenarioError",
    "SmoothMap",
    "State",
    "Trajectory",
    "VirtualBasis",
    "acceleration",
    "build_point_mass_matrix",
    "catalog_scenario",
    "check_regularity",
    "check_spd",
    "covariance_residual",
    "decompose_T",
    "gde_residual",
    "integrate_first_kind",
    "integrate_second_kind",
    "invariance_report",
    "lagrangian_derivative",
    "lift_holonomic",
    "match_trajectories",
    "parse_scenario",
    "pullback_lagrangian",
    "pushforward_state",
    "reaction",
    "virtual_basis",
    "virtual_work",
    "write_scenario",
]

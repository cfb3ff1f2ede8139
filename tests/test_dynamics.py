import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constrained_dynamics import (
    ConstraintSet,
    ForceField,
    IntegratorConfig,
    MassMatrix,
    MechanicalSystem,
    OffManifoldError,
    Reparametrization,
    State,
    acceleration,
    catalog_scenario,
    gde_residual,
    integrate_first_kind,
    lift_holonomic,
    reaction,
)
from constrained_dynamics.integrate import (
    ProjectionError,
    Trajectory,
    _march,
    project_to_manifold,
)
from oracles import _DP_A, _DP_B4, _DP_B5, _DP_C, combine, project
from oracles import march as array_march


def _free_system(dim=2, force=None):
    if force is None:
        force = ForceField.zero(dim)
    return MechanicalSystem(mass=MassMatrix(np.eye(dim)), force=force)


def test_unconstrained_projectile():
    # oracle: closed-form ballistic arc under f = (0, -10)
    sys = _free_system(
        force=ForceField(dim=2, value=lambda t, x, v: np.array([0.0, -10.0]))
    )
    init = State(0.0, np.zeros(2), np.array([1.0, 5.0]))
    traj = integrate_first_kind(sys, None, init, 1.0, IntegratorConfig(dt=1e-2))
    assert abs(traj.times[-1] - 1.0) < 1e-12
    assert np.abs(traj.positions[-1] - np.array([1.0, 0.0])).max() < 1e-10
    assert np.abs(traj.velocities[-1] - np.array([1.0, -5.0])).max() < 1e-10


def test_acceleration_pendulum(pendulum, pendulum_bottom):
    a = acceleration(pendulum.system, pendulum.constraints, pendulum_bottom)
    assert np.abs(a - np.array([0.0, 4.0])).max() < 1e-12


def test_pendulum_period_against_quadrature(pendulum):
    # oracle: quarter-period of the large-amplitude pendulum by quadrature,
    # T/4 = sqrt(1/g) * int_0^th0 dth / sqrt(2 (cos th - cos th0))
    from scipy.integrate import quad

    g0 = 10.0
    th0 = 1.2
    quarter = quad(
        lambda th: 1.0 / np.sqrt(2.0 * g0 * (np.cos(th) - np.cos(th0))), 0.0, th0
    )[0]
    period = 4.0 * quarter
    init = State(
        0.0, np.array([np.sin(th0), -np.cos(th0)]), np.zeros(2)
    )
    traj = integrate_first_kind(
        pendulum.system, pendulum.constraints, init, period, IntegratorConfig(dt=5e-4)
    )
    assert np.abs(traj.positions[-1] - init.x).max() < 1e-5
    assert np.abs(traj.velocities[-1]).max() < 1e-4


def test_fourth_order_drift_convergence(pendulum):
    # halving dt should shrink the constraint drift by about 2^4
    init = pendulum.initial
    drifts = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = integrate_first_kind(
            pendulum.system, pendulum.constraints, init, 2.0, IntegratorConfig(dt=dt)
        )
        drifts.append(max(traj.max_diag("g_norm"), 1e-300))
    assert drifts[0] / drifts[1] > 8.0
    assert drifts[1] / drifts[2] > 8.0


def test_adaptive_matches_fixed(pendulum):
    init = pendulum.initial
    fixed = integrate_first_kind(
        pendulum.system, pendulum.constraints, init, 2.0, IntegratorConfig(dt=2e-4)
    )
    adaptive = integrate_first_kind(
        pendulum.system,
        pendulum.constraints,
        init,
        2.0,
        IntegratorConfig(method="rk45-adaptive", dt=1e-2, tolerance=1e-11),
    )
    assert np.abs(fixed.positions[-1] - adaptive.positions[-1]).max() < 1e-7
    assert len(adaptive) < len(fixed)


def test_projection_tightens_drift(rotating_wire):
    init = rotating_wire.initial
    loose = integrate_first_kind(
        rotating_wire.system, rotating_wire.constraints, init, 3.0,
        IntegratorConfig(dt=5e-3),
    )
    tight = integrate_first_kind(
        rotating_wire.system, rotating_wire.constraints, init, 3.0,
        IntegratorConfig(dt=5e-3, projection="positional+velocity"),
    )
    assert tight.max_diag("g_norm") <= 1e-11
    assert tight.max_diag("g_norm") < loose.max_diag("g_norm")


def test_off_manifold_initial_rejected(pendulum):
    bad = State(0.0, np.array([0.0, -1.1]), np.array([2.0, 0.0]))
    with pytest.raises(OffManifoldError):
        integrate_first_kind(pendulum.system, pendulum.constraints, bad, 1.0)


@pytest.mark.parametrize("name, field, residual", [
    ("knife-edge", "phi", "phi"), ("pendulum", "generator", "g"),
])
def test_nan_initial_residual_rejected(name, field, residual):
    # a NaN residual compares false with the tolerance, and is refused all the
    # same; a holonomic set's phi is the lift of g_t and g_x, not of g
    import dataclasses

    sc = catalog_scenario(name)
    nan = dataclasses.replace(getattr(sc.constraints, field), value=lambda *a: np.full(1, np.nan))
    cs = dataclasses.replace(sc.constraints, **{field: nan})
    with pytest.raises(OffManifoldError, match=rf"^initial {residual} residual nan exceeds 1e-08$"):
        integrate_first_kind(sc.system, cs, sc.initial, 1.0)


def test_gde_residual_vanishes_on_solution(pendulum, pendulum_bottom):
    a = acceleration(pendulum.system, pendulum.constraints, pendulum_bottom)
    assert gde_residual(pendulum.system, pendulum.constraints, pendulum_bottom, a) < 1e-13


def test_gde_residual_flags_wrong_acceleration(pendulum, pendulum_bottom):
    wrong = np.array([1.0, 4.0])
    assert gde_residual(pendulum.system, pendulum.constraints, pendulum_bottom, wrong) > 0.5


def test_gde_residual_along_trajectory(all_scenarios):
    for sc in all_scenarios:
        traj = integrate_first_kind(
            sc.system, sc.constraints, sc.initial, 1.0, IntegratorConfig(dt=2e-3)
        )
        assert traj.max_diag("gde_residual") < 1e-10


def _projected_state(s, cs, mass, max_iter=20):
    """The State that project_to_manifold reaches from ``s``, position and
    velocity projected to tol 1e-12."""
    x, v, *_ = project_to_manifold(cs, mass.inverse, s.t, s.x, s.v, 1e-12, max_iter, True)
    return State(s.t, x, v)


def test_project_to_manifold_radial(circle_lift):
    s = State(0.0, np.array([0.0, -1.2]), np.array([2.0, 0.3]))
    proj = _projected_state(s, circle_lift, MassMatrix(np.eye(2)))
    assert abs(np.linalg.norm(proj.x) - 1.0) < 1e-12
    assert abs(proj.x @ proj.v) < 1e-12
    # equal masses: the positional correction is purely radial
    assert abs(proj.x[0]) < 1e-12


def test_project_respects_metric(circle_lift):
    # unequal masses tilt the minimal correction away from the Euclidean one
    s = State(0.0, np.array([0.6, -1.2]), np.zeros(2))
    heavy_x = _projected_state(s, circle_lift, MassMatrix(np.diag([100.0, 1.0])))
    even = _projected_state(s, circle_lift, MassMatrix(np.eye(2)))
    assert abs(np.linalg.norm(heavy_x.x) - 1.0) < 1e-12
    # the heavy-x metric should move x[0] less than the Euclidean projection
    assert abs(heavy_x.x[0] - s.x[0]) < abs(even.x[0] - s.x[0])


def test_project_requires_holonomic(knife_edge):
    s = knife_edge.initial
    with pytest.raises(ValueError):
        _projected_state(s, knife_edge.constraints, knife_edge.system.mass)


@pytest.mark.parametrize("mode", ["positional", "positional+velocity"])
@pytest.mark.parametrize("run", ["knife-edge", "unconstrained"])
def test_projected_run_refuses_a_set_that_is_not_holonomic(knife_edge, run, mode):
    # refused before the first sample: not one force call
    if run == "knife-edge":
        sys, calls = _counting_force(knife_edge.system)
        cs, init = knife_edge.constraints, knife_edge.initial
    else:
        sys, calls = _counting_force(_free_system())
        cs, init = None, State(0.0, np.zeros(2), np.array([1.0, 5.0]))
    with pytest.raises(ValueError, match="projection requires a holonomic constraint set"):
        integrate_first_kind(sys, cs, init, 0.1, IntegratorConfig(dt=1e-2, projection=mode))
    assert calls[0] == 0


def test_project_reports_failure(circle_lift):
    s = State(0.0, np.array([5.0, 5.0]), np.zeros(2))
    with pytest.raises(ProjectionError):
        _projected_state(s, circle_lift, MassMatrix(np.eye(2)), max_iter=1)


@pytest.mark.parametrize("max_iter", [0, -1, 2.5, True])
def test_project_refuses_a_bad_iteration_count(pendulum, max_iter):
    # the initial state is on the manifold; the count is refused before any work
    want = re.escape(f"max_iter must be an integer >= 1, got {max_iter!r}")
    with pytest.raises(ValueError, match=want):
        _projected_state(
            pendulum.initial, pendulum.constraints, pendulum.system.mass, max_iter=max_iter
        )


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(projection="sometimes")
    with pytest.raises(ValueError):
        IntegratorConfig(dt=-1e-3)


@pytest.mark.parametrize("max_iter", [0, -1, 2.5, True])
def test_projection_max_iter_must_be_a_positive_integer(max_iter):
    with pytest.raises(ValueError, match="projection_max_iter must be an integer >= 1"):
        IntegratorConfig(projection="positional", projection_max_iter=max_iter)


def test_run_refuses_a_scleronomy_declaration_false_at_the_start(rotating_wire):
    import dataclasses

    from constrained_dynamics import GeneralizedState
    from constrained_dynamics.generalized import pushforward_state

    # a bead sliding along the turning line: phi_t = -omega w != 0
    init = pushforward_state(rotating_wire.embedding, GeneralizedState(0.0, [1.0], [0.5]))
    cs = dataclasses.replace(rotating_wire.constraints, scleronomic=True)
    with pytest.raises(ValueError, match="initial state: constraints declared scleronomic"):
        integrate_first_kind(rotating_wire.system, cs, init, 0.1)
    # declared as it is, the same start runs
    integrate_first_kind(rotating_wire.system, rotating_wire.constraints, init, 0.01)


def test_csv_round_trip(pendulum):
    import csv
    import io

    traj = integrate_first_kind(
        pendulum.system, pendulum.constraints, pendulum.initial, 0.01,
        IntegratorConfig(dt=5e-3),
    )
    text = traj.to_csv()
    assert text.endswith("\n") and "\r" not in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == [
        "t", "x1", "x2", "v1", "v2", "lambda1", "N1", "N2",
        "g_norm", "phi_norm", "gde_residual", "energy",
    ]
    assert len(rows) == 1 + len(traj)
    # 17 significant digits survive a parse round trip bit-for-bit
    parsed = np.array([float(c) for c in rows[1][1:3]])
    assert np.array_equal(parsed, traj.positions[0])


def test_csv_empty_g_norm_for_nonholonomic(knife_edge):
    traj = integrate_first_kind(
        knife_edge.system, knife_edge.constraints, knife_edge.initial, 0.01,
        IntegratorConfig(dt=5e-3),
    )
    header = traj.to_csv().splitlines()[0].split(",")
    line = traj.to_csv().splitlines()[1]
    g_field = line.split(",")[header.index("g_norm")]
    assert g_field == ""


def _per_row_csv(header, columns):
    """The per-row CSV formatter that the column writers replaced:
    f"{z:.17g}" per field, and an empty field for a missing column."""
    lines = [",".join(header)]
    for i in range(len(columns[0])):
        fields = []
        for col in columns:
            if col is None:
                fields.append("")
            else:
                fields += [f"{float(z):.17g}" for z in np.atleast_1d(col[i])]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def _first_kind_header(m, n):
    return (
        ["t"] + [f"x{i+1}" for i in range(m)] + [f"v{i+1}" for i in range(m)]
        + [f"lambda{i+1}" for i in range(n)] + [f"N{i+1}" for i in range(m)]
        + ["g_norm", "phi_norm", "gde_residual", "energy"]
    )


def _assert_csv_matches_per_row_formatter(traj):
    m, n = traj.positions.shape[1], traj.Lambda.shape[1]
    columns = [
        traj.times, traj.positions, traj.velocities, traj.Lambda, traj.N,
        traj.g_norm, traj.phi_norm, traj.gde_residual, traj.energy,
    ]
    assert traj.to_csv() == _per_row_csv(_first_kind_header(m, n), columns)


@pytest.mark.parametrize("name", ["pendulum", "knife-edge"])
def test_csv_matches_per_row_formatter(name):
    sc = catalog_scenario(name)
    traj = integrate_first_kind(
        sc.system, sc.constraints, sc.initial, 0.2, IntegratorConfig(dt=1e-2)
    )
    assert (traj.g_norm is None) == (name == "knife-edge")
    _assert_csv_matches_per_row_formatter(traj)


def test_free_particle_columns_and_csv(free_particle_file):
    from constrained_dynamics import parse_scenario

    sc = parse_scenario(free_particle_file)
    traj = integrate_first_kind(sc.system, sc.constraints, sc.initial, 0.2, sc.integrator)
    k = len(traj)
    assert k == 21
    assert traj.times.shape == (k,)
    for col in (traj.positions, traj.velocities, traj.N, traj.xdd):
        assert col.shape == (k, 2)
    assert traj.Lambda.shape == (k, 0)
    assert traj.g_norm is None
    assert traj.max_diag("g_norm") == 0.0
    for col in (traj.phi_norm, traj.gde_residual, traj.energy, traj.force_norm, traj.phi_rate):
        assert col.shape == (k,)
    assert "lambda" not in traj.to_csv().splitlines()[0]
    _assert_csv_matches_per_row_formatter(traj)


def test_second_kind_csv_matches_per_row_formatter(spherical):
    from constrained_dynamics import integrate_second_kind

    traj = integrate_second_kind(
        spherical.embedding, spherical.system, spherical.initial_generalized, 0.2,
        IntegratorConfig(dt=1e-2),
    )
    # every column of a second-kind run has one row per sample
    k, r = traj.y.shape
    assert k == len(traj) == 21 and r == 2
    for col in (traj.w, traj.a, traj.Q):
        assert col.shape == (k, r)


_LEVELS = ("generator", "phi")


def _injected(cs, level, wrap):
    """The holonomic set ``cs`` with a fault injected by ``wrap(name, fn)``,
    which returns the map to use in place of the map ``fn`` named ``name``.

    At level "generator" the generator's maps (value, d_t, d_x, d_tt, d_tx,
    d_xx) are wrapped and re-lifted, since the multiplier solve reads them;
    at level "phi" phi's maps (value, jac_t, jac_x, jac_v) are wrapped in a
    general set, whose solve reads phi.
    """
    import dataclasses

    if level == "generator":
        g = cs.generator
        names = ("value", "d_t", "d_x", "d_tt", "d_tx", "d_xx")
        g = dataclasses.replace(g, **{k: wrap(k, getattr(g, k)) for k in names})
        return lift_holonomic(g, cs.dim)
    phi = cs.phi
    names = ("value", "jac_t", "jac_x", "jac_v")
    return ConstraintSet.general(
        cs.dim, dataclasses.replace(phi, **{k: wrap(k, getattr(phi, k)) for k in names})
    )


def _nan_time_derivative(fn_name, fn, t_from):
    """``fn``, except NaN from ``t_from`` on when it is g_tt or phi_t."""
    if fn_name not in ("d_tt", "jac_t"):
        return fn
    return lambda t, *a: np.full(1, np.nan) if t >= t_from else fn(t, *a)


def test_non_finite_sample_names_its_time(pendulum):
    # a NaN phi_t (from a NaN g_tt) passes the Gram check (phi_v is finite)
    # and makes the multipliers, hence the acceleration, NaN; a NaN force
    # would be stopped at the force field instead
    for level in _LEVELS:
        cs = _injected(
            pendulum.constraints, level, lambda k, fn: _nan_time_derivative(k, fn, 0.05)
        )
        cfg = IntegratorConfig(dt=1e-2)
        # every sample up to t = 0.04 is finite; the step to t = 0.05 takes its
        # last stage at the first NaN phi_t, so the sample at 0.05 is not
        finite = integrate_first_kind(pendulum.system, cs, pendulum.initial, 0.04, cfg)
        assert np.all(np.isfinite(finite.velocities))
        with pytest.raises(ValueError, match=r"must be finite at t=0\.05$"):
            integrate_first_kind(pendulum.system, cs, pendulum.initial, 0.2, cfg)


def _faint_pendulum(pendulum, level, nan_phi_t_from=None):
    """The pendulum with g (or phi) and its derivatives scaled by 1e-9 for
    t >= 0.05: phi_v then fails the 1e-8 rank rule while the Gram rule
    (floor 0) passes, and the reaction, hence the motion, is unchanged.
    Optionally g_tt (or phi_t), hence phi_t, is NaN from ``nan_phi_t_from``
    on."""

    def wrap(name, fn):
        def scaled(t, *args):
            return (1e-9 if t >= 0.05 else 1.0) * fn(t, *args)

        if nan_phi_t_from is None:
            return scaled
        return _nan_time_derivative(name, scaled, nan_phi_t_from)

    return _injected(pendulum.constraints, level, wrap)


def test_degenerate_phi_v_is_reported_at_its_first_sample(pendulum):
    from constrained_dynamics import RegularityError

    for level in _LEVELS:
        cs = _faint_pendulum(pendulum, level)
        sys = pendulum.system
        s = State(0.1, pendulum.initial.x, pendulum.initial.v)
        a = acceleration(sys, cs, s)
        assert np.allclose(a, acceleration(sys, pendulum.constraints, s), rtol=1e-9, atol=0.0)
        with pytest.raises(RegularityError, match=r"constraint Jacobian phi_v .* at t=0\.05 ") as err:
            integrate_first_kind(sys, cs, pendulum.initial, 0.2, IntegratorConfig(dt=1e-2))
        assert err.value.t == 0.05


def test_degenerate_phi_v_outranks_a_later_failure(pendulum):
    # the NaN phi_t from t = 0.1 makes the sample's acceleration NaN, and the
    # next step stops the march at the Gram matrix of a NaN stage state; the
    # degenerate phi_v at t = 0.05 came first and is what the run reports
    from constrained_dynamics import RegularityError

    for level in _LEVELS:
        cs = _faint_pendulum(pendulum, level, nan_phi_t_from=0.1)
        with pytest.raises(RegularityError, match=r"constraint Jacobian phi_v .* at t=0\.05 "):
            integrate_first_kind(
                pendulum.system, cs, pendulum.initial, 0.2, IntegratorConfig(dt=1e-2)
            )


def test_deferred_phi_v_failure_is_chained_from_the_march_error(pendulum):
    # the diagnostics, phi_v's rank test among them, are taken once per run,
    # so the march has gone on past t = 0.05 and its own error is the cause
    from constrained_dynamics import RegularityError

    for level in _LEVELS:
        cs = _faint_pendulum(pendulum, level, nan_phi_t_from=0.1)
        with pytest.raises(RegularityError) as err:
            integrate_first_kind(
                pendulum.system, cs, pendulum.initial, 0.2, IntegratorConfig(dt=1e-2)
            )
        assert err.value.t == 0.05
        assert "constraint Gram matrix is non-finite" in str(err.value.__cause__)


def test_multiplier_solve_reads_each_generator_map_once(pendulum, monkeypatch):
    # one g_tt, g_tx and g_xx call per multiplier solve, and no phi Jacobian
    # call: the drift phi_t + phi_x v shares one g_tx
    import collections
    import dataclasses

    from constrained_dynamics import integrate

    calls = collections.Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    g = pendulum.constraints.generator
    g = dataclasses.replace(g, **{k: counted(k, getattr(g, k)) for k in ("d_tt", "d_tx", "d_xx")})
    cs = lift_holonomic(g, 2)
    phi = dataclasses.replace(
        cs.phi, **{k: counted("phi_jac", getattr(cs.phi, k)) for k in ("jac_t", "jac_x", "jac_v")}
    )
    cs = dataclasses.replace(cs, phi=phi)
    solver = integrate._multiplier_solver
    monkeypatch.setattr(
        integrate, "_multiplier_solver", lambda *args: counted("solve", solver(*args))
    )
    traj = integrate_first_kind(
        pendulum.system, cs, pendulum.initial, 0.2, IntegratorConfig(dt=1e-2)
    )
    # 20 steps of 3 stages, plus one solve per each of the 21 samples
    assert len(traj) == 21 and calls["solve"] == 81
    assert calls["d_tt"] == calls["d_tx"] == calls["d_xx"] == 81
    assert calls["phi_jac"] == 0


def _counting_solvers(monkeypatch, module):
    """The number of multiplier solvers ``module`` builds while the test runs,
    and the calls of their solves, in a list [solvers, solves]."""
    counts = [0, 0]
    solver = module._multiplier_solver

    def counted(*args, **kwargs):
        counts[0] += 1
        solve = solver(*args, **kwargs)

        def counting_solve(*args, **kwargs):
            counts[1] += 1
            return solve(*args, **kwargs)

        return counting_solve

    monkeypatch.setattr(module, "_multiplier_solver", counted)
    return counts


@pytest.mark.parametrize("cfg", [
    IntegratorConfig(dt=1e-2),
    IntegratorConfig(dt=1e-2, method="rk45-adaptive"),
    IntegratorConfig(dt=1e-2, projection="positional+velocity"),
], ids=["rk4", "dp45", "projected"])
def test_one_multiplier_solver_per_run(pendulum, cfg, monkeypatch):
    # every stage and every sample of a run solves with the solver the run
    # built at its start; an unprojected Dormand-Prince sample reuses the
    # solve of its step's stage 7, so only the initial sample solves
    from constrained_dynamics import integrate

    counts = _counting_solvers(monkeypatch, integrate)
    stages = [0]
    accel = integrate._accel_raw

    def counted(*args):
        stages[0] += 1
        return accel(*args)

    monkeypatch.setattr(integrate, "_accel_raw", counted)
    traj = integrate_first_kind(pendulum.system, pendulum.constraints, pendulum.initial, 0.2, cfg)
    sample_solves = 1 if cfg.method == "rk45-adaptive" else len(traj)
    assert counts == [1, stages[0] + sample_solves]


def test_one_multiplier_solver_per_check(pendulum):
    # reaction solves its one state with a per-state solver; the virtual-work
    # check makes no per-state solve and solves all its states at once; the
    # invariance check builds one solver and solves phi and each family at
    # every state, with no stacked solve
    from constrained_dynamics import checks, reactions

    sc = pendulum
    with pytest.MonkeyPatch.context() as mp:
        counts = _counting_solvers(mp, reactions)
        reaction(sc.system, sc.constraints, sc.initial)
    assert counts == [1, 1]
    t, X, V = sc.sample_states(np.random.default_rng(3), 20)
    reps = [Reparametrization.identity(1), Reparametrization.linear([[2.0]])]
    runs = [
        lambda: checks.check_virtual_work(sc, checks.DEFAULT_THRESHOLDS, count=50),
        lambda: reactions.invariance_report(sc.system, sc.constraints, reps, t, X, V),
    ]
    for run, solves, stacks in zip(runs, [[0, 0], [1, 20 * (1 + len(reps))]], [[50], []]):
        with pytest.MonkeyPatch.context() as mp:
            counts = _counting_solvers(mp, reactions)
            stacked = []
            solve = reactions._stacked_solve

            def counted(Ginv, B, *args):
                stacked.append(len(B))
                return solve(Ginv, B, *args)

            for module in (checks, reactions):
                mp.setattr(module, "_stacked_solve", counted)
            run()
        assert counts == solves and stacked == stacks
    assert not hasattr(checks, "_multiplier_solver")


def _generator_calls(sc, cfg):
    """Calls of g, g_x and g_t in one 0.2 s run of ``sc`` under ``cfg``, as
    (before the first sample, in the stages, [one Counter per sample]).

    A projected sample's calls are those of its projection and of the
    sample that follows it.
    """
    import collections
    import dataclasses

    from constrained_dynamics import integrate

    start, stages, samples = collections.Counter(), collections.Counter(), []
    active = [start]

    def counted(name, fn):
        def wrapped(*args):
            active[-1][name] += 1
            return fn(*args)

        return wrapped

    def phase(mp, name, bucket):
        fn = getattr(integrate, name)

        def wrapped(*args):
            active.append(bucket(args))
            try:
                return fn(*args)
            finally:
                active.pop()

        mp.setattr(integrate, name, wrapped)

    def new_sample():
        samples.append(collections.Counter())
        return samples[-1]

    g = sc.constraints.generator
    g = dataclasses.replace(
        g, value=counted("g", g.value), d_x=counted("g_x", g.d_x), d_t=counted("g_t", g.d_t)
    )
    cs = lift_holonomic(g, sc.dim, scleronomic=sc.constraints.scleronomic)
    start.clear()  # the lift's probe of g
    with pytest.MonkeyPatch.context() as mp:
        phase(mp, "_accel_raw", lambda args: stages)
        phase(mp, "project_to_manifold", lambda args: new_sample())
        # _sample(sys, cs, t, x, v, real, gen): a sample handed a
        # projection's maps continues that projection's count
        phase(mp, "_sample", lambda args: new_sample() if args[6] is None else samples[-1])
        traj = integrate_first_kind(sc.system, cs, sc.initial, 0.2, cfg)
    assert len(samples) == len(traj) == 21
    return start, stages, samples


@pytest.mark.parametrize("mode", ["positional", "positional+velocity"])
@pytest.mark.parametrize("name", ["pendulum", "rotating-wire-bead"])
def test_projected_sample_reuses_the_projection_maps(name, mode):
    # an unprojected sample calls g, g_x and g_t once each, its phi = g_t +
    # g_x v taking the solve's g_x; a projected sample with k Gauss-Newton
    # corrections calls g and g_x k + 1 times and g_t once; the stages call
    # what they call unprojected
    import collections

    sc = catalog_scenario(name)
    cfg = IntegratorConfig(dt=1e-2, projection=mode)
    ks = []
    _reference_run(sc.system, sc.constraints, sc.initial, 0.2, cfg, corrections=ks)
    assert len(ks) == 20 and sum(ks) > 0
    plain = _generator_calls(sc, IntegratorConfig(dt=1e-2))
    assert all(calls == collections.Counter(g=1, g_x=1, g_t=1) for calls in plain[2])
    start, stages, samples = _generator_calls(sc, cfg)
    assert (start, stages, samples[0]) == plain[:2] + (plain[2][0],)
    for k, calls in zip(ks, samples[1:]):
        assert calls == collections.Counter(g=k + 1, g_x=k + 1, g_t=1)
    if name == "pendulum" and mode == "positional+velocity":
        # one correction per step: 42 / 102 / 22 calls of g / g_x / g_t in
        # all, against 22 / 82 / 22 unprojected, and 62 / 122 / 42 when the
        # projection and the sample each evaluated their own
        def totals(start, stages, samples):
            total = sum(samples, start + stages)
            return [total["g"], total["g_x"], total["g_t"]]

        assert ks == [1] * 20
        assert totals(*plain) == [22, 82, 22]
        assert totals(start, stages, samples) == [42, 102, 22]


def test_one_svd_per_run(pendulum, monkeypatch):
    # the kernel bases of every sample's gde residual come from one stacked SVD
    calls = [0]
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    traj = integrate_first_kind(
        pendulum.system, pendulum.constraints, pendulum.initial, 0.2, IntegratorConfig(dt=1e-2)
    )
    assert len(traj) == 21
    assert calls[0] == 1


def test_nonideal_accel_still_satisfies_constraint(pendulum):
    from constrained_dynamics import Realization

    cs = pendulum.constraints

    def blend(t, x, v):
        S = cs.phi.d_v(t, x, v).copy()
        S[0, 0] += 0.5
        return S.reshape(-1)

    real = Realization(S=blend)
    traj = integrate_first_kind(
        pendulum.system, cs, pendulum.initial, 1.0, IntegratorConfig(dt=1e-3), real=real
    )
    assert traj.max_diag("phi_norm") < 1e-6
    # the trajectory leaves the ideal one measurably
    ideal = integrate_first_kind(
        pendulum.system, cs, pendulum.initial, 1.0, IntegratorConfig(dt=1e-3)
    )
    gap = np.abs(traj.positions[-1] - ideal.positions[-1]).max()
    assert gap > 1e-3


# ---------------------------------------------------------------------------
# stage reuse: the integrators against plainly written reference loops

def _reference_run(sys, cs, init, t_end, cfg, real=None, corrections=None):
    """The first-kind loops written out plainly: every stage and every
    recorded sample evaluates the right-hand side afresh.  A projected run
    projects with :func:`oracles.project`, and appends each projection's
    number of Gauss-Newton corrections to ``corrections`` when given.

    Returns (columns, rejected steps).  The columns are those of
    :class:`Trajectory`, each computed per sample on its own: Lambda and N
    from a fresh ``reaction`` call (of the realization ``real`` when given),
    the gde residual from the public ``gde_residual``, the energy as
    1/2 v^T G v plus the potential, phi, g and |f| from their maps and
    d(phi)/dt as the sum phi_t + phi_x v + phi_v xdd of phi's Jacobians.
    """
    if real is None:
        def accel(t, x, v):
            return acceleration(sys, cs, State(t, x, v))
    else:
        def accel(t, x, v):
            res = reaction(sys, cs, State(t, x, v), real=real)
            return sys.mass.inverse @ (sys.force(t, x, v) + res.N)

    rows = []
    rejected = 0

    def norm(a):
        return float(np.abs(a).max(initial=0.0))

    def record(t, x, v):
        s = State(t, x, v)
        xdd = accel(t, x, v)
        rx = reaction(sys, cs, s, real=real)
        T = 0.5 * float(s.v @ (sys.mass.G @ s.v))
        V = None if sys.force.potential is None else float(sys.force.potential(t, s.x))
        g_norm, phi_norm, rate = None, 0.0, 0.0
        if cs is not None:
            phi_norm = norm(cs.phi(t, s.x, s.v))
            if cs.is_holonomic:
                g_norm = norm(cs.generator(t, s.x))
            phi = cs.phi
            rate = norm(phi.d_t(t, s.x, s.v) + phi.d_x(t, s.x, s.v) @ s.v
                        + phi.d_v(t, s.x, s.v) @ xdd)
        rows.append((
            t, s.x, s.v, rx.Lambda, rx.N, xdd, g_norm, phi_norm,
            gde_residual(sys, cs, s, xdd), T + (V or 0.0),
            norm(sys.force(t, s.x, s.v)), rate,
        ))

    def settle(t, x, v):
        if cfg.projection == "off":
            return x, v
        x, v, k = project(
            cs, sys.mass, t, x, v, cfg.projection_tol, cfg.projection_max_iter,
            cfg.projection == "positional+velocity",
        )
        if corrections is not None:
            corrections.append(k)
        return x, v

    t, x, v = init.t, init.x.copy(), init.v.copy()
    record(t, x, v)
    if cfg.method == "rk4-fixed":
        while t < t_end - 1e-12 * max(1.0, abs(t_end)):
            h = min(cfg.dt, t_end - t)
            k1x, k1v = v, accel(t, x, v)
            x2, v2 = x + 0.5 * h * k1x, v + 0.5 * h * k1v
            k2x, k2v = v2, accel(t + 0.5 * h, x2, v2)
            x3, v3 = x + 0.5 * h * k2x, v + 0.5 * h * k2v
            k3x, k3v = v3, accel(t + 0.5 * h, x3, v3)
            x4, v4 = x + h * k3x, v + h * k3v
            k4x, k4v = v4, accel(t + h, x4, v4)
            x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
            v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
            t = t + h
            x, v = settle(t, x, v)
            record(t, x, v)
    else:
        m = x.size
        y = np.concatenate([x, v])

        def rhs(tt, yy):
            return np.concatenate([yy[m:], accel(tt, yy[:m], yy[m:])])

        h = cfg.dt
        while t < t_end - 1e-12 * max(1.0, abs(t_end)):
            h = min(h, t_end - t)
            ks = [rhs(t, y)]
            for i in range(1, 7):
                yi = y + h * sum(c * k for c, k in zip(_DP_A[i], ks))
                ks.append(rhs(t + _DP_C[i] * h, yi))
            y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks))
            y4 = y + h * sum(b * k for b, k in zip(_DP_B4, ks))
            err = float(np.abs(y5 - y4).max()) / (cfg.tolerance * (1.0 + np.abs(y5).max()))
            if err <= 1.0:
                t = t + h
                xx, vv = settle(t, y5[:m], y5[m:])
                y = np.concatenate([xx, vv])
                record(t, y[:m], y[m:])
            else:
                rejected += 1
            h = h * min(5.0, max(0.2, 0.9 * (err + 1e-16) ** (-0.2)))
    columns = [None if c[0] is None else np.array(c) for c in zip(*rows)]
    return columns, rejected


def _assert_same_run(traj, columns):
    # every column, the recorded motion and each diagnostic, bit for bit
    for name, ref in zip(Trajectory.__dataclass_fields__, columns):
        col = getattr(traj, name)
        assert (col is None) == (ref is None), name
        assert col is None or np.array_equal(col, ref), name


@pytest.mark.parametrize(
    "name, cfg",
    [
        ("pendulum", IntegratorConfig(dt=1e-2)),
        ("knife-edge", IntegratorConfig(dt=1e-2)),
        ("rotating-wire-bead", IntegratorConfig(dt=1e-2, projection="positional+velocity")),
        ("spherical-pendulum", IntegratorConfig(method="rk45-adaptive", dt=1e-2)),
        # a scleronomic jet handed the projection's g_x
        ("pendulum", IntegratorConfig(dt=1e-2, projection="positional")),
        (
            "spherical-pendulum",
            IntegratorConfig(method="rk45-adaptive", dt=1e-2, projection="positional+velocity"),
        ),
        (
            "rotating-wire-bead",
            IntegratorConfig(method="rk45-adaptive", dt=1e-2, projection="positional"),
        ),
    ],
)
def test_stage_reuse_is_bit_identical(name, cfg):
    sc = catalog_scenario(name)
    traj = integrate_first_kind(sc.system, sc.constraints, sc.initial, 0.5, cfg)
    columns, _ = _reference_run(sc.system, sc.constraints, sc.initial, 0.5, cfg)
    _assert_same_run(traj, columns)


def test_stage_reuse_bit_identical_after_rejected_steps(pendulum):
    # a large first step under the default tolerance is rejected before the
    # controller settles; the retry starts from the stored acceleration.
    # Every sample reuses its own step's stage 7: 6 force calls per attempt
    # and 1 for the initial sample, so no sample solves afresh, and the
    # bits show that none took a rejected attempt's stage 7
    cfg = IntegratorConfig(method="rk45-adaptive", dt=0.5)
    sys, cs, init = pendulum.system, pendulum.constraints, pendulum.initial
    counted, calls = _counting_force(sys)
    traj = integrate_first_kind(counted, cs, init, 1.0, cfg)
    columns, rejected = _reference_run(sys, cs, init, 1.0, cfg)
    assert rejected >= 1
    _assert_same_run(traj, columns)
    assert calls[0] == 6 * (len(traj) - 1 + rejected) + 1


_ENTRY = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


@st.composite
def _linear_runs(draw):
    """(K, C, q0, p0, dt, t_end) of a linear system a = -K q - C p with
    m = 1-3; t_end lies part way into an RK4 step of dt."""
    m = draw(st.integers(1, 3))

    def entries(n):
        return np.array(draw(st.lists(_ENTRY, min_size=n, max_size=n)))

    K, C = entries(m * m).reshape(m, m), entries(m * m).reshape(m, m)
    dt = draw(st.floats(0.05, 0.3))
    t_end = dt * (draw(st.integers(1, 5)) + draw(st.floats(0.1, 0.9)))
    return K, C, entries(m), entries(m), dt, t_end


@pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    run=_linear_runs(),
    tolerance=st.sampled_from([1e-4, 1e-7]),
    projected=st.sampled_from(["off", "position", "velocity", "both"]),
)
def test_list_march_matches_the_array_march_bit_for_bit(method, run, tolerance, projected):
    # every stage state and every sample, -0.0 included; a projected step
    # hands back a new array for q, for p (when q already met the
    # tolerance) or for both
    K, C, q0, p0, dt, t_end = run
    cfg = IntegratorConfig(method=method, dt=dt, tolerance=tolerance)

    def trace(march):
        log = []

        def accel(t, q, p):
            log.append((float(t), q.tobytes(), p.tobytes()))
            return -K.dot(q) - C.dot(p)

        def record(t, q, p):
            if projected in ("position", "both"):
                q = q - 1e-3 * q
            if projected in ("velocity", "both"):
                p = p - 1e-3 * p
            a = -K.dot(q) - C.dot(p)
            log.append(("sample", float(t), q.tobytes(), p.tobytes(), a.tobytes()))
            return q, p, a

        march(accel, record, 0.0, q0.copy(), p0.copy(), -K.dot(q0) - C.dot(p0), t_end, cfg)
        return log

    log = trace(_march)
    assert log == trace(array_march)
    assert log[-1][1] == pytest.approx(t_end, abs=1e-12)


_SUM_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-200, -1e-200, math.inf, -math.inf, math.nan, -math.nan]),
    st.floats(-3.0, 3.0),
)


@st.composite
def _stage_sum_inputs(draw):
    """(y, h, ks): a state y and seven slopes of 2-6 entries each, any entry
    possibly a signed zero, a tiny value whose products underflow, an
    infinity or a NaN, and a step h in (0, 1]."""
    n = draw(st.integers(2, 6))

    def entries():
        return draw(st.lists(_SUM_ENTRY, min_size=n, max_size=n))

    h = draw(st.one_of(st.sampled_from([1e-200, 1e-12]), st.floats(1e-6, 1.0)))
    return entries(), h, [entries() for _ in range(7)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(problem=_stage_sum_inputs())
def test_dormand_prince_stage_sums_match_the_generic_row_sum(problem):
    # every written-out stage sum, and y4's, against the tableau row summed
    # term by term, bit for bit, signed zeros included; stage 7's sum is
    # y5's whenever k7 is finite.  Where two NaNs meet in one addition, the
    # NaN returned is not fixed by the code: CPython's generic and
    # specialized float additions return different operands.  So any NaN
    # equals any NaN here; the march tests only for finiteness.
    from constrained_dynamics import integrate

    y, h, ks = problem

    def bits(values):
        a = np.array(values, dtype=float)
        return np.where(np.isnan(a), np.nan, a).tobytes()

    sums = [integrate._dp2, integrate._dp3, integrate._dp4, integrate._dp5, integrate._dp6,
            integrate._dp7]
    for i, stage_sum in enumerate(sums, start=1):
        assert bits(stage_sum(y, h, *ks[:i])) == bits(combine(y, h, _DP_A[i], ks[:i])), i
    B4, B5 = _DP_B4.tolist(), _DP_B5.tolist()
    assert bits(integrate._dp_y4(y, h, *ks)) == bits(combine(y, h, B4, ks))
    if all(map(math.isfinite, ks[6])):
        assert bits(integrate._dp7(y, h, *ks[:6])) == bits(combine(y, h, B5, ks))


def _blend(cs):
    """phi_v with 0.5 added to its (0, 0) entry: a non-ideal realization
    that stays regular along the pendulum run."""
    from constrained_dynamics import Realization

    def blend(t, x, v):
        S = cs.phi.d_v(t, x, v).copy()
        S[0, 0] += 0.5
        return S.reshape(-1)

    return Realization(S=blend)


def test_stage_reuse_bit_identical_with_realization(pendulum):
    sys, cs = pendulum.system, pendulum.constraints
    real = _blend(cs)
    cfg = IntegratorConfig(dt=1e-2)
    traj = integrate_first_kind(sys, cs, pendulum.initial, 0.5, cfg, real=real)
    columns, _ = _reference_run(sys, cs, pendulum.initial, 0.5, cfg, real=real)
    _assert_same_run(traj, columns)


def test_stage_reuse_bit_identical_free_particle():
    # no constraints, a potential force: the gde residual is max |G xdd - f|
    # and the energy carries V
    force = ForceField(
        dim=2, value=lambda t, x, v: np.array([0.0, 0.5 * x[1] - 10.0]),
        potential=lambda t, x: 10.0 * x[1] - 0.25 * x[1] ** 2,
    )
    sys = MechanicalSystem(mass=MassMatrix(np.diag([2.0, 3.0])), force=force)
    init = State(0.0, np.zeros(2), np.array([1.0, 5.0]))
    cfg = IntegratorConfig(dt=1e-2)
    traj = integrate_first_kind(sys, None, init, 0.5, cfg)
    columns, _ = _reference_run(sys, None, init, 0.5, cfg)
    _assert_same_run(traj, columns)


@pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
def test_realization_run_records_its_reaction(pendulum, method):
    # every row's Lambda, N and xdd come from the realization that drives
    # the run: G xdd = f + N holds to round-off
    sys, cs = pendulum.system, pendulum.constraints
    cfg = IntegratorConfig(method=method, dt=1e-2)
    traj = integrate_first_kind(sys, cs, pendulum.initial, 2.0, cfg, real=_blend(cs))
    f = np.array([sys.force(t, x, v) for t, x, v in
                  zip(traj.times, traj.positions, traj.velocities)])
    assert np.abs(traj.xdd @ sys.mass.G - f - traj.N).max() <= 1e-12
    # and the recorded reaction is not the ideal one
    ideal = reaction(sys, cs, State(traj.times[-1], traj.positions[-1], traj.velocities[-1]))
    assert np.abs(traj.N[-1] - ideal.N).max() > 1e-3


def _counting_force(sys):
    import dataclasses

    calls = [0]
    inner = sys.force.value

    def value(t, x, v):
        calls[0] += 1
        return inner(t, x, v)

    force = dataclasses.replace(sys.force, value=value)
    return MechanicalSystem(mass=sys.mass, force=force), calls


@pytest.mark.parametrize("mode", ["off", "positional+velocity"])
@pytest.mark.parametrize("t_end", [np.nan, np.inf, -1.0, 0.0, 1e-13, 1e-12])
def test_first_kind_refuses_a_horizon_that_gives_no_run(pendulum, t_end, mode):
    # refused before the first sample: not one force call
    sys, calls = _counting_force(pendulum.system)
    cfg = IntegratorConfig(projection=mode)
    want = f"t_end must be finite and later than the initial t=0.0, got {t_end!r}"
    with pytest.raises(ValueError, match=re.escape(want)):
        integrate_first_kind(sys, pendulum.constraints, pendulum.initial, t_end, cfg)
    assert calls[0] == 0


def test_first_kind_runs_a_horizon_just_past_the_round_off_margin(pendulum):
    # the march stops 1e-12 max(1, |t_end|) short of t_end, so from t = 0 a
    # t_end of 2e-12 is one step of 2e-12
    traj = integrate_first_kind(
        pendulum.system, pendulum.constraints, pendulum.initial, 2e-12, IntegratorConfig()
    )
    assert traj.times.tolist() == [0.0, 2e-12]


class _Unending(Exception):
    """Raised by a march's ``record`` once it has taken more samples than the run can have."""


@pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
def test_a_step_that_does_not_advance_t_is_refused(method):
    # one ulp of t = 1e6 is 1.16e-10, so t + 1e-11 == t: without the refusal
    # the RK4 march records samples at t = 1e6 without end
    samples = []

    def record(t, q, p):
        samples.append(t)
        if len(samples) > 10:
            raise _Unending
        return q, p, -q

    cfg = IntegratorConfig(method=method, dt=1e-11)
    one = np.ones(1)
    with pytest.raises(RuntimeError, match=r"^a step of h=1e-11 does not advance t=1000000\.0$"):
        _march(lambda t, q, p: -q, record, 1e6, one, 0 * one, -one, 1e6 + 1e-3, cfg)
    assert samples == []


def test_first_kind_run_far_from_t0_refuses_a_step_below_an_ulp(pendulum):
    import dataclasses

    f, calls = pendulum.system.force, [0]

    def force(t, x, v):  # 10 steps of 4 calls need 41; without the refusal, no end
        calls[0] += 1
        if calls[0] > 1000:
            raise _Unending
        return f.value(t, x, v)

    sys = dataclasses.replace(pendulum.system, force=dataclasses.replace(f, value=force))
    s = pendulum.initial
    start = State(1e6, s.x, s.v)  # the pendulum is scleronomic: still on the manifold
    run = (sys, pendulum.constraints, start, 1e6 + 1e-3)
    assert len(integrate_first_kind(*run, IntegratorConfig(dt=1e-4))) == 11
    with pytest.raises(RuntimeError, match=r"h=1e-11 does not advance t=1000000\.0"):
        integrate_first_kind(*run, IntegratorConfig(dt=1e-11))


@pytest.mark.parametrize("realization", [False, True], ids=["ideal", "realization"])
def test_force_evaluations_per_step(pendulum, realization):
    # RK4: stages 2-4 per step plus one multiplier solve per sample, whose
    # acceleration is the next step's first stage; a realization only
    # changes the directions S of that one solve
    cs = pendulum.constraints
    real = _blend(cs) if realization else None
    sys, calls = _counting_force(pendulum.system)
    traj = integrate_first_kind(
        sys, cs, pendulum.initial, 0.2, IntegratorConfig(dt=1e-2), real=real
    )
    steps = len(traj) - 1
    assert steps == 20
    assert calls[0] == 4 * steps + 1


def test_force_evaluations_per_adaptive_attempt(pendulum):
    # stages 2-7 per attempt; stage 7 is taken at y5, whose sample reuses
    # its solve, so an unprojected run calls the force once more, for the
    # initial sample.  A projected sample moves off y5 and solves afresh.
    for projection, samples_solved in (("off", False), ("positional+velocity", True)):
        cfg = IntegratorConfig(method="rk45-adaptive", dt=0.5, projection=projection)
        sys, calls = _counting_force(pendulum.system)
        traj = integrate_first_kind(sys, pendulum.constraints, pendulum.initial, 1.0, cfg)
        _, rejected = _reference_run(
            pendulum.system, pendulum.constraints, pendulum.initial, 1.0, cfg
        )
        attempts = len(traj) - 1 + rejected
        assert rejected >= 1
        assert calls[0] == 6 * attempts + (len(traj) if samples_solved else 1), projection

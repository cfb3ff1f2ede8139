"""Every regularity site against one singular and one NaN input.

Each site applies the one rule of ``constraints.require_regular`` and must
raise its own typed error, naming the matrix and t, never a bare
``LinAlgError``; ``check_regularity`` returns a failed verdict instead.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from constrained_dynamics import (
    ChartError,
    ConfigurationMap,
    IntegratorConfig,
    MassMatrix,
    MechanicalSystem,
    Realization,
    RegularityError,
    Reparametrization,
    State,
    check_regularity,
    decompose_T,
    integrate_first_kind,
    integrate_second_kind,
    lift_holonomic,
    pullback_lagrangian,
    reaction,
    virtual_basis,
)
from constrained_dynamics.cli import main
from constrained_dynamics.generalized import _chart_invert, _metric_solve, second_kind_acceleration
from constrained_dynamics.integrate import project_to_manifold
from constrained_dynamics.reactions import _chol_solve, _probe_reparametrization
from constrained_dynamics.scenarios import circle_embedding, sphere_polar_embedding
from constrained_dynamics.smooth import EvaluationError
from constrained_dynamics.system import ForceField

NAN = float("nan")


def _circle(kind):
    """The unit-circle lift; its g_x is NaN everywhere for kind 'nan'."""
    d_x = (lambda t, x: x.reshape(1, 2)) if kind == "singular" else (
        lambda t, x: np.full((1, 2), NAN)
    )
    g = ConfigurationMap(
        dim=1,
        value=lambda t, x: np.array([0.5 * (x @ x - 1.0)]),
        d_t=lambda t, x: np.zeros(1),
        d_x=d_x,
        d_tt=lambda t, x: np.zeros(1),
        d_tx=lambda t, x: np.zeros((1, 2)),
        d_xx=lambda t, x: np.eye(2).reshape(1, 2, 2),
    )
    return lift_holonomic(g, 2)


def _circle_state(kind):
    # g_x = x vanishes at the origin; elsewhere the NaN chart is the fault
    x = np.zeros(2) if kind == "singular" else np.array([0.0, -1.0])
    return State(0.5, x, np.array([2.0, 0.0]))


def _system():
    return MechanicalSystem(mass=MassMatrix(np.eye(2)))


def _virtual_basis(kind):
    virtual_basis(_circle(kind), _circle_state(kind))


def _reaction(kind):
    reaction(_system(), _circle(kind), _circle_state(kind))


def _gram_2x2(kind):
    gram = np.ones((2, 2)) if kind == "singular" else np.full((2, 2), NAN)
    _chol_solve(gram, np.ones(2), 0.5)


def _projection(kind):
    # off the circle, so the position step must solve with the Gram matrix
    x = np.zeros(2) if kind == "singular" else np.array([0.0, -1.1])
    project_to_manifold(_circle(kind), np.eye(2), 0.5, x, np.ones(2), 1e-12, 20, True)


def _realization(kind):
    S = np.array([1.0, 0.0]) if kind == "singular" else np.full(2, NAN)
    real = Realization(S=lambda t, x, v: S)
    state = State(0.5, np.array([0.0, -1.0]), np.array([2.0, 0.0]))
    reaction(_system(), _circle("singular"), state, real=real)


def _reparametrize(kind):
    """The probe that the reparametrization check runs on each U."""
    jac_z = (lambda t, x, v, z: np.diag(3.0 * np.atleast_1d(z) ** 2)) if kind == "singular" else (
        lambda t, x, v, z: np.full((1, 1), NAN)
    )
    zero = lambda t, x, v, z: np.zeros((1, x.size))  # noqa: E731
    rep = Reparametrization(
        n=1, value=lambda t, x, v, z: np.asarray(z) ** 3, jac_z=jac_z,
        jac_t=lambda t, x, v, z: np.zeros(1), jac_x=zero, jac_v=zero,
    )
    _probe_reparametrization(_circle("singular"), rep)


def _linear_mix(kind):
    Reparametrization.linear(np.ones((2, 2)) if kind == "singular" else np.full((2, 2), NAN))


def _chart(kind):
    """The polar sphere chart without its pole guard band, and a point: at the
    pole for 'singular', anywhere with a NaN u_y for 'nan'."""
    emb = sphere_polar_embedding(1.0, pole_margin=0.0)
    if kind == "singular":
        return emb, np.array([1e-7, 0.3])
    return replace(emb, u_y=lambda t, y: np.full((3, 2), NAN)), np.array([1.0, 0.3])


def _decompose_T(kind):
    emb, y = _chart(kind)
    decompose_T(pullback_lagrangian(emb, MassMatrix(np.eye(3))), 0.5, y)


def _second_kind(kind):
    emb, y = _chart(kind)
    lag = pullback_lagrangian(emb, MassMatrix(np.eye(3)))
    second_kind_acceleration(lag, ForceField.zero(3), 0.5, y, np.array([0.1, 0.2]))


def _second_kind_r1(kind):
    # a circle of radius 0 has u_y = 0 everywhere
    emb = circle_embedding(0.0 if kind == "singular" else 1.0)
    if kind == "nan":
        emb = replace(emb, u_y=lambda t, y: np.full((2, 1), NAN))
    lag = pullback_lagrangian(emb, MassMatrix(np.eye(2)))
    second_kind_acceleration(lag, ForceField.zero(2), 0.5, np.array([0.3]), np.array([0.1]))


def _chart_inversion(kind):
    emb, y = _chart(kind)
    x = sphere_polar_embedding(1.0).value(0.5, y) + 1e-6
    _chart_invert(emb, MassMatrix(np.eye(3)), 0.5, x, y)


# site -> (call, error type, what the message says about t)
SITES = {
    "virtual_basis": (_virtual_basis, RegularityError, "t=0.5"),
    "reaction": (_reaction, RegularityError, "t=0.5"),
    "_chol_solve 2x2": (_gram_2x2, RegularityError, "t=0.5"),
    "project_to_manifold": (_projection, RegularityError, "t=0.5"),
    "reaction with realization": (_realization, RegularityError, "t=0.5"),
    "reparametrize": (_reparametrize, ValueError, "t="),
    "Reparametrization.linear": (_linear_mix, ValueError, "at every t"),
    "decompose_T": (_decompose_T, ChartError, "t=0.5"),
    "second_kind_acceleration": (_second_kind, ChartError, "t=0.5"),
    "second_kind_acceleration r=1": (_second_kind_r1, ChartError, "t=0.5"),
    "_chart_invert": (_chart_inversion, ChartError, "t=0.5"),
}


@pytest.mark.parametrize("kind", ["singular", "nan"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_site_raises_its_typed_error(site, kind):
    call, error, when = SITES[site]
    with pytest.raises(error) as err:
        call(kind)
    msg = str(err.value)
    assert when in msg
    assert ("degenerate" if kind == "singular" else "non-finite") in msg


@pytest.mark.parametrize("kind", ["singular", "nan"])
def test_check_regularity_returns_failed_verdict(kind):
    verdict = check_regularity(_circle(kind), _circle_state(kind))
    assert not verdict.passed
    assert verdict.sigma_min == 0.0 if kind == "singular" else np.isnan(verdict.sigma_min)


def test_regularity_error_carries_margin_and_time():
    with pytest.raises(RegularityError) as err:
        _reaction("singular")
    assert err.value.sigma_min == 0.0 and err.value.t == 0.5


def _nan_force_pendulum(pendulum):
    inner = pendulum.system.force.value

    def value(t, x, v):
        return np.full(2, NAN) if t >= 0.045 else inner(t, x, v)

    force = replace(pendulum.system.force, value=value)
    return replace(pendulum, system=MechanicalSystem(mass=pendulum.system.mass, force=force))


def test_nan_force_at_inner_stage_is_named_at_its_stage_time(pendulum):
    # dt = 1e-2: the step from t = 0.04 takes its second stage at t = 0.045,
    # the first NaN force, which must be named there and not blamed later on
    # the Gram matrix of a NaN stage state
    sc = _nan_force_pendulum(pendulum)
    with pytest.raises(
        EvaluationError,
        match=r"force field .* non-finite at t=0\.045 \(in RK4 stage 2 of the step from the "
        r"last accepted state t=0\.04, position \[.*\], velocity \[.*\]\)$",
    ):
        integrate_first_kind(sc.system, sc.constraints, sc.initial, 0.2, IntegratorConfig(dt=1e-2))


def _force_nan_after(sc, t_from):
    """The force of ``sc``, NaN at every t > ``t_from``."""
    inner = sc.system.force.value

    def value(t, x, v):
        return np.full(sc.dim, NAN) if t > t_from else inner(t, x, v)

    return MechanicalSystem(mass=sc.system.mass, force=replace(sc.system.force, value=value))


def _last_accepted(message):
    """(t, position, velocity) that the march's message names as the last
    accepted state."""
    tail = message.split("last accepted state t=", 1)[1]
    t, rest = tail.split(", position ", 1)
    x, v = rest.rstrip(")").split(", velocity ")
    return float(t), json.loads(x), json.loads(v)


def test_first_kind_nan_force_names_stage_and_last_accepted_state(pendulum):
    # dt = 0.01: the step from t = 0.01 takes its second stage at t = 0.015
    sys = _force_nan_after(pendulum, 0.0105)
    cfg = IntegratorConfig(dt=0.01)
    head = "force field f(t, x, v) is non-finite at t=0.015 "
    with pytest.raises(EvaluationError) as err:
        integrate_first_kind(sys, pendulum.constraints, pendulum.initial, 0.2, cfg)
    msg = str(err.value)
    assert msg.startswith(head + "(in RK4 stage 2 of the step from the last accepted state t=0.01,")
    assert isinstance(err.value.__cause__, EvaluationError)
    assert str(err.value.__cause__) == head.rstrip()
    before = integrate_first_kind(sys, pendulum.constraints, pendulum.initial, 0.01, cfg)
    assert _last_accepted(msg) == (0.01, before.positions[-1].tolist(), before.velocities[-1].tolist())


def test_second_kind_nan_force_names_stage_and_last_accepted_state(pendulum):
    sys = _force_nan_after(pendulum, 0.0105)
    cfg = IntegratorConfig(dt=0.01)
    init = pendulum.initial_generalized
    with pytest.raises(EvaluationError) as err:
        integrate_second_kind(pendulum.embedding, sys, init, 0.2, cfg)
    msg = str(err.value)
    assert msg.startswith(
        "force field f(t, x, v) is non-finite at t=0.015 "
        "(in RK4 stage 2 of the step from the last accepted state t=0.01,"
    )
    before = integrate_second_kind(pendulum.embedding, sys, init, 0.01, cfg)
    assert _last_accepted(msg) == (0.01, before.y[-1].tolist(), before.w[-1].tolist())


def test_dormand_prince_nan_force_names_its_stage(pendulum):
    # the first attempt, h = 0.01 from t = 0, takes stage 5 at t = 8/9 h
    sys = _force_nan_after(pendulum, 0.0085)
    cfg = IntegratorConfig(dt=0.01, method="rk45-adaptive")
    with pytest.raises(
        EvaluationError,
        match=r"non-finite at t=0\.00888+\d* \(in Dormand-Prince stage 5 of the step from the "
        r"last accepted state t=0\.0, ",
    ):
        integrate_first_kind(sys, pendulum.constraints, pendulum.initial, 0.2, cfg)


def test_dormand_prince_refuses_a_non_finite_attempt(rotating_wire):
    # g_tt NaN from t = 0.05 makes the acceleration NaN with a finite force;
    # the attempt from t = 0.01 with h = 0.05 reaches it at its last stages,
    # and is refused by name, not rejected until the step collapses
    g = rotating_wire.constraints.generator
    g = replace(g, d_tt=lambda t, x, d_tt=g.d_tt: np.full(1, NAN) if t >= 0.05 else d_tt(t, x))
    cs = lift_holonomic(g, 2)
    cfg = IntegratorConfig(method="rk45-adaptive", dt=0.01)
    with pytest.raises(EvaluationError) as err:
        integrate_first_kind(rotating_wire.system, cs, rotating_wire.initial, 0.2, cfg)
    msg = str(err.value)
    assert msg.startswith(
        "non-finite y5 or error estimate in the attempt at t=0.01, h=0.05 "
        "(in the error test of the step from the last accepted state t=0.01,"
    )
    before = integrate_first_kind(rotating_wire.system, cs, rotating_wire.initial, 0.01, cfg)
    assert _last_accepted(msg) == (0.01, before.positions[-1].tolist(), before.velocities[-1].tolist())


def test_nan_force_at_a_sample_names_the_sample(pendulum):
    # the initial sample and the first step's three stages take the force
    # four times; the fifth call is the sample at t = 0.01
    calls = []
    inner = pendulum.system.force.value

    def value(t, x, v):
        calls.append(t)
        return np.full(2, NAN) if len(calls) == 5 else inner(t, x, v)

    sys = MechanicalSystem(
        mass=pendulum.system.mass, force=replace(pendulum.system.force, value=value)
    )
    with pytest.raises(
        EvaluationError,
        match=r"non-finite at t=0\.01 \(in the sample of the step from the last accepted "
        r"state t=0\.0, position \[0\.0, -1\.0\], velocity \[2\.0, 0\.0\]\)$",
    ):
        integrate_first_kind(
            sys, pendulum.constraints, pendulum.initial, 0.2, IntegratorConfig(dt=0.01)
        )


def test_simulate_exits_2_on_nan_force(pendulum, monkeypatch, tmp_path, capsys):
    from constrained_dynamics import cli

    monkeypatch.setattr(cli, "_load_scenario", lambda token: _nan_force_pendulum(pendulum))
    rc = main(["simulate", "pendulum", "--t-end", "0.2", "--dt", "1e-2", "--out", str(tmp_path)])
    assert rc == 2
    assert "force field f(t, x, v) is non-finite at t=0.045" in capsys.readouterr().err


def test_stacked_svd_raises_for_its_earliest_failure():
    from constrained_dynamics.constraints import regular_svd

    good = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    singular = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    nan = np.full((2, 3), NAN)
    times = [0.1, 0.2, 0.3, 0.4]
    cases = [
        ([good, singular, nan, good], "degenerate at t=0.2 "),
        # a NaN matrix fails the stacked factorization as a whole
        ([good, good, nan, singular], "non-finite at t=0.3 "),
    ]
    for mats, msg in cases:
        with pytest.raises(RegularityError, match=msg):
            regular_svd(np.array(mats), 1e-8, "phi_v", times)
    # a regular stack gives each matrix's own factors, bit for bit
    mats = np.array([good, 3.0 * good, good + singular])
    U, s, Vt = regular_svd(mats, 1e-8, "phi_v", times[:3])
    for i, M in enumerate(mats):
        Ui, si, Vti = np.linalg.svd(M)
        assert np.array_equal(U[i], Ui) and np.array_equal(s[i], si) and np.array_equal(Vt[i], Vti)


# the 1x1 sites test their pivot as a float; each verdict must be the one the
# rule gives on the numpy scalar those sites read before
PIVOTS = [
    0.0, -0.0, -1.0, 5e-324, 1e-300, float(np.nextafter(1e-12, 0)), 1e-12,
    float(np.nextafter(1e-12, 1)), 1.0, 1e308, float("inf"), float("-inf"), NAN,
]
ONE_BY_ONE = {
    "_chol_solve": (_chol_solve, 0.0, "constraint Gram matrix", RegularityError),
    "_metric_solve": (_metric_solve, 1e-12, "chart metric M2 = u_y^T G u_y", ChartError),
}


def _verdict(call):
    """None if ``call()`` returns, else its exception's type, message and,
    for a RegularityError, repr of its sigma_min and t."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc), repr(getattr(exc, "sigma_min", None)), getattr(exc, "t", None)
    return None


@pytest.mark.parametrize("site", sorted(ONE_BY_ONE))
@pytest.mark.parametrize("pivot", PIVOTS, ids=repr)
def test_1x1_pivot_verdict_equals_the_rule(site, pivot):
    from constrained_dynamics.constraints import require_regular

    solve, tol, what, error = ONE_BY_ONE[site]
    g = np.float64(pivot)
    rhs = np.array([0.1, -7.3, 1e300, -0.0])
    expected = _verdict(lambda: require_regular(g, g, tol, what, 0.5, error))
    with np.errstate(over="ignore"):  # 1e300 / 1e-12 is inf either way
        assert _verdict(lambda: solve(np.array([[pivot]]), rhs, 0.5)) == expected
        if expected is None:
            assert solve(np.array([[pivot]]), rhs, 0.5).tobytes() == (rhs / g).tobytes()
            if site == "_chol_solve":  # the ideal multiplier solve folds its sign in
                got = _chol_solve(np.array([[pivot]]), rhs, 0.5, -1.0)
                assert got.tobytes() == (-(rhs / g)).tobytes()

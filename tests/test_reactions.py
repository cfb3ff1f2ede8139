import re

import numpy as np
import pytest

from constrained_dynamics import (
    ConstraintSet,
    MassMatrix,
    MechanicalSystem,
    Realization,
    RegularityError,
    Reparametrization,
    SmoothMap,
    State,
    invariance_report,
    lift_holonomic,
    reaction,
    virtual_basis,
    virtual_work,
)
from constrained_dynamics.reactions import _probe_reparametrization
from constrained_dynamics.smooth import EvaluationError
from oracles import reparametrized, y_diff

# the t, x and v partials of a U of one output on R^2 that depends on z alone
_Z_ONLY = dict(
    jac_t=lambda t, x, v, z: np.zeros(1),
    jac_x=lambda t, x, v, z: np.zeros((1, 2)),
    jac_v=lambda t, x, v, z: np.zeros((1, 2)),
)


def test_pendulum_tension(pendulum, pendulum_bottom):
    res = reaction(pendulum.system, pendulum.constraints, pendulum_bottom)
    assert abs(res.Lambda[0] - (-14.0)) < 1e-12
    assert np.abs(res.N - np.array([0.0, 14.0])).max() < 1e-12


def test_pendulum_constrained_acceleration(pendulum, pendulum_bottom):
    sys = pendulum.system
    res = reaction(sys, pendulum.constraints, pendulum_bottom)
    f = sys.force(pendulum_bottom.t, pendulum_bottom.x, pendulum_bottom.v)
    accel = sys.mass.inverse @ (f + res.N)
    assert np.abs(accel - np.array([0.0, 4.0])).max() < 1e-12


def test_free_particle_vx_reaction(free_particle_vx):
    # constraint v1 = 0 with force (3, 5): reaction must cancel the x-component
    sys, cs = free_particle_vx
    s = State(0.0, np.zeros(2), np.zeros(2))
    res = reaction(sys, cs, s)
    assert np.abs(res.N - np.array([-3.0, 0.0])).max() < 1e-14
    assert abs(res.Lambda[0] - (-3.0)) < 1e-14


def test_gram_matrix_pendulum(pendulum, pendulum_bottom):
    gram = reaction(pendulum.system, pendulum.constraints, pendulum_bottom).gram
    # phi_v = (0, -1), G = I: the Gram matrix is the 1x1 identity
    assert gram.shape == (1, 1)
    assert abs(gram[0, 0] - 1.0) < 1e-14


def test_gram_matrix_scales_with_inverse_mass(circle_lift, pendulum_bottom):
    sys = MechanicalSystem(mass=MassMatrix(4.0 * np.eye(2)))
    gram = reaction(sys, circle_lift, pendulum_bottom).gram
    assert abs(gram[0, 0] - 0.25) < 1e-14


def test_constraint_set_rejects_no_constraints():
    # an unconstrained system is written as None, never as an empty set
    phi = SmoothMap(
        dim=0,
        value=lambda t, x, v: np.zeros(0),
        jac_t=lambda t, x, v: np.zeros(0),
        jac_x=lambda t, x, v: np.zeros((0, 2)),
        jac_v=lambda t, x, v: np.zeros((0, 2)),
    )
    with pytest.raises(ValueError, match="n=0"):
        ConstraintSet.general(2, phi)


def test_no_constraint_set_zero_reaction():
    sys = MechanicalSystem(mass=MassMatrix(np.eye(2)))
    s = State(0.0, np.zeros(2), np.ones(2))
    res = reaction(sys, None, s)
    assert res.Lambda.size == 0 and res.gram.shape == (0, 0)
    assert np.array_equal(res.N, np.zeros(2))


def test_multipliers_singular_state_raises(pendulum):
    s = State(0.0, np.zeros(2), np.zeros(2))
    with pytest.raises(RegularityError):
        reaction(pendulum.system, pendulum.constraints, s).Lambda


def test_nan_gram_matrix_raises(pendulum):
    # NaN fails `gram > 0`, so a NaN phi_v is refused rather than solved: a
    # NaN g_x re-lifted, and a NaN phi_v of a general set
    import dataclasses

    cs = pendulum.constraints
    nan_g_x = dataclasses.replace(cs.generator, d_x=lambda t, x: np.full((1, 2), np.nan))
    nan_jac_v = dataclasses.replace(cs.phi, jac_v=lambda t, x, v: np.full((1, 2), np.nan))
    for bad in (lift_holonomic(nan_g_x, 2), ConstraintSet.general(2, nan_jac_v)):
        with pytest.raises(RegularityError, match="t=0.0"):
            reaction(pendulum.system, bad, pendulum.initial)


def test_nan_gram_matrix_raises_for_two_constraints():
    # numpy's cholesky returns a NaN factor for a NaN matrix without raising
    from constrained_dynamics.reactions import _chol_solve

    with pytest.raises(RegularityError, match="t=0.25"):
        _chol_solve(np.full((2, 2), np.nan), np.ones(2), 0.25)


def test_reaction_newton_third_law_scaling(pendulum, pendulum_bottom):
    # doubling the speed quadruples the centripetal term, tension 4 + 10
    s = State(0.0, pendulum_bottom.x, 2.0 * pendulum_bottom.v)
    res = reaction(pendulum.system, pendulum.constraints, s)
    assert abs(res.N[1] - 26.0) < 1e-12


def test_virtual_work_zero_for_ideal(all_scenarios):
    rng = np.random.default_rng(11)
    for sc in all_scenarios:
        for s in map(State, *sc.sample_states(rng, 100)):
            res = reaction(sc.system, sc.constraints, s)
            basis = virtual_basis(sc.constraints, s)
            scale = 1.0 + float(np.abs(res.N).max(initial=0.0))
            assert virtual_work(res, basis) <= 1e-12 * scale


def test_virtual_work_state_mismatch_rejected(pendulum, pendulum_bottom):
    res = reaction(pendulum.system, pendulum.constraints, pendulum_bottom)
    other = State(0.5, pendulum_bottom.x, pendulum_bottom.v)
    basis = virtual_basis(pendulum.constraints, other)
    with pytest.raises(ValueError):
        virtual_work(res, basis)


def _tangent_blend_realization(cs, weight=0.5):
    """S = phi_v + weight * e1, nonsingular on the whole circle."""

    def value(t, x, v):
        S = cs.phi.d_v(t, x, v).copy()
        S[0, 0] += weight
        return S.reshape(-1)

    return Realization(S=value)


def test_realization_ideal_directions_recover_ideal(pendulum, pendulum_bottom):
    cs = pendulum.constraints
    real = Realization(S=lambda t, x, v: cs.phi.d_v(t, x, v))
    ideal = reaction(pendulum.system, cs, pendulum_bottom)
    alt = reaction(pendulum.system, cs, pendulum_bottom, real=real)
    assert np.abs(alt.N - ideal.N).max() < 1e-12
    assert np.abs(alt.Lambda - ideal.Lambda).max() < 1e-12


def test_realization_singular_pairing_raises(pendulum, pendulum_bottom):
    # S = (1, 0) at x = (0, -1): phi_v G^-1 S^T = 0 exactly
    real = Realization(S=lambda t, x, v: np.array([1.0, 0.0]))
    with pytest.raises(RegularityError):
        reaction(pendulum.system, pendulum.constraints, pendulum_bottom, real=real)


def test_realization_blend_enforces_constraint_direction(pendulum, pendulum_bottom):
    # a non-ideal S still yields an acceleration consistent with the
    # differentiated constraint, though the reaction itself differs
    sys, cs = pendulum.system, pendulum.constraints
    real = _tangent_blend_realization(cs)
    res = reaction(sys, cs, pendulum_bottom, real=real)
    t, x, v = pendulum_bottom.t, pendulum_bottom.x, pendulum_bottom.v
    a = sys.mass.inverse @ (sys.force(t, x, v) + res.N)
    resid = cs.phi.d_t(t, x, v) + cs.phi.d_x(t, x, v) @ v + cs.phi.d_v(t, x, v) @ a
    assert np.abs(resid).max() < 1e-12
    ideal = reaction(sys, cs, pendulum_bottom)
    assert np.abs(res.N - ideal.N).max() > 1e-3


def test_realization_blend_does_virtual_work(pendulum, pendulum_bottom):
    cs = pendulum.constraints
    real = _tangent_blend_realization(cs)
    res = reaction(pendulum.system, cs, pendulum_bottom, real=real)
    basis = virtual_basis(cs, pendulum_bottom)
    assert virtual_work(res, basis) > 1e-3


def test_reparametrize_rejects_nonvanishing():
    cs = ConstraintSet.affine(
        dim=2,
        a=lambda t, x: np.zeros(1),
        A=lambda t, x: np.array([[1.0, 0.0]]),
        jac_t=lambda t, x, v: np.zeros(1),
        jac_x=lambda t, x, v: np.zeros((1, 2)),
        n=1,
    )
    bad = Reparametrization(
        n=1,
        value=lambda t, x, v, z: z + 1.0,
        jac_z=lambda t, x, v, z: np.eye(1),
        **_Z_ONLY,
    )
    with pytest.raises(ValueError, match="vanish"):
        _probe_reparametrization(cs, bad)


def test_reparametrize_rejects_degenerate_jacobian(circle_lift):
    bad = Reparametrization(
        n=1,
        value=lambda t, x, v, z: z**3,
        jac_z=lambda t, x, v, z: np.diag(3.0 * np.atleast_1d(z) ** 2),
        **_Z_ONLY,
    )
    with pytest.raises(ValueError, match="invertible"):
        _probe_reparametrization(circle_lift, bad)


def test_reparametrized_jacobians_chain_rule(circle_lift):
    rep = Reparametrization.componentwise(1, np.expm1, np.exp)
    psi = reparametrized(circle_lift, rep).phi
    rng = np.random.default_rng(12)
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi)
        s = State(
            float(rng.uniform(0, 1)),
            np.array([np.sin(theta), -np.cos(theta)]) * rng.uniform(0.5, 1.5),
            rng.uniform(-2, 2, 2),
        )
        Jx = psi.d_x(s.t, s.x, s.v)
        Jv = psi.d_v(s.t, s.x, s.v)
        assert np.abs(Jx - y_diff(lambda x: psi(s.t, x, s.v), s.x)).max() < 1e-6
        assert np.abs(Jv - y_diff(lambda v: psi(s.t, s.x, v), s.v)).max() < 1e-6


def test_invariance_scaling_by_two(pendulum, pendulum_bottom):
    rep = Reparametrization.linear(np.array([[2.0]]))
    s = pendulum_bottom
    worst = invariance_report(pendulum.system, pendulum.constraints, [rep], [s.t], [s.x], [s.v])
    assert worst < 1e-12


def test_invariance_nonlinear_on_manifold(all_scenarios):
    rng = np.random.default_rng(13)
    rep = Reparametrization.componentwise(
        lambda_n := 1, np.expm1, np.exp
    )
    for sc in all_scenarios:
        if sc.constraints.n != lambda_n:
            rep_n = Reparametrization.componentwise(sc.constraints.n, np.expm1, np.exp)
        else:
            rep_n = rep
        worst = invariance_report(sc.system, sc.constraints, [rep_n], *sc.sample_states(rng, 30))
        assert worst < 1e-9


def test_invariance_rejects_off_manifold(pendulum):
    rep = Reparametrization.identity(1)
    off = State(0.0, np.array([0.0, -1.0]), np.array([2.0, 0.5]))
    with pytest.raises(ValueError, match="off-manifold"):
        invariance_report(pendulum.system, pendulum.constraints, [rep], [off.t], [off.x], [off.v])


def test_reactions_differ_off_manifold(pendulum):
    # representation dependence away from phi = 0 is expected, not a bug;
    # U must depend on the state explicitly for the extra terms to survive
    rep = Reparametrization(
        n=1,
        value=lambda t, x, v, z: (1.0 + x[0] ** 2) * np.asarray(z, float),
        jac_z=lambda t, x, v, z: np.array([[1.0 + x[0] ** 2]]),
        jac_t=lambda t, x, v, z: np.zeros(1),
        jac_x=lambda t, x, v, z: np.array([[2.0 * x[0] * z[0], 0.0]]),
        jac_v=lambda t, x, v, z: np.zeros((1, 2)),
    )
    psi_set = reparametrized(pendulum.constraints, rep)
    off = State(0.0, np.array([0.5, -1.0]), np.array([2.0, 0.5]))
    N_phi = reaction(pendulum.system, pendulum.constraints, off).N
    N_psi = reaction(pendulum.system, psi_set, off).N
    assert np.abs(N_phi - N_psi).max() > 1e-6


def test_linear_mix_requires_invertible():
    with pytest.raises(ValueError):
        Reparametrization.linear(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_linear_mix_requires_square():
    # its one singular value, sqrt(3), would pass the regularity rule
    with pytest.raises(ValueError, match=r"must be square, got shape \(1, 3\)"):
        Reparametrization.linear(np.ones((1, 3)))


# ---------------------------------------------------------------------------
# invariance_report forms psi's jet from phi's by the chain rule; it must
# keep the probes of U, the psi solve's regularity test and the on-manifold
# test, and give the bits of the reactions of the oracle's psi sets


def _families(n):
    from constrained_dynamics.checks import reparametrization_families

    return [rep for _, rep in reparametrization_families(n, np.random.default_rng(17))]


def test_invariance_report_equals_the_reactions_of_reparametrized_sets(all_scenarios):
    rng = np.random.default_rng(19)
    for sc in all_scenarios:
        cs = sc.constraints
        reps = _families(cs.n)
        psi_sets = [reparametrized(cs, rep) for rep in reps]
        t, X, V = sc.sample_states(rng, 20)
        worst = 0.0
        for s in map(State, t, X, V):
            N_phi = reaction(sc.system, cs, s).N
            for psi_set in psi_sets:
                N_psi = reaction(sc.system, psi_set, s).N
                worst = max(worst, float(np.abs(N_phi - N_psi).max(initial=0.0)))
        assert invariance_report(sc.system, cs, reps, t, X, V) == worst


def test_invariance_report_runs_the_reparametrize_probes(pendulum, pendulum_bottom):
    bad = Reparametrization(
        n=1, value=lambda t, x, v, z: z + 1.0, jac_z=lambda t, x, v, z: np.eye(1), **_Z_ONLY
    )
    s = pendulum_bottom
    with pytest.raises(ValueError, match=r"U\(t, x, v, 0\) must vanish"):
        invariance_report(pendulum.system, pendulum.constraints, [bad], [s.t], [s.x], [s.v])


def test_invariance_report_refuses_a_degenerate_psi_gram_matrix(pendulum, pendulum_bottom):
    # U = (t - 2) z passes the probes, where t lies in [-1, 1], and has
    # U_z = 0 at t = 2: psi_v = 0 there, and so is psi's Gram matrix
    rep = Reparametrization(
        n=1,
        value=lambda t, x, v, z: (t - 2.0) * np.asarray(z, float),
        jac_z=lambda t, x, v, z: np.array([[t - 2.0]]),
        jac_t=lambda t, x, v, z: np.asarray(z, float),
        jac_x=lambda t, x, v, z: np.zeros((1, 2)),
        jac_v=lambda t, x, v, z: np.zeros((1, 2)),
    )
    s = pendulum_bottom
    args = (pendulum.system, pendulum.constraints, [rep])
    assert invariance_report(*args, [1.0], [s.x], [s.v]) < 1e-12
    with pytest.raises(RegularityError, match=r"constraint Gram matrix is degenerate at t=2\.0 ") as err:
        invariance_report(*args, [1.0, 2.0], [s.x, s.x], [s.v, s.v])
    assert err.value.t == 2.0


# invariance_report evaluates every state's maps before it solves; it must
# fail as a per-state loop does, which solves phi and then each family at a
# state before it moves on


def _degenerate_at(t0, fail_x_at=None):
    """U = (t - t0) z, which passes the probes (t in [-1, 1]) and whose psi
    Gram matrix is zero at t = t0; its U_x raises EvaluationError at
    t = ``fail_x_at``."""
    def jac_x(t, x, v, z):
        if t == fail_x_at:
            raise EvaluationError(f"U_x failed at t={t}")
        return np.zeros((1, 2))

    return Reparametrization(
        n=1,
        value=lambda t, x, v, z: (t - t0) * np.asarray(z, float),
        jac_z=lambda t, x, v, z: np.array([[t - t0]]),
        jac_t=lambda t, x, v, z: np.asarray(z, float),
        jac_x=jac_x,
        jac_v=lambda t, x, v, z: np.zeros((1, 2)),
    )


def _nan_force_at(sys, t0):
    from constrained_dynamics import ForceField

    f = sys.force
    value = lambda t, x, v: np.full(2, np.nan) if t == t0 else f.value(t, x, v)  # noqa: E731
    return MechanicalSystem(mass=sys.mass, force=ForceField(2, value, f.potential))


_GRAM = (RegularityError, r"^constraint Gram matrix is degenerate at t={} ")
_FORCE = (EvaluationError, r"^force field f\(t, x, v\) is non-finite at t={}$")
_OFF = (ValueError, r"^state at t={} is off-manifold")
_U_X = (EvaluationError, r"^U_x failed at t={}$")


@pytest.mark.parametrize("reps, force_nan_at, off_at, fails, at", [
    # a degenerate psi Gram matrix at state 0 comes before a map fault at state 1
    ([_degenerate_at(2.0)], 3.0, None, _GRAM, 2.0),
    ([_degenerate_at(2.0)], None, 3.0, _GRAM, 2.0),
    # and a map fault at state 0 before a degenerate Gram matrix at state 1
    ([_degenerate_at(3.0)], 2.0, None, _FORCE, 2.0),
    ([_degenerate_at(3.0)], None, 2.0, _OFF, 2.0),
    # at one state the families solve in order: family 0's degenerate Gram
    # matrix before family 1's U_x fault, and family 0's U_x fault before
    # family 1's Gram matrix
    ([_degenerate_at(3.0), _degenerate_at(9.0, fail_x_at=3.0)], None, None, _GRAM, 3.0),
    ([_degenerate_at(9.0, fail_x_at=3.0), _degenerate_at(3.0)], None, None, _U_X, 3.0),
    # the earliest state first, whatever the family
    ([_degenerate_at(3.0), _degenerate_at(2.0)], None, None, _GRAM, 2.0),
])
def test_invariance_report_fails_as_a_per_state_loop(
    pendulum, pendulum_bottom, reps, force_nan_at, off_at, fails, at
):
    error, message = fails
    s = pendulum_bottom
    sys = pendulum.system if force_nan_at is None else _nan_force_at(pendulum.system, force_nan_at)
    t = [2.0, 3.0]
    # v = (2, 0.5) at x = (0, -1): phi = 2 x.v = -1
    V = [np.array([2.0, 0.5]) if ti == off_at else s.v for ti in t]
    with pytest.raises(Exception, match=message.format(re.escape(str(at)))) as err:
        invariance_report(sys, pendulum.constraints, reps, t, [s.x, s.x], V)
    assert err.type is error
    if error is RegularityError:
        assert err.value.t == at


def test_invariance_report_refuses_a_nan_phi(pendulum, pendulum_bottom):
    import dataclasses

    cs, s = pendulum.constraints, pendulum_bottom
    nan = dataclasses.replace(cs.phi, value=lambda t, x, v: np.full(1, np.nan))
    with pytest.raises(ValueError, match=r"^state at t=0\.0 is off-manifold \(\|\|phi\|\|=nan "):
        invariance_report(
            pendulum.system, dataclasses.replace(cs, phi=nan), _families(1), [s.t], [s.x], [s.v]
        )


def test_invariance_report_off_manifold_message(pendulum):
    off = State(0.25, np.array([0.0, -1.0]), np.array([2.0, 0.5]))
    with pytest.raises(
        ValueError, match=r"^state at t=0\.25 is off-manifold \(\|\|phi\|\|=5\.000e-01 > 1e-10\)$"
    ):
        invariance_report(
            pendulum.system, pendulum.constraints, _families(1), [off.t], [off.x], [off.v]
        )


def _counting(fn, counts, key):
    def wrapped(*args):
        counts[key] = counts.get(key, 0) + 1
        return fn(*args)

    return wrapped


def test_invariance_report_evaluates_each_map_once_per_state(pendulum):
    import dataclasses

    counts = {}
    cs = pendulum.constraints
    phi = dataclasses.replace(
        cs.phi, **{k: _counting(getattr(cs.phi, k), counts, k)
                   for k in ("value", "jac_t", "jac_x", "jac_v")}
    )
    cs = dataclasses.replace(cs, phi=phi)
    force = pendulum.system.force
    sys = MechanicalSystem(
        mass=pendulum.system.mass,
        force=dataclasses.replace(force, value=_counting(force.value, counts, "force")),
    )
    reps = [
        dataclasses.replace(rep, jac_z=_counting(rep.jac_z, counts, "U_z"))
        for rep in _families(cs.n)
    ]
    t, X, V = pendulum.sample_states(np.random.default_rng(5), 30)
    per_run = []
    for k in (10, 30):  # the difference leaves out the probes of U
        counts.clear()
        invariance_report(sys, cs, reps, t[:k], X[:k], V[:k])
        per_run.append(dict(counts))
    per_state = {key: (per_run[1][key] - per_run[0].get(key, 0)) / 20 for key in per_run[1]}
    assert per_state == {
        "value": 1, "jac_t": 1, "jac_x": 1, "jac_v": 1, "force": 1, "U_z": len(reps),
    }


def test_reparametrize_rejects_a_nan_value_at_zero(circle_lift):
    # NaN <= 1e-10 is false, so a NaN U(t, x, v, 0) is refused as a nonzero one is
    bad = Reparametrization(
        n=1,
        value=lambda t, x, v, z: z + np.nan,
        jac_z=lambda t, x, v, z: np.eye(1),
        **_Z_ONLY,
    )
    with pytest.raises(ValueError, match=r"U\(t, x, v, 0\) must vanish"):
        _probe_reparametrization(circle_lift, bad)


def test_reparametrize_rejects_a_wrong_output_count(circle_lift):
    message = "reparametrization output count must equal constraint count"
    with pytest.raises(ValueError, match=message):
        _probe_reparametrization(circle_lift, Reparametrization.identity(2))

"""Acceptance gate: one test per advertised guarantee, each printing a
single pass/fail line.  Tolerances here are the contract; loosening them
needs a very good reason."""

import numpy as np
import pytest

from constrained_dynamics import (
    GeneralizedState,
    IntegratorConfig,
    MassMatrix,
    Realization,
    State,
    catalog_scenario,
    covariance_residual,
    decompose_T,
    gde_residual,
    integrate_first_kind,
    integrate_second_kind,
    match_trajectories,
    pullback_lagrangian,
    reaction,
    virtual_basis,
    virtual_work,
)
from constrained_dynamics.checks import reparametrization_families
from constrained_dynamics.reactions import invariance_report
from constrained_dynamics.system import check_spd
from oracles import lagrangian_derivative_from_pieces, random_polynomial_chart


def _verdict(label: str, ok: bool):
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {label} failed"


@pytest.fixture(scope="module")
def long_runs(all_scenarios):
    """The shared 10 s catalog runs (rk4, dt=1e-3, projection off)."""
    cfg = IntegratorConfig(method="rk4-fixed", dt=1e-3)
    return {
        sc.name: integrate_first_kind(sc.system, sc.constraints, sc.initial, 10.0, cfg)
        for sc in all_scenarios
    }


def test_01_reaction_closed_form(pendulum, pendulum_bottom):
    res = reaction(pendulum.system, pendulum.constraints, pendulum_bottom)
    # analytic tension m (v^2 / l + g0) = 14 pointing to the pivot
    ok = (
        abs(res.Lambda[0] - (-14.0)) <= 1e-10
        and np.abs(res.N - np.array([0.0, 14.0])).max() <= 1e-10
    )
    _verdict("01 reaction-closed-form", ok)


def test_02_first_integral(pendulum, long_runs):
    traj = long_runs["pendulum"]
    drift = max(traj.max_diag("g_norm"), traj.max_diag("phi_norm"))
    ratios = []
    prev = None
    for dt in (2e-3, 1e-3):
        t = integrate_first_kind(
            pendulum.system, pendulum.constraints, pendulum.initial, 2.0,
            IntegratorConfig(dt=dt),
        )
        cur = max(t.max_diag("phi_norm"), 1e-300)
        if prev is not None:
            ratios.append(prev / cur)
        prev = cur
    ok = drift <= 1e-6 and min(ratios) >= 8.0
    _verdict("02 first-integral", ok)


def test_03_zero_virtual_work(all_scenarios):
    rng = np.random.default_rng(101)
    worst = 0.0
    for sc in all_scenarios:
        for s in map(State, *sc.sample_states(rng, 1000)):
            res = reaction(sc.system, sc.constraints, s)
            w = virtual_work(res, virtual_basis(sc.constraints, s))
            worst = max(worst, w / (1.0 + float(np.abs(res.N).max(initial=0.0))))
    _verdict("03 zero-virtual-work", worst <= 1e-10)


def test_04_general_equation_of_dynamics(all_scenarios, long_runs):
    worst = 0.0
    for sc in all_scenarios:
        run = long_runs[sc.name]
        for t, x, v, gde in zip(run.times, run.positions, run.velocities, run.gde_residual):
            fscale = 1.0 + float(np.abs(sc.system.force(t, x, v)).max(initial=0.0))
            worst = max(worst, gde / fscale)
    # negative control: a wrong acceleration must break the bound
    sc = next(s for s in all_scenarios if s.name == "pendulum")
    s = State(0.0, np.array([0.0, -1.0]), np.array([2.0, 0.0]))
    xi = virtual_basis(sc.constraints, s).Xi[:, 0]
    bad = np.array([0.0, 4.0]) + 0.1 * xi
    control = gde_residual(sc.system, sc.constraints, s, bad)
    ok = worst <= 1e-8 and control > 1e-8 * 11.0
    _verdict("04 general-equation-of-dynamics", ok)


def test_05_reparametrization_invariance(all_scenarios):
    rng = np.random.default_rng(103)
    worst = 0.0
    for sc in all_scenarios:
        t, X, V = sc.sample_states(rng, 100)
        reps = [rep for _, rep in reparametrization_families(sc.constraints.n, rng)]
        worst = max(worst, invariance_report(sc.system, sc.constraints, reps, t, X, V))
    _verdict("05 reparametrization-invariance", worst <= 1e-8)


def test_06_covariance():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        r = int(rng.integers(1, m))
        emb = random_polynomial_chart(rng, m, r)
        mass = MassMatrix(np.diag(rng.uniform(0.5, 3.0, m)))
        t = float(rng.uniform(-0.5, 0.5))
        y = rng.uniform(-0.3, 0.3, r)
        w = rng.uniform(-1, 1, r)
        a = rng.uniform(-1, 1, r)
        worst = max(worst, covariance_residual(emb, mass, None, t, y, w, a))
    # [dW/dt] = 0: random quadratic-in-y W fed through the generic kernel
    total_worst = 0.0
    for _ in range(20):
        r = 3
        H = rng.uniform(-1, 1, (r, r))
        H = 0.5 * (H + H.T)
        g1 = rng.uniform(-1, 1, r)
        t = float(rng.uniform(-1, 1))
        y = rng.uniform(-1, 1, r)
        w = rng.uniform(-1, 1, r)
        a = rng.uniform(-1, 1, r)
        # W = c t + g1 . y + t y^T H y / 2 gives b = g1 + t H y, T0 = y^T H y / 2
        row = lagrangian_derivative_from_pieces(
            np.zeros((r, r)), np.zeros((r, r)), np.zeros((r, r, r)),
            H @ y, t * H, H @ y, w, a,
        )
        total_worst = max(total_worst, float(np.abs(row).max()))
    ok = worst <= 1e-7 and total_worst <= 1e-9
    _verdict("06 covariance", ok)


def test_07_kinetic_decomposition(all_scenarios):
    rng = np.random.default_rng(105)
    ok = True
    for sc in all_scenarios:
        if sc.embedding is None:
            continue
        emb = sc.embedding
        lag = pullback_lagrangian(emb, sc.system.mass)
        for _ in range(100):
            t = float(rng.uniform(0, 3))
            y = rng.uniform(sc.sample_y_lo, sc.sample_y_hi)
            M2, b, T0 = decompose_T(lag, t, y)
            # independent reconstruction straight from the chart derivatives
            Uy = emb.d_y(t, y)
            Ut = emb.d_t(t, y)
            G = sc.system.mass.G
            ok &= np.abs(M2 - Uy.T @ G @ Uy).max() <= 1e-12
            ok &= np.abs(b - Ut @ G @ Uy).max() <= 1e-12
            ok &= abs(T0 - 0.5 * float(Ut @ G @ Ut)) <= 1e-12
            ok &= bool(check_spd(M2, tol=1e-10))
            # exact split: L(t,y,w) agrees with the three pieces
            w = rng.uniform(-2, 2, emb.r)
            ok &= abs(lag.value(t, y, w) - (0.5 * w @ M2 @ w + b @ w + T0)) <= 1e-12
    # degenerate chart point must be reported, not silently used
    from constrained_dynamics import ChartError
    from constrained_dynamics.scenarios import sphere_polar_embedding

    emb0 = sphere_polar_embedding(1.0, pole_margin=0.0)
    lag0 = pullback_lagrangian(emb0, MassMatrix(np.eye(3)))
    try:
        decompose_T(lag0, 0.0, np.array([0.0, 0.7]))
        ok = False
    except ChartError:
        pass
    _verdict("07 kinetic-decomposition", ok)


def test_08_first_second_kind_equivalence(all_scenarios, long_runs):
    cfg = IntegratorConfig(method="rk4-fixed", dt=1e-3)
    worst = 0.0
    for sc in all_scenarios:
        if sc.embedding is None:
            continue
        traj_y = integrate_second_kind(
            sc.embedding, sc.system, sc.initial_generalized, 10.0, cfg
        )
        rep = match_trajectories(long_runs[sc.name], sc.embedding, traj_y, sc.system.mass)
        worst = max(worst, rep.sup_position, rep.sup_velocity)
        if sc.name == "rotating-wire-bead":
            # closed form: radial position cosh(t) for omega = 1, y(0)=1, w(0)=0
            early = traj_y.times <= 3.0
            cosh_err = np.abs(traj_y.y[early, 0] - np.cosh(traj_y.times[early])).max()
    ok = worst <= 1e-5 and cosh_err <= 1e-5
    _verdict("08 first-second-kind-equivalence", ok)


def test_09_energy_behavior(all_scenarios, long_runs):
    ok = True
    for sc in all_scenarios:
        traj = long_runs[sc.name]
        energies = traj.energy
        e0 = energies[0]
        if sc.name == "rotating-wire-bead":
            times = traj.times
            idx = int(np.argmin(np.abs(times - 3.0)))
            ok &= abs(energies[idx] - e0) > 0.1
            ok &= traj.max_diag("g_norm") <= 1e-6
        elif sc.name == "knife-edge":
            # scleronomic with zero active force: kinetic energy constant
            ok &= float(np.abs(energies - e0).max()) / (1.0 + abs(e0)) <= 1e-6
        else:
            ok &= float(np.abs(energies - e0).max()) / (1.0 + abs(e0)) <= 1e-6
    _verdict("09 energy-behavior", ok)


def test_10_realizations(pendulum):
    sys, cs = pendulum.system, pendulum.constraints
    rng = np.random.default_rng(106)
    ideal_gap = 0.0
    exact = Realization(S=lambda t, x, v: cs.phi.d_v(t, x, v))
    for s in map(State, *pendulum.sample_states(rng, 50)):
        a = reaction(sys, cs, s)
        b = reaction(sys, cs, s, real=exact)
        ideal_gap = max(ideal_gap, float(np.abs(a.N - b.N).max()))

    def blend(t, x, v):
        S = cs.phi.d_v(t, x, v).copy()
        S[0, 0] += 0.5
        return S.reshape(-1)

    real = Realization(S=blend)
    traj = integrate_first_kind(
        sys, cs, pendulum.initial, 1.0, IntegratorConfig(dt=1e-3), real=real
    )
    max_work = 0.0
    for t, x, v in zip(traj.times, traj.positions, traj.velocities):
        s = State(t, x, v)
        res = reaction(sys, cs, s, real=real)
        max_work = max(max_work, virtual_work(res, virtual_basis(cs, s)))
    ok = (
        ideal_gap <= 1e-12
        and traj.max_diag("phi_norm") <= 1e-6
        and max_work > 1e-3
    )
    _verdict("10 realizations", ok)

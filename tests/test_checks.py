import re

import numpy as np
import pytest

from constrained_dynamics import RegularityError, integrate_first_kind
from constrained_dynamics.checks import (
    DEFAULT_THRESHOLDS,
    Report,
    ReportEntry,
    check_equivalence,
    check_scenario,
    reparametrization_families,
)
from constrained_dynamics.scenarios import parse_scenario
from constrained_dynamics.smooth import EvaluationError


def test_report_text_layout():
    rep = Report(scenario="demo", stamp={"dt": 0.001})
    rep.entries.append(ReportEntry("alpha", 1e-12, 1e-8, True))
    rep.entries.append(ReportEntry("beta", 2.0, 1.0, False))
    rep.entries.append(ReportEntry("gamma", None, None, True, note="skipped: n/a"))
    text = rep.to_text()
    assert "[PASS] alpha" in text
    assert "[FAIL] beta" in text
    assert "[SKIP] gamma: skipped: n/a" in text
    assert text.rstrip().endswith("overall: FAIL")
    assert not rep.passed


def test_skips_do_not_fail_report():
    rep = Report(scenario="demo")
    rep.entries.append(ReportEntry("only", None, None, False, note="skipped: nothing"))
    assert rep.passed


def test_report_dict_round_trips_to_json():
    import json

    rep = Report(scenario="demo")
    rep.entries.append(ReportEntry("alpha", 1e-12, 1e-8, True))
    d = json.loads(json.dumps(rep.to_dict()))
    assert d["scenario"] == "demo"
    assert d["entries"][0]["passed"] is True


def test_families_cover_the_contract():
    rng = np.random.default_rng(0)
    fams = reparametrization_families(2, rng)
    names = [n for n, _ in fams]
    assert names == ["identity", "exp-minus-one", "cubic", "linear-mix"]
    # every family fixes the origin
    for _, rep in fams:
        z0 = np.zeros(2)
        assert np.abs(rep(0.0, np.zeros(2), np.zeros(2), z0)).max() < 1e-14


def test_check_scenario_short_run_passes(pendulum):
    report = check_scenario(pendulum, t_end=1.0)
    assert report.passed
    names = [e.name for e in report.entries]
    for expected in (
        "first-integral",
        "virtual-work",
        "gde-residual",
        "reparametrization",
        "covariance",
        "energy",
    ):
        assert expected in names


def test_threshold_override_can_force_failure(pendulum):
    report = check_scenario(pendulum, t_end=0.5, thresholds={"virtual-work": 1e-30})
    vw = next(e for e in report.entries if e.name == "virtual-work")
    assert not vw.passed
    assert not report.passed


def test_knife_edge_skips_chart_checks(knife_edge):
    report = check_scenario(knife_edge, t_end=1.0)
    cov = next(e for e in report.entries if e.name == "covariance")
    assert cov.skipped and "nonholonomic" in cov.note
    assert report.passed


def test_unconstrained_system_skips_as_unconstrained(free_particle_file):
    sc = parse_scenario(free_particle_file)
    report = check_scenario(sc, t_end=0.5)
    entries = report.entries + check_equivalence(sc, DEFAULT_THRESHOLDS, t_end=0.5)
    skipped = {e.name: e.note for e in entries if e.skipped}
    for name in ("first-integral", "virtual-work", "reparametrization", "covariance",
                 "equivalence"):
        assert skipped[name] == "skipped: unconstrained system"
    assert report.passed


def test_rheonomic_energy_flagged_as_nonconserving(rotating_wire):
    report = check_scenario(rotating_wire, t_end=4.0)
    names = [e.name for e in report.entries]
    assert "energy-nonconservation" in names
    e = next(x for x in report.entries if x.name == "energy-nonconservation")
    assert e.comparison == ">" and e.passed


def test_default_thresholds_are_complete():
    assert set(DEFAULT_THRESHOLDS) == {
        "first-integral",
        "first-integral-rate",
        "virtual-work",
        "gde-residual",
        "reparametrization",
        "covariance",
        "energy",
        "energy-nonconservation",
        "equivalence",
    }


# ---------------------------------------------------------------------------
# trajectory checks read the values the run stored, and agree with the
# formulas written out at every sample


def _counted(fn, calls):
    def wrapped(*args):
        calls[0] += 1
        return fn(*args)

    return wrapped


def test_gde_check_makes_no_force_calls(pendulum):
    import dataclasses

    from constrained_dynamics import MechanicalSystem, integrate_first_kind
    from constrained_dynamics.checks import check_gde

    calls = [0]
    force = dataclasses.replace(
        pendulum.system.force, value=_counted(pendulum.system.force.value, calls)
    )
    sc = dataclasses.replace(
        pendulum, system=MechanicalSystem(mass=pendulum.system.mass, force=force)
    )
    traj = integrate_first_kind(sc.system, sc.constraints, sc.initial, 0.2, sc.integrator)
    calls[0] = 0
    check_gde(sc, traj, DEFAULT_THRESHOLDS)
    assert calls[0] == 0


def test_first_integral_check_makes_no_jacobian_calls(pendulum):
    import dataclasses

    from constrained_dynamics import integrate_first_kind
    from constrained_dynamics.checks import check_first_integral

    phi = pendulum.constraints.phi
    assert None not in (phi.jac_t, phi.jac_x, phi.jac_v)
    calls = [0]
    counted = dataclasses.replace(
        phi,
        value=_counted(phi.value, calls),
        jac_t=_counted(phi.jac_t, calls),
        jac_x=_counted(phi.jac_x, calls),
        jac_v=_counted(phi.jac_v, calls),
    )
    sc = dataclasses.replace(
        pendulum, constraints=dataclasses.replace(pendulum.constraints, phi=counted)
    )
    traj = integrate_first_kind(sc.system, sc.constraints, sc.initial, 0.2, sc.integrator)
    calls[0] = 0
    check_first_integral(sc, traj, DEFAULT_THRESHOLDS)
    assert calls[0] == 0


def _pendulum_run(sc, run):
    from constrained_dynamics import (
        IntegratorConfig,
        Realization,
        integrate_first_kind,
    )

    cs = sc.constraints
    if run == "projected":
        cfg = IntegratorConfig(dt=1e-2, projection="positional+velocity")
        return integrate_first_kind(sc.system, cs, sc.initial, 0.5, cfg)
    cfg = IntegratorConfig(dt=1e-2)
    if run == "plain":
        return integrate_first_kind(sc.system, cs, sc.initial, 0.5, cfg)

    def blend(t, x, v):
        S = cs.phi.d_v(t, x, v).copy()
        S[0, 0] += 0.5
        return S.reshape(-1)

    real = Realization(S=blend)
    return integrate_first_kind(sc.system, cs, sc.initial, 0.5, cfg, real=real)


@pytest.mark.parametrize("run", ["plain", "projected", "realization"])
def test_trajectory_checks_equal_the_written_out_formulas(pendulum, run):
    from constrained_dynamics.checks import check_first_integral, check_gde

    traj = _pendulum_run(pendulum, run)
    cs, force = pendulum.constraints, pendulum.system.force
    rate = gde = 0.0
    for t, x, v, xdd, residual in zip(
        traj.times, traj.positions, traj.velocities, traj.xdd, traj.gde_residual
    ):
        row = cs.phi.d_t(t, x, v) + cs.phi.d_x(t, x, v) @ v + cs.phi.d_v(t, x, v) @ xdd
        rate = max(rate, float(np.abs(row).max(initial=0.0)))
        fscale = 1.0 + float(np.abs(force(t, x, v)).max(initial=0.0))
        gde = max(gde, residual / fscale)
    entries = check_first_integral(pendulum, traj, DEFAULT_THRESHOLDS)
    assert entries[1].name == "first-integral-rate"
    assert entries[1].value == rate
    assert check_gde(pendulum, traj, DEFAULT_THRESHOLDS)[0].value == gde


# ---------------------------------------------------------------------------
# scleronomy is declared: the declaration picks the energy check, and a
# declaration that a sampled phi_t contradicts is refused


def _declared(sc, scleronomic):
    import dataclasses

    cs = dataclasses.replace(sc.constraints, scleronomic=scleronomic)
    return dataclasses.replace(sc, constraints=cs)


def test_declaration_decides_scleronomy(pendulum, rotating_wire):
    from constrained_dynamics.checks import _is_scleronomic

    assert _is_scleronomic(pendulum) and not _is_scleronomic(rotating_wire)
    # a sphere not declared scleronomic is treated as possibly rheonomic,
    # although its phi_t vanishes
    assert not _is_scleronomic(_declared(pendulum, False))


def test_false_scleronomy_declaration_is_refused_by_name(rotating_wire):
    from constrained_dynamics.checks import check_energy

    sc = _declared(rotating_wire, True)
    traj = integrate_first_kind(
        rotating_wire.system, rotating_wire.constraints, rotating_wire.initial, 0.1,
        rotating_wire.integrator,
    )
    with pytest.raises(ValueError, match="scenario 'rotating-wire-bead'.*declared scleronomic"):
        check_energy(sc, traj, DEFAULT_THRESHOLDS)


def test_false_time_independence_is_refused_by_the_covariance_check(rotating_wire, pendulum):
    import dataclasses

    from constrained_dynamics.checks import check_covariance

    emb = dataclasses.replace(rotating_wire.embedding, u_t=None, u_tt=None, u_ty=None)
    sc = dataclasses.replace(rotating_wire, embedding=emb)
    # both sides of the identity use the declared chart, so the identity
    # alone would pass
    with pytest.raises(
        ValueError,
        match=r"^covariance check of scenario 'rotating-wire-bead': chart declared "
        r"time-independent \(u_t=None\) .* tau=0\.001$",
    ):
        check_covariance(sc, DEFAULT_THRESHOLDS)
    # a chart that is time-independent passes the check
    assert check_covariance(pendulum, DEFAULT_THRESHOLDS)[0].passed


def test_covariance_check_refuses_a_sample_box_outside_the_chart_domain(spherical):
    import dataclasses

    from constrained_dynamics.checks import check_covariance, check_virtual_work
    from constrained_dynamics.generalized import ChartError

    # the polar chart's domain stops 0.02 short of each pole; every sampled
    # check refuses the box with the same rule before evaluating the chart
    sc = dataclasses.replace(spherical, sample_y_lo=np.array([-0.5, -np.pi]))
    for check in (check_virtual_work, check_covariance):
        with pytest.raises(ChartError, match=r"outside the chart domain .* < lower bound 0\.02$"):
            check(sc, DEFAULT_THRESHOLDS)


def test_covariance_check_draws_t_from_the_scenario_span(spherical, monkeypatch):
    import dataclasses

    from constrained_dynamics import checks

    times = []

    def residual(emb, mass, force, t, y, w, a):
        times.append(t)
        return 0.0

    monkeypatch.setattr(checks, "covariance_residual", residual)
    sc = dataclasses.replace(spherical, sample_t_hi=0.5)
    assert checks.check_covariance(sc, DEFAULT_THRESHOLDS)[0].passed
    assert len(times) == 200 and 0.0 <= min(times) and max(times) < 0.5


def _faulty_pendulum(pendulum, force_nan_at, gx_scale):
    """(scenario, sampled times) of the virtual-work check on the pendulum,
    with its force NaN at the sampled state ``force_nan_at`` and its g_x
    scaled by s at the state i of ``gx_scale`` = (i, s): by 0 the Gram
    matrix is zero there, by 1e-9 phi_v fails the 1e-8 rank rule while the
    Gram matrix (floor 0) passes."""
    import dataclasses

    from constrained_dynamics import ForceField, MechanicalSystem, lift_holonomic

    t = pendulum.sample_states(np.random.default_rng(11), 4)[0].tolist()
    sys, cs = pendulum.system, pendulum.constraints
    f, g = sys.force, cs.generator
    f_at = None if force_nan_at is None else t[force_nan_at]
    g_at, scale = t[gx_scale[0]], gx_scale[1]

    def force(tt, x, v):
        return np.full(2, np.nan) if tt == f_at else f.value(tt, x, v)

    def d_x(tt, x):
        return (scale if tt == g_at else 1.0) * g.d_x(tt, x)

    sc = dataclasses.replace(
        pendulum,
        system=MechanicalSystem(mass=sys.mass, force=ForceField(2, force, f.potential)),
        constraints=lift_holonomic(dataclasses.replace(g, d_x=d_x), 2, cs.scleronomic),
    )
    return sc, t


_GRAM = (RegularityError, r"^constraint Gram matrix is degenerate at t={} ")
_RANK = (RegularityError, r"^constraint Jacobian phi_v is degenerate at t={} ")
_FORCE = (EvaluationError, r"^force field f\(t, x, v\) is non-finite at t={}$")


@pytest.mark.parametrize("force_nan_at, gx_scale, fails, state", [
    # a zero Gram matrix at state 0 before a NaN force at state 1, and the reverse
    (1, (0, 0.0), _GRAM, 0),
    (0, (1, 0.0), _FORCE, 0),
    # phi_v's rank is tested after every solve: a NaN force at state 2
    # outranks a rank failure at state 0
    (2, (0, 1e-9), _FORCE, 2),
    (None, (0, 1e-9), _RANK, 0),
])
def test_virtual_work_check_fails_as_a_per_state_loop(
    pendulum, force_nan_at, gx_scale, fails, state
):
    from constrained_dynamics.checks import check_virtual_work

    (error, message), (sc, t) = fails, _faulty_pendulum(pendulum, force_nan_at, gx_scale)
    with pytest.raises(Exception, match=message.format(re.escape(str(t[state])))) as err:
        check_virtual_work(sc, DEFAULT_THRESHOLDS, count=4)
    assert err.type is error
    if error is RegularityError:
        assert err.value.t == t[state]


def test_reparametrization_check_fails_on_a_nan_phi_t(pendulum):
    # a NaN phi_t makes every reaction NaN; the check's maximum carries the
    # NaN through, as the virtual-work check's does, and the entry fails
    import dataclasses

    from constrained_dynamics.checks import check_reparametrization

    assert check_reparametrization(pendulum, DEFAULT_THRESHOLDS)[0].passed
    cs = pendulum.constraints
    phi = dataclasses.replace(cs.phi, jac_t=lambda t, x, v: np.full(1, np.nan))
    sc = dataclasses.replace(pendulum, constraints=dataclasses.replace(cs, phi=phi))
    [entry] = check_reparametrization(sc, DEFAULT_THRESHOLDS)
    assert np.isnan(entry.value) and not entry.passed


@pytest.mark.parametrize("name", ["pendulum", "spherical-pendulum"])
def test_covariance_check_fails_on_a_nan_residual(name):
    # a NaN u_yy makes every residual NaN; the check's maximum carries the NaN
    # through, where a running Python max would drop it and pass with 0.0
    import dataclasses

    from constrained_dynamics.checks import check_covariance
    from constrained_dynamics.scenarios import catalog_scenario

    sc = catalog_scenario(name)
    assert check_covariance(sc, DEFAULT_THRESHOLDS)[0].passed
    nan_yy = lambda t, y: np.full((sc.embedding.dim, y.size, y.size), np.nan)  # noqa: E731
    sc = dataclasses.replace(sc, embedding=dataclasses.replace(sc.embedding, u_yy=nan_yy))
    [entry] = check_covariance(sc, DEFAULT_THRESHOLDS)
    assert np.isnan(entry.value) and not entry.passed


def test_first_integral_check_fails_on_a_nan_g(pendulum):
    # a generator whose value turns NaN at t = 0.5 leaves phi finite and
    # makes g_norm NaN; the check's maximum of the two carries the NaN, where
    # Python's max(phi_norm, nan) keeps phi_norm and passes
    import dataclasses

    from constrained_dynamics.checks import check_first_integral

    cs = pendulum.constraints
    g = cs.generator
    late_nan = lambda t, x: g.value(t, x) if t < 0.5 else np.full(1, np.nan)  # noqa: E731
    cs = dataclasses.replace(cs, generator=dataclasses.replace(g, value=late_nan))
    sc = dataclasses.replace(pendulum, constraints=cs)
    traj = integrate_first_kind(sc.system, cs, sc.initial, 1.0, sc.integrator)
    assert np.isnan(traj.max_diag("g_norm")) and np.isfinite(traj.max_diag("phi_norm"))
    entry = check_first_integral(sc, traj, DEFAULT_THRESHOLDS)[0]
    assert entry.name == "first-integral"
    assert np.isnan(entry.value) and not entry.passed


def test_equivalence_check_fails_on_a_nan_sup_velocity(pendulum, monkeypatch):
    # a finite sup_position does not hide a NaN sup_velocity
    import dataclasses

    from constrained_dynamics import checks

    match = checks.match_trajectories
    monkeypatch.setattr(
        checks, "match_trajectories",
        lambda *args: dataclasses.replace(match(*args), sup_velocity=np.nan),
    )
    entry = check_equivalence(pendulum, DEFAULT_THRESHOLDS, t_end=0.1)[0]
    assert entry.name == "equivalence"
    assert np.isnan(entry.value) and not entry.passed


def test_energy_check_skips_a_force_without_potential(pendulum):
    import dataclasses

    from constrained_dynamics import ForceField

    f = pendulum.system.force
    system = dataclasses.replace(pendulum.system, force=ForceField(dim=f.dim, value=f.value))
    sc = dataclasses.replace(pendulum, system=system, checks=["energy"])
    [entry] = check_scenario(sc, t_end=0.1).entries
    assert entry.name == "energy" and entry.skipped
    assert entry.note == "skipped: force not declared potential"

import numpy as np
import pytest

from constrained_dynamics.checks import (
    DEFAULT_THRESHOLDS,
    Report,
    ReportEntry,
    check_equivalence,
    check_scenario,
    reparametrization_families,
)
from constrained_dynamics.scenarios import parse_scenario


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

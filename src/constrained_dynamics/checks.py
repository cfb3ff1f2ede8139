"""Property-check suite: every structural identity the engine implements, run as a
numbered pass/fail report against a scenario.

Thresholds are the documented defaults; callers may override any of them
(the CLI exposes this via --tol NAME=VALUE).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .constraints import _fix_signs, _kernel_basis
from .generalized import covariance_residual, integrate_second_kind, match_trajectories
from .integrate import Trajectory, integrate_first_kind
from .reactions import Reparametrization, _stacked_solve, invariance_report
from .scenarios import Scenario, uniform_rows
from .smooth import in_state_order

DEFAULT_THRESHOLDS: Dict[str, float] = {
    "first-integral": 1e-6,
    "first-integral-rate": 1e-9,
    "virtual-work": 1e-10,
    "gde-residual": 1e-8,
    "reparametrization": 1e-8,
    "covariance": 1e-7,
    "energy": 1e-6,
    "energy-nonconservation": 0.1,
    "equivalence": 1e-5,
}


@dataclass(frozen=True)
class ReportEntry:
    name: str
    value: Optional[float]
    threshold: Optional[float]
    passed: bool
    comparison: str = "<="
    note: str = ""

    @property
    def skipped(self) -> bool:
        return self.note.startswith("skipped")


@dataclass
class Report:
    scenario: str
    entries: List[ReportEntry] = field(default_factory=list)
    stamp: Dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e.passed or e.skipped for e in self.entries)

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        for k, v in sorted(self.stamp.items()):
            lines.append(f"  {k}: {v}")
        for e in self.entries:
            if e.skipped:
                lines.append(f"[SKIP] {e.name}: {e.note}")
                continue
            tag = "PASS" if e.passed else "FAIL"
            lines.append(
                f"[{tag}] {e.name}: {e.value:.6e} {e.comparison} {e.threshold:.6e}"
            )
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> Dict:
        return {
            "scenario": self.scenario,
            "stamp": self.stamp,
            "passed": self.passed,
            "entries": [
                {
                    "name": e.name,
                    "value": e.value,
                    "threshold": e.threshold,
                    "comparison": e.comparison,
                    "passed": e.passed,
                    "note": e.note,
                }
                for e in self.entries
            ],
        }


def _entry(name, value, threshold, comparison="<="):
    ok = value <= threshold if comparison == "<=" else value > threshold
    return ReportEntry(
        name=name, value=float(value), threshold=float(threshold), passed=bool(ok),
        comparison=comparison,
    )


def _skipped(name: str, why: str) -> List[ReportEntry]:
    note = f"skipped: {why}"
    return [ReportEntry(name=name, value=None, threshold=None, passed=True, note=note)]


def _no_chart(sc: Scenario) -> str:
    return "unconstrained system" if sc.unconstrained else "nonholonomic (no embedding)"


def _is_scleronomic(sc: Scenario) -> bool:
    """Whether the constraints are declared scleronomic (no constraints
    count as such).  A declared set is probed at five sampled states, and
    one with a nonzero phi_t there raises ValueError naming the scenario."""
    cs = sc.constraints
    if cs is None:
        return True
    if cs.scleronomic:
        t, X, V = sc.sample_states(np.random.default_rng(3), 5)
        for ti, x, v in zip(t.tolist(), X, V):
            cs.require_declared_scleronomy(ti, x, v, f"scenario {sc.name!r}")
    return cs.scleronomic


def reparametrization_families(n: int, rng: np.random.Generator):
    """The U families used in the invariance check: identity, e^z - 1,
    z + z^3, and a random invertible linear mix."""
    fams = [
        ("identity", Reparametrization.identity(n)),
        ("exp-minus-one", Reparametrization.componentwise(n, lambda z: np.expm1(z), np.exp)),
        ("cubic", Reparametrization.componentwise(n, lambda z: z + z**3, lambda z: 1 + 3 * z**2)),
    ]
    M = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
    while abs(np.linalg.det(M)) < 0.1:
        M = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
    fams.append(("linear-mix", Reparametrization.linear(M)))
    return fams


def check_first_integral(sc: Scenario, traj: Trajectory, thresholds) -> List[ReportEntry]:
    if sc.unconstrained:
        return _skipped("first-integral", "unconstrained system")
    # np.max carries a NaN of either column through, where Python's max drops it
    value = np.max([traj.max_diag("phi_norm"), traj.max_diag("g_norm")])
    entries = [_entry("first-integral", value, thresholds["first-integral"])]
    # chain-rule d(phi)/dt along the integrated vector field, per accepted step
    rate = traj.max_diag("phi_rate")
    entries.append(_entry("first-integral-rate", rate, thresholds["first-integral-rate"]))
    return entries


def check_virtual_work(sc: Scenario, thresholds, count=1000) -> List[ReportEntry]:
    if sc.unconstrained:
        return _skipped("virtual-work", "unconstrained system")
    cs = sc.constraints
    t, X, V = sc.sample_states(np.random.default_rng(11), count)
    force, jet, Ginv = sc.system.force, cs.jet, sc.system.mass.inverse
    k, n, m = t.size, cs.n, cs.dim
    # every state's force and jet (phi_v, phi_t + phi_x v), written in place
    F, drift, B = np.empty((k, m)), np.empty((k, n)), np.empty((k, n, m))
    i = 0  # the solves of the states before a failing state i come first
    with in_state_order(lambda: i and _stacked_solve(Ginv, B[:i], drift[:i], F[:i], t[:i])):
        for i, (ti, x, v) in enumerate(zip(t.tolist(), X, V)):
            F[i] = force(ti, x, v)
            B[i], drift[i] = jet(ti, x, v)
    _, N = _stacked_solve(Ginv, B, drift, F, t)
    # one stacked SVD for every kernel basis, and N Xi for every state at once
    Xi = _fix_signs(_kernel_basis(B, n, t))
    work = np.abs((N[:, None, :] @ Xi)[:, 0]).max(axis=1)
    worst = np.max(work / (1.0 + np.abs(N).max(axis=1)), initial=0.0)
    return [_entry("virtual-work", worst, thresholds["virtual-work"])]


def check_gde(sc: Scenario, traj: Trajectory, thresholds) -> List[ReportEntry]:
    worst = np.max(traj.gde_residual / (1.0 + traj.force_norm), initial=0.0)
    return [_entry("gde-residual", worst, thresholds["gde-residual"])]


def check_reparametrization(sc: Scenario, thresholds, count=100) -> List[ReportEntry]:
    if sc.unconstrained:
        return _skipped("reparametrization", "unconstrained system")
    rng = np.random.default_rng(17)
    t, X, V = sc.sample_states(rng, count)
    reps = [rep for _, rep in reparametrization_families(sc.constraints.n, rng)]
    worst = invariance_report(sc.system, sc.constraints, reps, t, X, V)
    return [_entry("reparametrization", worst, thresholds["reparametrization"])]


def check_covariance(sc: Scenario, thresholds, count=200) -> List[ReportEntry]:
    if sc.embedding is None:
        return _skipped("covariance", _no_chart(sc))
    emb = sc.embedding
    r = emb.r
    t, Y, W, A = uniform_rows(
        np.random.default_rng(23), count, (0.0, sc.sample_t_hi, 1),
        (sc.sample_y_lo, sc.sample_y_hi, r), (-2.0, 2.0, r), (-2.0, 2.0, r),
    )
    emb.require_in_domain(t[:, 0], Y)
    # both sides of the identity use the chart as declared, so a false
    # u_t=None would pass unseen
    emb.require_declared_time_independence(
        float(t[0, 0]), Y[0], f"covariance check of scenario {sc.name!r}"
    )
    mass, force = sc.system.mass, sc.system.force
    residuals = [
        covariance_residual(emb, mass, force, ti, y, w, a)
        for ti, y, w, a in zip(t[:, 0].tolist(), Y, W, A)
    ]
    # ndarray.max carries a NaN residual through, so a NaN fails the check
    return [_entry("covariance", np.max(residuals, initial=0.0), thresholds["covariance"])]


def check_energy(sc: Scenario, traj: Trajectory, thresholds) -> List[ReportEntry]:
    energies = traj.energy
    e0 = energies[0]
    if _is_scleronomic(sc):
        if sc.system.force.potential is None:
            return _skipped("energy", "force not declared potential")
        drift = float(np.abs(energies - e0).max()) / (1.0 + abs(e0))
        return [_entry("energy", drift, thresholds["energy"])]
    # rheonomic: reactions may do work through the moving constraint; assert
    # the energy visibly changes while the constraint holds (first-integral
    # entry covers the residual bound)
    times = traj.times
    idx = int(np.argmin(np.abs(times - min(3.0, times[-1]))))
    change = abs(float(energies[idx] - e0))
    return [
        _entry("energy-nonconservation", change, thresholds["energy-nonconservation"], ">")
    ]


def check_equivalence(sc: Scenario, thresholds, t_end=10.0) -> List[ReportEntry]:
    """First-kind and second-kind runs agree through the chart, as a sup-norm bound."""
    if sc.embedding is None or sc.initial_generalized is None:
        return _skipped("equivalence", _no_chart(sc))
    traj_x = integrate_first_kind(sc.system, sc.constraints, sc.initial, t_end, sc.integrator)
    traj_y = integrate_second_kind(
        sc.embedding, sc.system, sc.initial_generalized, t_end, sc.integrator
    )
    rep = match_trajectories(traj_x, sc.embedding, traj_y, sc.system.mass)
    value = np.max([rep.sup_position, rep.sup_velocity])
    entries = [_entry("equivalence", value, thresholds["equivalence"])]
    entries.append(
        _entry("chart-inversion", rep.max_inversion_residual, thresholds["equivalence"])
    )
    return entries


def _report(sc: Scenario, t_end: float, thresholds, **stamp) -> Tuple[Report, Dict]:
    """An empty report stamped with the run settings (and ``stamp``), and
    DEFAULT_THRESHOLDS updated with ``thresholds``."""
    th = dict(DEFAULT_THRESHOLDS)
    th.update(thresholds or {})
    integ = sc.integrator
    head = {"version": __version__, "t_end": t_end, "method": integ.method, "dt": integ.dt}
    return Report(scenario=sc.name, stamp={**head, **stamp}), th


def check_scenario(
    sc: Scenario,
    t_end: float = 10.0,
    thresholds: Optional[Dict[str, float]] = None,
) -> Report:
    """Run every check the scenario requests and assemble the report."""
    report, th = _report(sc, t_end, thresholds, projection=sc.integrator.projection)
    traj = integrate_first_kind(sc.system, sc.constraints, sc.initial, t_end, sc.integrator)

    runners: Dict[str, Callable[[], List[ReportEntry]]] = {
        "first-integral": lambda: check_first_integral(sc, traj, th),
        "virtual-work": lambda: check_virtual_work(sc, th),
        "gde-residual": lambda: check_gde(sc, traj, th),
        "reparametrization": lambda: check_reparametrization(sc, th),
        "covariance": lambda: check_covariance(sc, th),
        "energy": lambda: check_energy(sc, traj, th),
    }
    for name, fn in runners.items():
        if name in sc.checks:
            report.entries.extend(fn())
    return report


def compare_embeddings_report(
    sc: Scenario, t_end: float = 10.0, thresholds: Optional[Dict[str, float]] = None
) -> Report:
    """The first/second-kind equivalence report; its stamp has no projection."""
    report, th = _report(sc, t_end, thresholds)
    report.entries.extend(check_equivalence(sc, th, t_end=t_end))
    return report

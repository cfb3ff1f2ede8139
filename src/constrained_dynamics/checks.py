"""Property-check suite: every structural identity the engine implements, run as a
numbered pass/fail report against a scenario.

Thresholds are the documented defaults; callers may override any of them
(the CLI exposes this via --tol NAME=VALUE).
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .constraints import _fix_signs, _kernel_basis
from .generalized import covariance_residual, integrate_second_kind, match_trajectories
from .integrate import Trajectory, integrate_first_kind
from .reactions import Reparametrization, _stacked_solve, invariance_report
from .scenarios import DEFAULT_CHECKS, Scenario, uniform_rows
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
    # the two kinds share nothing until they are matched
    traj_x, traj_y = _alongside(
        lambda: integrate_first_kind(sc.system, sc.constraints, sc.initial, t_end, sc.integrator),
        lambda: integrate_second_kind(
            sc.embedding, sc.system, sc.initial_generalized, t_end, sc.integrator
        ),
    )
    rep = match_trajectories(traj_x, sc.embedding, traj_y, sc.system.mass)
    value = np.max([rep.sup_position, rep.sup_velocity])
    entries = [_entry("equivalence", value, thresholds["equivalence"])]
    entries.append(
        _entry("chart-inversion", rep.max_inversion_residual, thresholds["equivalence"])
    )
    return entries


def _spare_cpu() -> bool:
    """Whether a forked child can run beside this process: ``os.fork`` exists,
    the process may run on two CPUs or more, and no other Python thread could
    hold a lock across the fork.  Asked on every call, so ``taskset -c 0``
    runs serially."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _send(first: Callable[[], object], wfd: int) -> None:
    """In a forked child: write first()'s pickled value to ``wfd`` and exit 0
    if it returned and warned nothing, else exit 1.  It never returns, and
    ``os._exit`` runs no atexit handler and flushes none of the parent's
    stdio buffers."""
    code = 1
    try:
        with warnings.catch_warnings(record=True) as caught:
            value = first()
        if not caught:
            with open(wfd, "wb") as out:
                pickle.dump(value, out, pickle.HIGHEST_PROTOCOL)
            code = 0
    finally:
        os._exit(code)


def _alongside(first: Callable[[], object], own: Callable[[], object]) -> Tuple:
    """(first(), own()), and the failure of that serial order: a failure of
    first() wins, and carries no context from one of own().

    When :func:`_spare_cpu`, first() runs in a forked child while this process
    runs own().  Only a clean result crosses the pipe: the child exits 0 after
    sending its pickled value only when first() returned and warned nothing.
    Otherwise first() runs here after own(), so its errors and warnings are the
    serial ones.  The child never outlives the call.
    """
    child = None
    if _spare_cpu():
        rfd, wfd = os.pipe()
        try:
            child = os.fork()
        except OSError:  # no process to spare: the serial order
            os.close(rfd)
        else:
            if child == 0:
                _send(first, wfd)
            pipe = open(rfd, "rb")
        os.close(wfd)
    try:
        failure = mine = None
        try:
            mine = own()
        except Exception as exc:
            failure = exc
        # collected outside the except block, so a failure of first() has no
        # __context__ from own()'s
        crossed = False
        if child is not None:
            payload = pipe.read()
            pipe.close()
            status = os.waitpid(child, 0)[1]
            child = None
            if os.waitstatus_to_exitcode(status) == 0:
                try:
                    value, crossed = pickle.loads(payload), True
                except Exception:  # noqa: BLE001 - no or a bad payload: run first() here
                    pass
        if not crossed:
            value = first()
        if failure is not None:
            raise failure
        return value, mine
    finally:
        if child is not None:  # own() was interrupted: stop the child first
            import signal  # only here, to keep it out of the import time

            os.kill(child, signal.SIGKILL)
            pipe.close()
            os.waitpid(child, 0)


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
    names = [name for name in DEFAULT_CHECKS if name in sc.checks]
    # the sampled checks read no trajectory, so they run while the first kind
    # integrates; of the checks that read it, only check_energy, the last,
    # can raise, so the serial order's first failure is kept
    sampled = {
        "virtual-work": check_virtual_work,
        "reparametrization": check_reparametrization,
        "covariance": check_covariance,
    }
    on_run = {
        "first-integral": check_first_integral,
        "gde-residual": check_gde,
        "energy": check_energy,
    }
    traj, done = _alongside(
        lambda: integrate_first_kind(sc.system, sc.constraints, sc.initial, t_end, sc.integrator),
        lambda: {name: sampled[name](sc, th) for name in names if name in sampled},
    )
    for name in names:
        report.entries.extend(done[name] if name in done else on_run[name](sc, traj, th))
    return report


def compare_embeddings_report(
    sc: Scenario, t_end: float = 10.0, thresholds: Optional[Dict[str, float]] = None
) -> Report:
    """The first/second-kind equivalence report; its stamp has no projection."""
    report, th = _report(sc, t_end, thresholds)
    report.entries.extend(check_equivalence(sc, th, t_end=t_end))
    return report

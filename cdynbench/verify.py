"""Output checks for every benchmark op.

An op fails when it raises, exits non-zero, or when what it wrote does not
pass these checks.  The thresholds are pinned to the values the engine
shipped with, so a commit that loosens ``DEFAULT_THRESHOLDS`` fails here
instead of buying speed with accuracy.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from workloads import Op

PINNED_THRESHOLDS: Dict[str, float] = {
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
DRIFT_BOUND = PINNED_THRESHOLDS["first-integral"]

# dimensions (m, n) of each scenario, for the CSV header
_DIMS = {"pendulum": (2, 1), "spherical-pendulum": (3, 1), "rotating-wire-bead": (2, 1),
         "knife-edge": (3, 1)}
_BASE_ENTRIES = ["first-integral", "first-integral-rate", "virtual-work", "gde-residual",
                 "reparametrization", "covariance"]
# report entries check-invariants must produce, in order
_INVARIANT_ENTRIES = {
    "pendulum": _BASE_ENTRIES + ["energy"],
    "spherical-pendulum": _BASE_ENTRIES + ["energy"],
    "rotating-wire-bead": _BASE_ENTRIES + ["energy-nonconservation"],
    "knife-edge": _BASE_ENTRIES + ["energy"],
}
_SKIPPED = {("knife-edge", "covariance")}
_EQUIVALENCE_ENTRIES = ["equivalence", "chart-inversion"]
_DT = 1e-3
_WROTE = re.compile(r"^wrote (.+) \((\d+) samples\)$", re.MULTILINE)


class CheckFailed(Exception):
    """An op's output failed a check; the message says which and why."""


@dataclass
class Outcome:
    """What a passing op did: accepted steps, worst drift, check ratios."""

    steps: int
    drift: float
    ratios: List[float] = field(default_factory=list)

    @property
    def worst_ratio(self) -> float:
        return max([self.drift / DRIFT_BOUND] + self.ratios)


def rk4_steps(t_end: float, dt: float = _DT, t0: float = 0.0) -> int:
    """Steps of the fixed-step loop from t0 to t_end (same float arithmetic)."""
    n, t = 0, t0
    while t < t_end - 1e-12 * max(1.0, abs(t_end)):
        t = t + min(dt, t_end - t)
        n += 1
    return n


def expected_outputs(op: Op, out_dir: Path) -> List[Path]:
    if op.command == "simulate":
        return [out_dir / f"{op.scenario}_trajectory.csv"]
    return [out_dir / f"{op.scenario}_report.json", out_dir / f"{op.scenario}_report.txt"]


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{where}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{where}: not finite: {text!r}")
    return value


def check_simulate(op: Op, out_dir: Path, stdout: str) -> Outcome:
    m, n = _DIMS[op.scenario]
    header = (["t"] + [f"x{i + 1}" for i in range(m)] + [f"v{i + 1}" for i in range(m)]
              + [f"lambda{i + 1}" for i in range(n)] + [f"N{i + 1}" for i in range(m)]
              + ["g_norm", "phi_norm", "gde_residual", "energy"])
    path = expected_outputs(op, out_dir)[0]
    if not path.is_file():
        raise CheckFailed(f"no CSV written at {path.name}")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckFailed(f"CSV header {rows[:1]} != {header}")
    body = rows[1:]
    if any(len(r) != len(header) for r in body):
        raise CheckFailed("CSV row with the wrong number of fields")
    adaptive = "rk45-adaptive" in op.flags
    steps = len(body) - 1 if adaptive else rk4_steps(op.t_end)
    if len(body) != steps + 1:
        raise CheckFailed(f"CSV has {len(body)} rows, expected steps+1 = {steps + 1}")
    wrote = _WROTE.search(stdout)
    if wrote is None or int(wrote.group(2)) != len(body):
        raise CheckFailed(f"stdout does not report {len(body)} samples: {stdout!r}")
    g_col, phi_col = header.index("g_norm"), header.index("phi_norm")
    drift, last_t = 0.0, -math.inf
    for k, row in enumerate(body):
        values = [_finite(z, f"row {k + 1} col {c}") for c, z in enumerate(row)
                  if not (c == g_col and z == "" and op.scenario == "knife-edge")]
        if values[0] <= last_t:
            raise CheckFailed(f"time not increasing at row {k + 1}")
        last_t = values[0]
        drift = max(drift, _finite(row[phi_col], "phi_norm"))
        if row[g_col] != "":
            drift = max(drift, _finite(row[g_col], "g_norm"))
    if body and abs(last_t - op.t_end) > 1e-9:
        raise CheckFailed(f"last sample at t={last_t!r}, expected t_end={op.t_end!r}")
    if not drift <= DRIFT_BOUND:
        raise CheckFailed(f"constraint drift {drift:.3e} exceeds {DRIFT_BOUND:.0e}")
    return Outcome(steps=steps, drift=drift)


def _check_report(op: Op, out_dir: Path, names: List[str]) -> Dict[str, float]:
    """Validate a report JSON; returns the value of each non-skipped entry."""
    path = expected_outputs(op, out_dir)[0]
    if not path.is_file():
        raise CheckFailed(f"no report written at {path.name}")
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
    if report.get("scenario") != op.scenario or report.get("passed") is not True:
        raise CheckFailed(f"report scenario/passed wrong: {report.get('scenario')!r}, "
                          f"{report.get('passed')!r}")
    if report.get("stamp", {}).get("t_end") != op.t_end:
        raise CheckFailed(f"report t_end {report.get('stamp', {}).get('t_end')!r} != {op.t_end}")
    entries = report.get("entries", [])
    if [e.get("name") for e in entries] != names:
        raise CheckFailed(f"report entries {[e.get('name') for e in entries]} != {names}")
    values = {}
    for e in entries:
        name = e["name"]
        if (op.scenario, name) in _SKIPPED:
            if not str(e.get("note", "")).startswith("skipped"):
                raise CheckFailed(f"{name} should be skipped for {op.scenario}")
            continue
        threshold_name = "equivalence" if name == "chart-inversion" else name
        if e.get("threshold") != PINNED_THRESHOLDS[threshold_name]:
            raise CheckFailed(f"{name} threshold {e.get('threshold')!r} != pinned "
                              f"{PINNED_THRESHOLDS[threshold_name]!r}")
        value = _finite(str(e.get("value")), name)
        ok = value <= e["threshold"] if e.get("comparison") == "<=" else value > e["threshold"]
        if not (ok and e.get("passed") is True):
            raise CheckFailed(f"{name} = {value:.3e} fails {e.get('comparison')} "
                              f"{e['threshold']:.0e}")
        if e.get("comparison") == "<=":
            values[name] = value
    return values


def check_invariants(op: Op, out_dir: Path) -> Outcome:
    values = _check_report(op, out_dir, _INVARIANT_ENTRIES[op.scenario])
    ratios = [v / PINNED_THRESHOLDS[k] for k, v in values.items()]
    return Outcome(steps=rk4_steps(op.t_end), drift=values["first-integral"], ratios=ratios)


def check_equivalence(op: Op, out_dir: Path) -> Outcome:
    values = _check_report(op, out_dir, _EQUIVALENCE_ENTRIES)
    ratios = [v / PINNED_THRESHOLDS["equivalence"] for v in values.values()]
    # compare-embeddings records no per-sample residuals; its drift is the
    # largest distance of a first-kind position from the chart image
    return Outcome(steps=2 * rk4_steps(op.t_end), drift=values["chart-inversion"],
                   ratios=ratios)


def check_op(op: Op, rc: Optional[int], out_dir: Path, stdout: str, stderr: str) -> Outcome:
    """Raise CheckFailed unless the op exited 0 and wrote correct output."""
    if rc != 0:
        tail = stderr.strip().splitlines()[-1:] or stdout.strip().splitlines()[-1:]
        status = "raised" if rc is None else f"exit code {rc}"
        raise CheckFailed(f"{status}: {' '.join(tail)}")
    if op.command == "simulate":
        return check_simulate(op, out_dir, stdout)
    if op.command == "check-invariants":
        return check_invariants(op, out_dir)
    if op.command == "compare-embeddings":
        return check_equivalence(op, out_dir)
    raise ValueError(f"no check for command {op.command!r}")


# cdyn reactions pendulum --state 0,-1,2,0: bottom of the unit pendulum at
# speed 2 under g0 = 10, where the tension is m (v^2 / l + g0) = 14
ORACLE_ARGV = ["reactions", "pendulum", "--state", "0,-1,2,0"]


def check_oracle(rc: Optional[int], stdout: str) -> None:
    if rc != 0:
        raise CheckFailed(f"reactions oracle exited {rc}")
    try:
        dump = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"reactions oracle printed no JSON: {exc}") from None
    lam, N = dump.get("Lambda"), dump.get("N")
    if not (isinstance(lam, list) and len(lam) == 1 and abs(lam[0] + 14.0) <= 1e-12
            and isinstance(N, list) and len(N) == 2
            and abs(N[0]) <= 1e-12 and abs(N[1] - 14.0) <= 1e-12):
        raise CheckFailed(f"reactions oracle: Lambda={lam}, N={N}; expected -14 and (0, 14)")

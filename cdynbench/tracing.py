"""Spans and work counts for the traced run, recorded from outside the engine.

Spans wrap calls into each engine module's functions by rebinding the
module attributes (in every engine module that imported them by name) for
the duration of a traced pass.  Work counts come from wrappers around the map
callables of each parsed scenario: force field, constraint maps and
embedding.  Nothing in the engine's source is changed; spans live in memory
and are written once, when the run ends.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

import numpy as np

# map counters, snapshotted at every span boundary
FORCE, CONSTRAINT, PHI_JAC, EMBEDDING = range(4)
MAP_KINDS = ("force", "constraint", "phi_jac", "embedding")

# span record layout
NAME, PARENT, OP, START, END, SIZE, TAG = range(7)
SNAP0 = 7                  # counts and map ns at span start: 5 fields
SNAP1 = SNAP0 + 5          # the same at span end
WIDTH = SNAP1 + 5


def _integrator_tag(args, kwargs, result):
    cfg = args[4] if len(args) > 4 else kwargs.get("cfg")
    method = getattr(cfg, "method", "rk4-fixed")
    projected = getattr(cfg, "projection", "off") != "off"
    return len(result), f"{method}{'+projection' if projected else ''}"


# (module, attribute, size/tag of a call or None); the span name is module.attribute
SPAN_TARGETS = (
    ("scenarios", "parse_scenario", None),
    ("checks", "check_scenario", None),
    ("checks", "compare_embeddings_report", None),
    ("checks", "check_first_integral", None),
    ("checks", "check_virtual_work", None),
    ("checks", "check_gde", None),
    ("checks", "check_reparametrization", None),
    ("checks", "check_covariance", None),
    ("checks", "check_energy", None),
    ("checks", "check_equivalence", None),
    ("integrate", "integrate_first_kind", _integrator_tag),
    ("integrate", "_accel_raw", None),
    ("integrate", "project_to_manifold", None),
    ("generalized", "integrate_second_kind", lambda a, k, r: (len(r), "rk4-fixed")),
    ("generalized", "second_kind_acceleration", None),
    ("generalized", "match_trajectories", lambda a, k, r: (len(a[0]), "")),
    ("generalized", "_chart_invert", None),
    ("generalized", "covariance_residual", None),
    ("reactions", "reaction", None),
    ("reactions", "invariance_report", lambda a, k, r: (len(a[3]), "")),
    ("constraints", "virtual_basis", None),
)
CSV_SPAN = "integrate.Trajectory.to_csv"
OP_SPAN = "cli.main"


class Tracer:
    """In-memory span table plus per-kind map call counts and times.

    Spans are stored flat in an int64 array, WIDTH fields per span, so that a
    long traced run adds no objects for the garbage collector to scan.
    """

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.buf = array("q")
        self.stack: List[int] = []
        self.op_id = -1
        self.counts = [0] * len(MAP_KINDS)
        self.map_ns = [0] * len(MAP_KINDS)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _snapshot(self) -> list:
        c = self.counts
        return [c[FORCE], c[CONSTRAINT], c[PHI_JAC], c[EMBEDDING], sum(self.map_ns)]

    def span(self, name: str, fn: Callable, meta: Optional[Callable] = None) -> Callable:
        """Wrap fn so that each call records one span named ``name``."""
        nid = self.name_id(name)
        buf, stack = self.buf, self.stack

        def traced(*args, **kwargs):
            base = len(buf)
            buf.extend([nid, stack[-1] if stack else -1, self.op_id, 0, 0, -1, -1]
                       + self._snapshot() + [0] * (WIDTH - SNAP1))
            stack.append(base // WIDTH)
            buf[base + START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                buf[base + END] = perf_counter_ns()
                stack.pop()
                buf[base + SNAP1:base + WIDTH] = array("q", self._snapshot())
            if meta is not None:
                size, tag = meta(args, kwargs, out)
                buf[base + SIZE], buf[base + TAG] = size, self.name_id(tag)
            return out

        return traced

    def counted(self, kind: int, fn: Optional[Callable]) -> Optional[Callable]:
        """Wrap a map callable so that each call is counted and timed."""
        if fn is None:
            return None
        counts, map_ns = self.counts, self.map_ns

        def wrapper(*args):
            t0 = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                map_ns[kind] += perf_counter_ns() - t0
                counts[kind] += 1

        return wrapper

    def instrument(self, sc):
        """The scenario with every map callable replaced by a counting wrapper."""
        rp = dataclasses.replace
        f = sc.system.force
        system = rp(sc.system, force=rp(f, value=self.counted(FORCE, f.value)))
        cs = sc.constraints
        if cs is not None:
            phi = rp(
                cs.phi,
                value=self.counted(CONSTRAINT, cs.phi.value),
                jac_t=self.counted(PHI_JAC, cs.phi.jac_t),
                jac_x=self.counted(PHI_JAC, cs.phi.jac_x),
                jac_v=self.counted(PHI_JAC, cs.phi.jac_v),
            )
            g = cs.generator
            if g is not None:
                g = rp(g, **{k: self.counted(CONSTRAINT, getattr(g, k))
                             for k in ("value", "d_t", "d_x", "d_tt", "d_tx", "d_xx")})
            cs = rp(cs, phi=phi, generator=g,
                    affine_a=self.counted(CONSTRAINT, cs.affine_a),
                    affine_A=self.counted(CONSTRAINT, cs.affine_A))
        emb = sc.embedding
        if emb is not None:
            emb = rp(emb, **{k: self.counted(EMBEDDING, getattr(emb, k))
                             for k in ("u", "u_t", "u_y", "u_tt", "u_ty", "u_yy")})
        return rp(sc, system=system, constraints=cs, embedding=emb)

    def table(self) -> np.ndarray:
        return np.frombuffer(self.buf, dtype=np.int64).reshape(-1, WIDTH).copy()

    def write(self, path) -> None:
        """Write every span as one tab-separated line: name, start, end, parent, op."""
        T = self.table()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\tsize\ttag\n")
            for i, r in enumerate(T.tolist()):
                tag = self.names[r[TAG]] if r[TAG] >= 0 else ""
                fh.write(f"{i}\t{self.names[r[NAME]]}\t{r[START]}\t{r[END]}\t"
                         f"{r[PARENT]}\t{r[OP]}\t{r[SIZE]}\t{tag}\n")


def _counting_parse(tracer: Tracer, parse: Callable) -> Callable:
    def parse_and_count(path):
        return tracer.instrument(parse(path))

    return parse_and_count


class Instrumented:
    """Context manager that rebinds the span targets to traced wrappers.

    A function is rebound in every engine module that holds it by name, so
    calls made through ``from .x import f`` are traced as well.  Parsed
    scenarios come back with counting map wrappers.
    """

    def __init__(self, package: str, tracer: Tracer):
        self.package = package
        self.tracer = tracer
        self._undo: list = []

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if n == self.package or n.startswith(self.package + ".")]

    def _rebind(self, original, wrapper) -> None:
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def __enter__(self):
        tr = self.tracer
        for module, attr, meta in SPAN_TARGETS:
            original = getattr(sys.modules[f"{self.package}.{module}"], attr)
            wrapper = tr.span(f"{module}.{attr}", original, meta)
            if attr == "parse_scenario":
                wrapper = _counting_parse(tr, wrapper)
            self._rebind(original, wrapper)
        traj = sys.modules[f"{self.package}.integrate"].Trajectory
        self._undo.append((traj, "to_csv", traj.to_csv))
        traj.to_csv = tr.span(CSV_SPAN, traj.to_csv, lambda a, k, r: (len(r), ""))
        return self

    def __exit__(self, *exc):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics from the span table

LAYERS = ("cli", "scenarios", "checks", "integrate", "generalized", "reactions",
          "constraints")


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> Dict[str, tuple]:
    """name -> (value, unit, note); totals are per traced pass."""
    T = tracer.table()
    names = tracer.names
    ids = {n: i for i, n in enumerate(names)}
    dur = T[:, END] - T[:, START]
    snap0, snap1 = T[:, SNAP0:SNAP1], T[:, SNAP1:WIDTH]
    work = snap1 - snap0  # map calls and map ns inside each span

    def rows(name):
        return np.flatnonzero(T[:, NAME] == ids[name]) if name in ids else np.zeros(0, int)

    def tag_of(i):
        return names[T[i, TAG]] if T[i, TAG] >= 0 else ""

    children: Dict[int, List[int]] = {}
    for i, p in enumerate(T[:, PARENT]):
        children.setdefault(int(p), []).append(i)

    def kids(i, name):
        nid = ids.get(name, -2)
        return [c for c in children.get(i, []) if T[c, NAME] == nid]

    us = 1e-3  # ns -> us
    per_pass = 1.0 / max(passes, 1)

    # self time: span minus child spans minus the user maps called inside it
    has_parent = T[:, PARENT] >= 0
    child_ns = np.zeros(len(T), np.int64)
    np.add.at(child_ns, T[has_parent, PARENT], dur[has_parent])
    child_map_ns = np.zeros(len(T), np.int64)
    np.add.at(child_map_ns, T[has_parent, PARENT], work[has_parent, 4])
    self_ns = dur - child_ns - (work[:, 4] - child_map_ns)

    out: Dict[str, tuple] = {}

    # first-kind integration: steps, per-step work after the initial sample
    first = rows("integrate.integrate_first_kind")
    steps1 = samples1 = force1 = jac1 = 0
    rk4_ns = rk4_steps = rk4_accel_ns = rk4_accel_n = 0
    prk4_ns = prk4_steps = dp_ns = dp_attempts = dp_accepts = 0
    for i in first:
        accel = kids(i, "integrate._accel_raw")
        proj_ns = sum(int(dur[c]) for c in kids(i, "integrate.project_to_manifold"))
        n_samples = int(T[i, SIZE])
        steps = n_samples - 1
        if steps <= 0 or len(accel) < 2:
            continue
        samples1 += n_samples
        steps1 += steps
        base = accel[1]  # k1 of the first step: everything after it is per-step work
        force1 += int(snap1[i, FORCE] - snap0[base, FORCE])
        jac1 += int(snap1[i, PHI_JAC] - snap0[base, PHI_JAC])
        tag = tag_of(i)
        if tag.startswith("rk4-fixed"):
            rk4_ns += int(dur[i]) - proj_ns
            rk4_steps += steps
            rk4_accel_ns += sum(int(dur[c]) for c in accel)
            rk4_accel_n += len(accel)
            if tag.endswith("+projection"):
                prk4_ns += int(dur[i])
                prk4_steps += steps
        else:
            # Dormand-Prince: 7 stages per attempt, one more call per recorded sample
            attempts = (len(accel) - n_samples) // 7
            dp_ns += int(dur[i])
            dp_attempts += attempts
            dp_accepts += steps

    second = rows("generalized.integrate_second_kind")
    steps2 = emb2 = sk_ns = 0
    for i in second:
        acc = kids(i, "generalized.second_kind_acceleration")
        steps = int(T[i, SIZE]) - 1
        if steps <= 0 or len(acc) < 2:
            continue
        steps2 += steps
        sk_ns += int(dur[i])
        emb2 += int(snap1[i, EMBEDDING] - snap0[acc[1], EMBEDDING])

    inv = rows("generalized._chart_invert")
    chart_evals = int(work[inv, EMBEDDING].sum())
    match = rows("generalized.match_trajectories")
    match_samples = int(T[match, SIZE].sum())
    invariance = rows("reactions.invariance_report")
    csv_rows = rows(CSV_SPAN)
    ops = rows(OP_SPAN)
    rk4_us = _ratio(rk4_ns, rk4_steps) * us
    accel_mean_us = _ratio(rk4_accel_ns, rk4_accel_n) * us

    def med_us(name):
        return _median(dur[rows(name)]) * us

    def total_s(name):
        return float(dur[rows(name)].sum()) * 1e-9 * per_pass

    counts, map_ns = tracer.counts, tracer.map_ns
    out["scenarios.parse_ms"] = (med_us("scenarios.parse_scenario") * 1e-3, "ms",
                                 "median per document")
    out["maps.force_evals_per_step"] = (_ratio(force1, steps1), "count",
                                        "first kind, initial sample excluded")
    out["maps.phi_jac_evals_per_step"] = (_ratio(jac1, steps1), "count",
                                          "first kind, initial sample excluded")
    out["maps.embedding_evals_per_step"] = (_ratio(emb2, steps2), "count",
                                            "second kind, initial sample excluded")
    out["maps.self_s"] = (sum(map_ns) * 1e-9 * per_pass, "s", "user maps, per pass")
    out["constraints.jacobians_us"] = (_ratio(map_ns[PHI_JAC], counts[PHI_JAC]) * us, "us",
                                       "mean per phi Jacobian call")
    out["constraints.virtual_basis_us"] = (med_us("constraints.virtual_basis"), "us", "median")
    out["reactions.reaction_us"] = (med_us("reactions.reaction"), "us", "median")
    out["reactions.invariance_us_per_state"] = (
        _ratio(dur[invariance].sum(), T[invariance, SIZE].sum()) * us, "us", "")
    out["integrate.accel_us"] = (med_us("integrate._accel_raw"), "us", "median")
    out["integrate.rk4_us_per_step"] = (rk4_us, "us", "projection excluded")
    out["integrate.diag_us_per_step"] = (rk4_us - 4 * accel_mean_us if rk4_steps else 0.0,
                                         "us", "derived: rk4 step minus 4 stage accelerations")
    out["integrate.csv_s"] = (total_s(CSV_SPAN), "s", "per pass")
    out["integrate.csv_mb"] = (float(T[csv_rows, SIZE].sum()) * 1e-6 * per_pass, "MB",
                               "per pass")
    out["integrate.projected_rk4_us_per_step"] = (_ratio(prk4_ns, prk4_steps) * us, "us", "")
    out["integrate.projection_us"] = (med_us("integrate.project_to_manifold"), "us", "median")
    out["integrate.dp45_us_per_attempt"] = (_ratio(dp_ns, dp_attempts) * us, "us", "")
    out["integrate.dp45_accept_ratio"] = (_ratio(dp_accepts, dp_attempts), "ratio",
                                          "accepted / attempted")
    out["generalized.sk_accel_us"] = (med_us("generalized.second_kind_acceleration"), "us",
                                      "median")
    out["generalized.sk_us_per_step"] = (_ratio(sk_ns, steps2) * us, "us", "")
    out["generalized.match_us_per_sample"] = (_ratio(dur[match].sum(), match_samples) * us,
                                              "us", "")
    out["generalized.chart_evals_per_sample"] = (_ratio(chart_evals, len(inv)), "count",
                                                 "Gauss-Newton embedding calls")
    out["generalized.covariance_us"] = (med_us("generalized.covariance_residual"), "us",
                                        "median")
    for check in ("first_integral", "virtual_work", "gde", "reparametrization",
                  "covariance", "energy", "equivalence"):
        out[f"checks.{check}_s"] = (total_s(f"checks.check_{check}"), "s", "per pass")
    out["cli.overhead_ms"] = (_median(self_ns[ops]) * 1e-6, "ms",
                              "median op time outside the library calls")
    span_layer = np.array([n.split(".")[0] for n in names])[T[:, NAME]]
    for layer in LAYERS:
        mask = span_layer == layer
        out[f"{layer}.self_s"] = (float(self_ns[mask].sum()) * 1e-9 * per_pass, "s",
                                  "per pass")
    work_counts = {
        "steps": steps1 + steps2,
        "samples": samples1 + int(T[second, SIZE].sum()),
        "force_evals": counts[FORCE],
        "phi_jac_evals": counts[PHI_JAC],
        "embedding_evals": counts[EMBEDDING],
        "dp45_attempts": dp_attempts,
        "dp45_accepts": dp_accepts,
        "chart_evals": chart_evals,
    }
    for key, value in work_counts.items():
        out[f"work.{key}"] = (value * per_pass, "count", "per pass")
    return out

"""Scenario catalog and the JSON scenario-document format.

Forces, constraints and embeddings are selected from small catalogs with
analytic derivatives everywhere, so desk-scale checks never lean on the
finite-difference fallback.  A scenario document is plain JSON; parsing
validates dimensions and on-manifold initial data and reports *all*
failures at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .constraints import (
    RANK_TOL_FACTOR,
    ConstraintSet,
    _fix_signs,
    lift_holonomic,
    regular_svd,
)
from .generalized import ChartError, Embedding, GeneralizedState, pushforward_state
from .integrate import IntegratorConfig, _check_initial
from .smooth import ConfigurationMap, State
from .system import ForceField, MassMatrix, MechanicalSystem, build_point_mass_matrix

DEFAULT_CHECKS = [
    "first-integral",
    "virtual-work",
    "gde-residual",
    "reparametrization",
    "covariance",
    "energy",
]


class ScenarioError(ValueError):
    """Scenario document failed validation; carries every failure found."""

    def __init__(self, problems: List[str]):
        self.problems = list(problems)
        super().__init__("invalid scenario: " + "; ".join(self.problems))


def _text_or_bool(raw) -> bool:
    """Whether ``raw``, or an element of it in nested lists, is a str or a bool."""
    if isinstance(raw, list):
        return any(map(_text_or_bool, raw))
    return isinstance(raw, (str, bool))


def _field(doc: Dict, where: str, key: str, default=None, convert=float):
    """``doc[key]`` through ``convert``; a missing, unreadable or non-finite
    value (JSON's ``NaN``, ``Infinity``, an overflowing ``1e400`` or an
    integer beyond the float range) is a ScenarioError naming the field as
    ``where.key``.  A string or a boolean, alone or in a list, is not
    numeric, although numpy would read ``"0.001"`` and ``true`` as numbers."""
    raw = doc.get(key, default)
    if raw is None:
        raise ScenarioError([f"{where}.{key} is missing"])
    if _text_or_bool(raw):
        raise ScenarioError([f"{where}.{key} is not numeric: {raw!r}"])
    try:
        finite = bool(np.isfinite(np.asarray(raw, float)).all())
        value = convert(raw) if finite else None
    except OverflowError:
        finite = False
    except (TypeError, ValueError):
        raise ScenarioError([f"{where}.{key} is not numeric: {raw!r}"]) from None
    if not finite:
        raise ScenarioError([f"{where}.{key} is not finite: {raw!r}"])
    return value


def _integer(doc: Dict, where: str, key: str, default=None, lo: int = 0) -> int:
    """A :func:`_field` that must be an integer >= ``lo``; an integral float
    such as 3.0 counts, a fraction such as 2.5 or a boolean does not."""
    raw = doc.get(key, default)
    value = None if isinstance(raw, bool) else _field(doc, where, key, default)
    if value is None or not value.is_integer() or value < lo:
        raise ScenarioError([f"{where}.{key} must be an integer >= {lo}, got {raw!r}"])
    return int(value)


def _floats(raw) -> np.ndarray:
    return np.asarray(raw, float)


def _vector(doc: Dict, where: str, key: str, default=None) -> np.ndarray:
    """A :func:`_field` that must be a flat list of numbers."""
    value = _field(doc, where, key, default, _floats)
    if value.ndim != 1:
        raise ScenarioError([f"{where}.{key} must be a list of numbers, got {doc.get(key)!r}"])
    return value


def _section(doc: Dict, key: str, default=None) -> Optional[Dict]:
    """The object ``doc[key]``, or ``default`` when it is absent or null."""
    raw = doc.get(key)
    if raw is None:
        return default
    if not isinstance(raw, dict):
        raise ScenarioError([f"{key} must be an object, got {type(raw).__name__}"])
    return raw


def _collect(problems: List[str], section: str, build, fallback=None):
    """``build()``; on failure, record it under ``section`` and return ``fallback``."""
    try:
        return build()
    except ScenarioError as exc:
        problems.extend(exc.problems)
    except (ValueError, ChartError) as exc:
        problems.append(f"{section}: {exc}")
    return fallback


# ---------------------------------------------------------------------------
# force catalog

def _make_force(doc: Dict, mass: MassMatrix) -> ForceField:
    kind = doc.get("type", "none")
    m = mass.dim
    if kind == "none":
        return ForceField.zero(m)
    if kind == "uniform-gravity":
        g0 = _field(doc, "force", "g0")
        axis = _integer(doc, "force", "axis")
        if not 0 <= axis < m:
            raise ScenarioError([f"force.axis {axis} is out of range for m={m}"])
        e = np.zeros(m)
        e[axis] = 1.0
        w = mass.G.dot(e)  # per-coordinate weights m_i g0
        fvec = -g0 * w
        return ForceField(
            dim=m, value=lambda t, x, v: fvec, potential=lambda t, x: g0 * float(w.dot(x))
        )
    if kind == "linear-spring":
        k = _field(doc, "force", "k")
        anchor = _field(doc, "force", "anchor", np.zeros(m), _floats)
        return ForceField(
            dim=m,
            value=lambda t, x, v: -k * (x - anchor),
            potential=lambda t, x: 0.5 * k * float((x - anchor).dot(x - anchor)),
        )
    raise ScenarioError([f"unknown force type {kind!r}"])


# ---------------------------------------------------------------------------
# constraint catalog

def sphere_generator(radius: float, m: int) -> ConfigurationMap:
    r2 = radius * radius
    hess = np.eye(m).reshape(1, m, m)  # constant; callers never write to it
    return ConfigurationMap(
        dim=1,
        value=lambda t, x: np.array([0.5 * (x.dot(x) - r2)]),
        d_t=lambda t, x: np.zeros(1),
        d_x=lambda t, x: x.reshape(1, m),
        d_tt=lambda t, x: np.zeros(1),
        d_tx=lambda t, x: np.zeros((1, m)),
        d_xx=lambda t, x: hess,
    )


def rotating_line_generator(omega: float) -> ConfigurationMap:
    w = omega
    zero_xx = np.zeros((1, 2, 2))  # constant; callers never write to it

    def trig(t):
        """(sin wt, cos wt), one call each."""
        return math.sin(w * t), math.cos(w * t)

    def val(t, x):
        s, c = trig(t)
        x0, x1 = x.tolist()
        return np.array([-x0 * s + x1 * c])

    def d_t(t, x):
        s, c = trig(t)
        x0, x1 = x.tolist()
        return np.array([-w * (x0 * c + x1 * s)])

    def d_x(t, x):
        s, c = trig(t)
        return np.array([-s, c]).reshape(1, 2)

    def d_tt(t, x):
        s, c = trig(t)
        x0, x1 = x.tolist()
        return np.array([w * w * (x0 * s - x1 * c)])

    def d_tx(t, x):
        s, c = trig(t)
        return np.array([-w * c, -w * s]).reshape(1, 2)

    return ConfigurationMap(
        dim=1, value=val, d_t=d_t, d_x=d_x, d_tt=d_tt, d_tx=d_tx,
        d_xx=lambda t, x: zero_xx,
    )


def knife_edge_constraints() -> ConstraintSet:
    """phi = vx sin(theta) - vy cos(theta) on (x, y, theta); nonholonomic."""

    def A(t, x):
        th = x[2]
        return np.array([math.sin(th), -math.cos(th), 0.0]).reshape(1, 3)

    def jac_t(t, x, v):
        return np.zeros(1)

    def jac_x(t, x, v):
        th = x[2]
        return np.array([0.0, 0.0, v[0] * math.cos(th) + v[1] * math.sin(th)]).reshape(1, 3)

    return ConstraintSet.affine(
        dim=3, a=lambda t, x: np.zeros(1), A=A, jac_t=jac_t, jac_x=jac_x, n=1,
        scleronomic=True,
    )


def _make_constraints(doc: Optional[Dict], m: int) -> Optional[ConstraintSet]:
    if doc is None or doc.get("type", "none") == "none":
        return None
    kind = doc["type"]
    if kind == "sphere":
        radius = _field(doc, "constraint", "radius", 1.0)
        return lift_holonomic(sphere_generator(radius, m), m, scleronomic=True)
    if kind == "rotating-line":
        if m != 2:
            raise ScenarioError(["rotating-line constraint needs m = 2"])
        omega = _field(doc, "constraint", "omega", 1.0)
        return lift_holonomic(rotating_line_generator(omega), 2)
    if kind == "knife-edge":
        if m != 3:
            raise ScenarioError(["knife-edge constraint needs m = 3 (x, y, theta)"])
        return knife_edge_constraints()
    raise ScenarioError([f"unknown constraint type {kind!r}"])


# ---------------------------------------------------------------------------
# embedding catalog

def circle_embedding(radius: float) -> Embedding:
    R = radius

    def u(t, y):
        return np.array([R * math.sin(y[0]), R * -math.cos(y[0])])

    def u_y(t, y):
        return np.array([R * math.cos(y[0]), R * math.sin(y[0])]).reshape(2, 1)

    def u_yy(t, y):
        return np.array([R * -math.sin(y[0]), R * math.cos(y[0])]).reshape(2, 1, 1)

    return Embedding(
        dim=2,
        r=1,
        u=u,
        u_t=None,  # does not depend on t
        u_y=u_y,
        u_yy=u_yy,
    )


def sphere_polar_embedding(radius: float, pole_margin: float = 0.02) -> Embedding:
    R = radius

    def trig(y):
        """(sin th, cos th, sin ph, cos ph) at y = (th, ph), one call per angle."""
        th, ph = y.tolist()
        return math.sin(th), math.cos(th), math.sin(ph), math.cos(ph)

    # a flat list of floats, reshaped, builds these tiny arrays faster than nested lists
    def u(t, y):
        st, ct, sp, cp = trig(y)
        return np.array([R * (st * cp), R * (st * sp), R * -ct])

    def u_y(t, y):
        st, ct, sp, cp = trig(y)
        return np.array(
            [R * (ct * cp), R * (-st * sp), R * (ct * sp), R * (st * cp), R * st, 0.0]
        ).reshape(3, 2)

    def u_yy(t, y):
        st, ct, sp, cp = trig(y)
        # [p] = [[u_thth, u_thph], [u_thph, u_phph]] of coordinate p
        thth0, thth1 = R * (-st * cp), R * (-st * sp)
        thph0, thph1 = R * (-ct * sp), R * (ct * cp)
        return np.array(
            [thth0, thph0, thph0, thth0, thth1, thph1, thph1, thth1, R * ct, 0.0, 0.0, 0.0]
        ).reshape(3, 2, 2)

    return Embedding(
        dim=3,
        r=2,
        u=u,
        u_t=None,  # does not depend on t
        u_y=u_y,
        u_yy=u_yy,
        domain_lo=np.array([pole_margin, -np.inf]),
        domain_hi=np.array([np.pi - pole_margin, np.inf]),
    )


def rotating_line_embedding(omega: float) -> Embedding:
    w = omega

    def trig(t):
        """(sin wt, cos wt), one call each."""
        return math.sin(w * t), math.cos(w * t)

    def u(t, y):
        s, c = trig(t)
        return np.array([y[0] * c, y[0] * s])

    def u_t(t, y):
        s, c = trig(t)
        k = y[0] * w
        return np.array([k * -s, k * c])

    def u_y(t, y):
        s, c = trig(t)
        return np.array([c, s]).reshape(2, 1)

    def u_tt(t, y):
        s, c = trig(t)
        k = -y[0] * w * w
        return np.array([k * c, k * s])

    def u_ty(t, y):
        s, c = trig(t)
        return np.array([w * -s, w * c]).reshape(2, 1)

    return Embedding(
        dim=2, r=1, u=u, u_t=u_t, u_y=u_y, u_tt=u_tt, u_ty=u_ty,
        u_yy=lambda t, y: np.zeros((2, 1, 1)),
    )


def _make_embedding(doc: Optional[Dict]) -> Tuple:
    """(chart, y_lo, y_hi): the declared chart with the box [y_lo, y_hi] of y
    from which the property checks sample it, or three Nones for no chart."""
    if doc is None or doc.get("type", "none") == "none":
        return None, None, None
    kind = doc["type"]
    if kind == "circle":
        emb = circle_embedding(_field(doc, "embedding", "radius", 1.0))
        return emb, np.array([-np.pi]), np.array([np.pi])
    if kind == "sphere-polar":
        emb = sphere_polar_embedding(_field(doc, "embedding", "radius", 1.0))
        return emb, np.array([0.3, -np.pi]), np.array([np.pi - 0.3, np.pi])
    if kind == "rotating-line":
        emb = rotating_line_embedding(_field(doc, "embedding", "omega", 1.0))
        return emb, np.array([0.5]), np.array([2.0])
    raise ScenarioError([f"unknown embedding type {kind!r}"])


# ---------------------------------------------------------------------------
# the scenario object

SAMPLE_T_HI = 3.0  # the property checks draw t from [0, SAMPLE_T_HI)


@dataclass(frozen=True)
class Scenario:
    name: str
    system: MechanicalSystem
    constraints: Optional[ConstraintSet]
    embedding: Optional[Embedding]
    initial: State
    initial_generalized: Optional[GeneralizedState]
    integrator: IntegratorConfig
    checks: List[str]
    document: Dict = field(default_factory=dict)
    sample_y_lo: Optional[np.ndarray] = None
    sample_y_hi: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.system.dim

    @property
    def unconstrained(self) -> bool:
        return self.constraints is None

    def sample_states(self, rng: np.random.Generator, count: int):
        """(t, X, V): ``count`` random on-manifold regular states for property
        checks, with t of shape (count,) and X, V of shape (count, m).

        Every draw comes from one :func:`uniform_rows` block whose row i holds
        state i's t, then y and w on a chart, x and v without constraints, or
        x and the kernel coefficients on the affine branch: the same doubles,
        in the same order, as drawing each state in turn with
        ``rng.uniform``, and the stream ends at the same position.  A chart's
        maps are called once per state.  On the affine branch one stacked
        SVD of A(t, x) gives both the least-norm solution of A v = -a and the
        kernel basis.  The failures are tested in this order, each naming
        the earliest state that fails: a y outside the chart domain
        (ChartError), a chart declared time-independent that moves with t
        at the first state (ValueError), an A that fails the regularity rule
        (:class:`RegularityError`), a non-finite state (ValueError).
        """
        m, emb, cs = self.dim, self.embedding, self.constraints
        span_t = (0.0, SAMPLE_T_HI, 1)
        if emb is not None:
            t, Y, W = uniform_rows(
                rng, count, span_t, (self.sample_y_lo, self.sample_y_hi, emb.r), (-2.0, 2.0, emb.r)
            )
            emb.require_in_domain(t[:, 0], Y)
            emb.require_declared_time_independence(float(t[0, 0]), Y[0], f"scenario {self.name!r}")
            X = np.empty((count, m))
            V = np.empty((count, m))
            for i, ti in enumerate(t[:, 0].tolist()):
                X[i] = emb.value(ti, Y[i])
                V[i] = emb.velocity(ti, Y[i], W[i])
        elif cs is None:
            t, X, V = uniform_rows(rng, count, span_t, (-2.0, 2.0, m), (-2.0, 2.0, m))
        elif cs.affine_A is not None:
            n = cs.n
            t, X, C = uniform_rows(rng, count, span_t, (-2.0, 2.0, m), (-2.0, 2.0, m - n))
            a = np.empty((count, n))
            A = np.empty((count, n, m))
            for i, ti in enumerate(t[:, 0].tolist()):
                a[i] = np.asarray(cs.affine_a(ti, X[i]), float).reshape(n)
                A[i] = np.asarray(cs.affine_A(ti, X[i]), float).reshape(n, m)
            U, s, Vt = regular_svd(A, RANK_TOL_FACTOR, "constraint Jacobian phi_v", t[:, 0])
            # v = V1 S^-1 U^T (-a) + Xi c: the least-norm solution of A v = -a,
            # with V1 the first n rows of Vt transposed, plus a kernel combination
            P = (-a[:, None, :] @ U)[:, 0] / s
            Xi = _fix_signs(Vt[:, n:].swapaxes(1, 2))
            V = np.array([p @ Vt[i, :n] + Xi[i] @ C[i] for i, p in enumerate(P)])
        else:
            raise ValueError("cannot sample on-manifold states for a general constraint set")
        t = t[:, 0].copy()
        ok = np.isfinite(t) & np.isfinite(X).all(axis=1) & np.isfinite(V).all(axis=1)
        if not ok.all():  # the State check, stacked
            raise ValueError(f"state entries must be finite at t={float(t[np.argmin(ok)])}")
        return t, X, V


def uniform_rows(rng: np.random.Generator, count: int, *spans) -> List[np.ndarray]:
    """One (count, n) block of uniform draws per span (lo, hi, n), whose lo
    and hi are scalars or n-vectors, cut from one ``rng.random`` block in
    which row i holds the spans in turn.

    ``Generator.uniform(lo, hi, n)`` computes lo + (hi - lo) u from the same
    doubles u, so the draws equal those of calling it span by span, row by
    row, and the stream ends at the same position.
    """
    lo, hi = (
        np.concatenate([np.broadcast_to(np.asarray(span[j], float), span[2]) for span in spans])
        for j in (0, 1)
    )
    draws = lo + (hi - lo) * rng.random((count, lo.size))
    return np.split(draws, np.cumsum([span[2] for span in spans])[:-1], axis=1)


# ---------------------------------------------------------------------------
# document parsing

def _integrator_from_doc(doc: Dict) -> IntegratorConfig:
    """The config of the keys ``doc`` gives; IntegratorConfig holds the defaults."""
    given = {k: doc[k] for k in ("method", "projection") if k in doc}
    for key in ("dt", "tolerance", "projection_tol"):
        if key in doc:
            given[key] = _field(doc, "integrator", key)
    if "projection_max_iter" in doc:
        given["projection_max_iter"] = _integer(doc, "integrator", "projection_max_iter", lo=1)
    return IntegratorConfig(**given)


def _mass_from_doc(doc: Optional[Dict]) -> MassMatrix:
    if doc is None:
        raise ScenarioError(["missing 'mass'"])
    if "point_masses" in doc:
        return build_point_mass_matrix(_vector(doc, "mass", "point_masses"))
    if "matrix" in doc:
        return MassMatrix(_field(doc, "mass", "matrix", convert=_floats))
    raise ScenarioError(["'mass' needs 'point_masses' or 'matrix'"])


def _initial_from_doc(doc: Optional[Dict], m: int, emb: Optional[Embedding]):
    """(State, GeneralizedState or None) from the ``initial`` section."""
    if doc is None:
        raise ScenarioError(["missing 'initial'"])
    problems: List[str] = []
    t0 = _field(doc, "initial", "t", 0.0)
    if "y" in doc:
        if emb is None:
            raise ScenarioError(["generalized initial data given but no embedding declared"])
        y = _vector(doc, "initial", "y")
        w = _vector(doc, "initial", "w", np.zeros_like(y))
        for name, val in (("y", y), ("w", w)):
            if val.size != emb.r:
                problems.append(f"initial {name} has length {val.size}, chart has r={emb.r}")
        if problems:
            raise ScenarioError(problems)
        init_gen = GeneralizedState(t=t0, y=y, w=w)
        return pushforward_state(emb, init_gen), init_gen
    x = _vector(doc, "initial", "x", [])
    v = _vector(doc, "initial", "v", [])
    for name, val in (("x", x), ("v", v)):
        if val.size != m:
            problems.append(f"initial {name} has length {val.size}, system has m={m}")
    if problems:
        raise ScenarioError(problems)
    return State(t=t0, x=x, v=v), None


def scenario_from_document(doc: Dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError([f"scenario document must be an object, got {type(doc).__name__}"])
    problems: List[str] = []

    mass = _collect(problems, "mass", lambda: _mass_from_doc(_section(doc, "mass")))
    if mass is None:
        raise ScenarioError(problems)
    m = mass.dim

    force = _collect(
        problems, "force",
        lambda: _make_force(_section(doc, "force", {"type": "none"}), mass), ForceField.zero(m),
    )
    system = MechanicalSystem(mass=mass, force=force)
    cs = _collect(
        problems, "constraint", lambda: _make_constraints(_section(doc, "constraint"), m)
    )
    emb, y_lo, y_hi = _collect(
        problems, "embedding", lambda: _make_embedding(_section(doc, "embedding")),
        (None, None, None),
    )
    if emb is not None and emb.dim != m:
        problems.append(f"embedding ambient dimension {emb.dim} != system dimension {m}")
        emb = None
    init, init_gen = _collect(
        problems, "initial",
        lambda: _initial_from_doc(_section(doc, "initial"), m, emb), (None, None),
    )
    if init is not None:
        _collect(problems, "on-manifold check", lambda: _check_initial(cs, init))
    integ = _collect(
        problems, "integrator",
        lambda: _integrator_from_doc(_section(doc, "integrator", {})), IntegratorConfig(),
    )
    checks = doc.get("checks", DEFAULT_CHECKS)
    if not (isinstance(checks, list) and all(isinstance(c, str) for c in checks)):
        problems.append(f"checks must be a list of strings, got {checks!r}")
        checks = []
    unknown = [c for c in checks if c not in DEFAULT_CHECKS]
    if unknown:
        problems.append(f"unknown checks {unknown}; known: {', '.join(DEFAULT_CHECKS)}")

    if problems:
        raise ScenarioError(problems)

    return Scenario(
        name=doc.get("name", "unnamed"),
        system=system,
        constraints=cs,
        embedding=emb,
        initial=init,
        initial_generalized=init_gen,
        integrator=integ,
        checks=list(checks),
        document=doc,
        sample_y_lo=y_lo,
        sample_y_hi=y_hi,
    )


def parse_scenario(path) -> Scenario:
    """Load and validate a JSON scenario document from disk."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError([f"no such file: {path}"])
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"JSON parse error at line {exc.lineno}: {exc.msg}"]) from exc
    except ValueError as exc:  # bytes that are not UTF-8, an integer past the digit limit
        raise ScenarioError([f"unreadable scenario file {path}: {exc}"]) from exc
    return scenario_from_document(doc)


def write_scenario(sc: Scenario, path) -> None:
    Path(path).write_text(
        json.dumps(sc.document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# the built-in catalog

def _catalog_documents() -> Dict[str, Dict]:
    return {
        "pendulum": {
            "name": "pendulum",
            "mass": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
            "force": {"type": "uniform-gravity", "g0": 10.0, "axis": 1},
            "constraint": {"type": "sphere", "radius": 1.0},
            "embedding": {"type": "circle", "radius": 1.0},
            "initial": {"t": 0.0, "y": [0.0], "w": [2.0]},
            "integrator": {"method": "rk4-fixed", "dt": 1e-3},
            "checks": DEFAULT_CHECKS,
        },
        "spherical-pendulum": {
            "name": "spherical-pendulum",
            "mass": {"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
            "force": {"type": "uniform-gravity", "g0": 10.0, "axis": 2},
            "constraint": {"type": "sphere", "radius": 1.0},
            "embedding": {"type": "sphere-polar", "radius": 1.0},
            "initial": {"t": 0.0, "y": [1.0471975511965976, 0.0], "w": [0.0, 2.0]},
            "integrator": {"method": "rk4-fixed", "dt": 1e-3},
            "checks": DEFAULT_CHECKS,
        },
        "rotating-wire-bead": {
            "name": "rotating-wire-bead",
            "mass": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
            "force": {"type": "none"},
            "constraint": {"type": "rotating-line", "omega": 1.0},
            "embedding": {"type": "rotating-line", "omega": 1.0},
            "initial": {"t": 0.0, "y": [1.0], "w": [0.0]},
            "integrator": {"method": "rk4-fixed", "dt": 1e-3},
            "checks": DEFAULT_CHECKS,
        },
        "knife-edge": {
            "name": "knife-edge",
            "mass": {"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]},
            "force": {"type": "none"},
            "constraint": {"type": "knife-edge"},
            "initial": {
                "t": 0.0,
                "x": [0.0, 0.0, 0.3],
                "v": [0.9553364891256061, 0.29552020666133955, 0.5],
            },
            "integrator": {"method": "rk4-fixed", "dt": 1e-3},
            "checks": DEFAULT_CHECKS,
        },
    }


CATALOG_NAMES = tuple(_catalog_documents())


def catalog_scenario(name: str) -> Scenario:
    """Fully analytic built-in scenario by name."""
    docs = _catalog_documents()
    if name not in docs:
        raise ScenarioError(
            [f"unknown scenario {name!r}; available: {', '.join(sorted(docs))}"]
        )
    return scenario_from_document(docs[name])

"""Seeded scenario documents and the fixed op list of each workload.

The base documents are pinned here, not read from the engine's catalog, so
that every commit is measured on the same inputs.  Horizons, dt and the
perturbation band are constants of the benchmark; only ``--seed`` varies the
inputs, and the engine only ever sees the generated JSON documents.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

CATALOG = ("pendulum", "spherical-pendulum", "rotating-wire-bead", "knife-edge")
HOLONOMIC = CATALOG[:3]

# Half-width of the uniform perturbation applied to every initial coordinate
# (y and w of the chart scenarios; x, y, heading, speed and spin of the knife
# edge).  Every check and the equivalence bound still pass at 0.1; the band
# is kept narrower so that the accuracy metrics do not swing with the seed.
BAND = 0.005

_CHECKS = [
    "first-integral",
    "virtual-work",
    "gde-residual",
    "reparametrization",
    "covariance",
    "energy",
]
_RK4 = {"method": "rk4-fixed", "dt": 1e-3}

BASE_DOCUMENTS: Dict[str, Dict] = {
    "pendulum": {
        "name": "pendulum",
        "mass": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "force": {"type": "uniform-gravity", "g0": 10.0, "axis": 1},
        "constraint": {"type": "sphere", "radius": 1.0},
        "embedding": {"type": "circle", "radius": 1.0},
        "initial": {"t": 0.0, "y": [0.0], "w": [2.0]},
        "integrator": _RK4,
        "checks": _CHECKS,
    },
    "spherical-pendulum": {
        "name": "spherical-pendulum",
        "mass": {"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        "force": {"type": "uniform-gravity", "g0": 10.0, "axis": 2},
        "constraint": {"type": "sphere", "radius": 1.0},
        "embedding": {"type": "sphere-polar", "radius": 1.0},
        "initial": {"t": 0.0, "y": [math.pi / 3, 0.0], "w": [0.0, 2.0]},
        "integrator": _RK4,
        "checks": _CHECKS,
    },
    "rotating-wire-bead": {
        "name": "rotating-wire-bead",
        "mass": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "force": {"type": "none"},
        "constraint": {"type": "rotating-line", "omega": 1.0},
        "embedding": {"type": "rotating-line", "omega": 1.0},
        "initial": {"t": 0.0, "y": [1.0], "w": [0.0]},
        "integrator": _RK4,
        "checks": _CHECKS,
    },
    "knife-edge": {
        "name": "knife-edge",
        "mass": {"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]},
        "force": {"type": "none"},
        "constraint": {"type": "knife-edge"},
        "initial": {"t": 0.0, "x": [0.0, 0.0, 0.3], "v": [math.cos(0.3), math.sin(0.3), 0.5]},
        "integrator": _RK4,
        "checks": _CHECKS,
    },
}


def make_documents(seed: int) -> Dict[str, Dict]:
    """One perturbed document per catalog scenario; same seed, same documents."""
    rng = random.Random(seed)

    def jitter(values):
        return [float(z) + rng.uniform(-BAND, BAND) for z in values]

    docs = {}
    for name in CATALOG:
        doc = copy.deepcopy(BASE_DOCUMENTS[name])
        init = doc["initial"]
        if "y" in init:
            # chart data: the engine pushes (y, w) forward, so the perturbed
            # state lies on the constraint manifold by construction
            init["y"] = jitter(init["y"])
            init["w"] = jitter(init["w"])
        else:
            # knife edge: rebuild the velocity along the rolling direction so
            # that vx sin(theta) - vy cos(theta) = 0 still holds
            x, y, theta = jitter(init["x"])
            speed = math.hypot(init["v"][0], init["v"][1]) + rng.uniform(-BAND, BAND)
            spin = init["v"][2] + rng.uniform(-BAND, BAND)
            init["x"] = [x, y, theta]
            init["v"] = [speed * math.cos(theta), speed * math.sin(theta), spin]
        docs[name] = doc
    return docs


def write_documents(docs: Dict[str, Dict], directory: Path) -> Dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        paths[name] = path
    return paths


@dataclass(frozen=True)
class Op:
    """One ``cdyn`` subcommand on one generated document."""

    command: str
    scenario: str
    t_end: float
    flags: Tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return " ".join([self.command, self.scenario, f"t_end={self.t_end:g}", *self.flags])

    def argv(self, doc_path: Path, out_dir: Path) -> List[str]:
        return [
            self.command, str(doc_path), "--t-end", repr(self.t_end),
            *self.flags, "--out", str(out_dir),
        ]


@dataclass(frozen=True)
class Workload:
    """A fixed op list; why each one exists is in NOTES.md and BENCHMARK.json."""

    name: str
    ops: Tuple[Op, ...]
    smoke_t_end: float  # horizon of the warm-up op and of --smoke runs

    def smoke_ops(self) -> Tuple[Op, ...]:
        return tuple(replace(op, t_end=self.smoke_t_end) for op in self.ops)


_PROJECT = ("--projection", "positional+velocity")
_DP45 = ("--method", "rk45-adaptive")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="trajectory",
            ops=tuple(Op("simulate", sc, 2.0) for sc in CATALOG),
            smoke_t_end=0.05,
        ),
        Workload(
            name="property-suite",
            # 1.0 s: the rheonomic energy-change check reads the energy at
            # min(3, t_end) and needs t_end >= ~0.4 to see the reaction's work
            ops=tuple(Op("check-invariants", sc, 1.0) for sc in CATALOG),
            smoke_t_end=0.5,
        ),
        Workload(
            name="chart-equivalence",
            ops=tuple(Op("compare-embeddings", sc, 0.5) for sc in HOLONOMIC),
            smoke_t_end=0.05,
        ),
        Workload(
            name="drift-control",
            ops=tuple(
                Op("simulate", sc, 2.0, flags)
                for sc in HOLONOMIC
                for flags in (_PROJECT, _DP45, _DP45 + _PROJECT)
            ),
            smoke_t_end=0.05,
        ),
    )
}

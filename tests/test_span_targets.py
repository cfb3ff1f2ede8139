"""The benchmark's span targets name functions the engine still has.

``cdynbench/tracing.py`` rebinds every ``(module, attribute)`` of its
``SPAN_TARGETS``, and the method named by ``CSV_SPAN``, for a traced run;
a target that was renamed or deleted stops that run with an
``AttributeError``.  The targets are read from the tracer's source with
``ast``, so nothing from ``cdynbench`` is imported here.
"""

import ast
import functools
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "cdynbench" / "tracing.py"


def _constants() -> dict:
    """The module-level assignments of the tracer that the targets need."""
    out = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPAN_TARGETS", "CSV_SPAN"):
                out[name] = node.value
    return out


def _resolves(dotted: str) -> bool:
    module, *attrs = dotted.split(".")
    try:
        functools.reduce(getattr, attrs, importlib.import_module(f"constrained_dynamics.{module}"))
    except AttributeError:
        return False
    return True


def test_every_span_target_resolves():
    found = _constants()
    targets = [f"{e.elts[0].value}.{e.elts[1].value}" for e in found["SPAN_TARGETS"].elts]
    targets.append(found["CSV_SPAN"].value)
    assert targets
    assert [t for t in targets if not _resolves(t)] == []


# the CLI op that must reach each span target: a refactor that moves the
# engine's calls off a traced name leaves its metric reading 0
REACHED_BY = {
    "simulate": (
        "scenarios.parse_scenario", "integrate.integrate_first_kind", "integrate._accel_raw",
        "integrate.project_to_manifold", "integrate.Trajectory.to_csv",
    ),
    "compare-embeddings": (
        "checks.compare_embeddings_report", "checks.check_equivalence",
        "generalized.integrate_second_kind", "generalized.second_kind_acceleration",
        "generalized.match_trajectories", "generalized._chart_invert",
    ),
    "check-invariants": (
        "checks.check_scenario", "checks.check_first_integral", "checks.check_virtual_work",
        "checks.check_gde", "checks.check_reparametrization", "checks.check_covariance",
        "checks.check_energy", "generalized.covariance_residual", "reactions.invariance_report",
    ),
    # the checks never call reaction: check_virtual_work solves all its states
    # in one reactions._stacked_solve, and invariance_report solves each state
    # with the one reactions._multiplier_solver it builds
    "reactions": ("reactions.reaction",),
}
# targets that no CLI op reaches, by design
UNREACHED = {
    # check_virtual_work takes every kernel basis from one stacked SVD
    "constraints.virtual_basis",
}


def test_the_engine_reaches_every_span_target(tmp_path, monkeypatch):
    import collections
    import sys

    from constrained_dynamics import catalog_scenario, write_scenario
    from constrained_dynamics.cli import main
    from constrained_dynamics.integrate import Trajectory

    found = _constants()
    targets = [(e.elts[0].value, e.elts[1].value) for e in found["SPAN_TARGETS"].elts]
    named = {f"{m}.{a}" for m, a in targets} | {found["CSV_SPAN"].value}
    assert named == {t for ts in REACHED_BY.values() for t in ts} | UNREACHED

    # rebound as the tracer rebinds them: in every engine module that holds
    # the function by name, so calls through ``from .x import f`` count too
    calls = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    engine = [
        m for n, m in list(sys.modules.items())
        if n == "constrained_dynamics" or n.startswith("constrained_dynamics.")
    ]
    for module, attr in targets:
        original = getattr(importlib.import_module(f"constrained_dynamics.{module}"), attr)
        wrapper = counting(f"{module}.{attr}", original)
        for mod in engine:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)
    monkeypatch.setattr(Trajectory, "to_csv", counting(found["CSV_SPAN"].value, Trajectory.to_csv))

    doc = tmp_path / "pendulum.json"  # a file, so that the op parses it
    write_scenario(catalog_scenario("pendulum"), doc)
    out = ["--out", str(tmp_path / "out")]
    short = ["--t-end", "0.1", "--dt", "1e-2"]
    ops = {
        "simulate": [str(doc), *short, "--projection", "positional+velocity", *out],
        "compare-embeddings": ["pendulum", *short, *out],
        "check-invariants": ["pendulum", *short, *out],
        "reactions": ["pendulum"],
    }
    for op, argv in ops.items():
        calls.clear()
        assert main([op, *argv]) == 0
        assert [t for t in REACHED_BY[op] if calls[t] == 0] == [], op
        if op == "simulate":
            # every RK4 stage goes through the rebound name: 3 per step of
            # the 10, so that a solver bound past the tracer's rebinding
            # cannot leave integrate.accel_us reading 0
            assert calls["integrate._accel_raw"] == 3 * 10

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

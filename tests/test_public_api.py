"""The public API is what the engine ships.

A name stays in ``constrained_dynamics.__all__`` only if the package's own
code (outside its definition and ``__init__.py``), a script or README's
quick tour uses it, or it is on the short allowlist below.  A name counts
as used where the code loads it or imports it by name.
"""

import ast
from pathlib import Path

import constrained_dynamics

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "constrained_dynamics"

# public names that only the acceptance gate calls
ALLOWED = {
    # the operators that tests/test_acceptance.py holds to the theory
    "acceleration",
    "check_regularity",  # also the rank test of README's Regularity table
    "gde_residual",
    "lagrangian_derivative",
    "virtual_basis",
    "virtual_work",
    # criterion 07's kinetic decomposition
    "decompose_T",
}


def _used(source: str) -> set:
    """Every name that ``source`` loads or imports by name."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _quick_tour_code() -> list:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Quick tour", 1)[1].split("\n## ", 1)[0]
    return [block.split("```", 1)[0] for block in tour.split("```python\n")[1:]]


def _shipped_uses() -> set:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py"))
    used = set()
    for path in sources:
        used |= _used(path.read_text(encoding="utf-8"))
    for code in _quick_tour_code():
        used |= _used(code)
    return used


def test_every_public_name_is_used_or_allowed():
    public = set(constrained_dynamics.__all__)
    used = _shipped_uses()
    assert sorted(public - used - ALLOWED) == []
    # the allowlist names public names that nothing else uses, and no other
    assert ALLOWED <= public
    assert sorted(ALLOWED & used) == []
    # __all__ is what __init__.py imports, and the quick tour imports from it
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(constrained_dynamics.__all__) == sorted(imported)
    tour = set()
    for code in _quick_tour_code():
        for node in ast.walk(ast.parse(code)):
            if isinstance(node, ast.ImportFrom) and node.module == "constrained_dynamics":
                tour.update(alias.name for alias in node.names)
    assert tour and tour <= set(constrained_dynamics.__all__)

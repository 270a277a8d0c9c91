"""Module layering rules that the code itself must keep."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jqsphere"


def imported_roots(path):
    """Top-level package names that a module imports."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_sympy_stays_inside_scalars():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = [
        p.name for p in modules if p.name != "scalars.py" and "sympy" in imported_roots(p)
    ]
    assert offenders == []
    assert "sympy" in imported_roots(PACKAGE / "scalars.py")

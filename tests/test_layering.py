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


# the two sphere families (jordanian.Side) and the two factors of the
# pairing (DualPairing and its transpose T)
SIDE_NAMES = {"left", "right", "fun", "env"}

# catalog.py reads "env" and "fun" as keywords of a pairing block in a file
SIDE_SCAN_EXEMPT = {"catalog.py"}


def side_string_comparisons(path):
    """(line, source) of each ==, != or in test against a SIDE_NAMES string."""

    def is_side_literal(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_side_literal(e) for e in node.elts)
        return isinstance(node, ast.Constant) and node.value in SIDE_NAMES

    source = path.read_text()
    hits = []
    for node in ast.walk(ast.parse(source, filename=str(path))):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
            continue
        if any(is_side_literal(x) for x in [node.left, *node.comparators]):
            hits.append((node.lineno, ast.get_source_segment(source, node)))
    return hits


def test_side_scan_sees_string_branches(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        'def f(side):\n'
        '    if side == "left":\n'
        '        return 0\n'
        '    return side not in ("left", "right")\n'
        'def g(side):\n'
        '    return 1 if side == "fun" else 2\n'
    )
    assert [line for line, _ in side_string_comparisons(probe)] == [2, 4, 6]


def test_sides_are_data_not_strings():
    """jordanian.Side is the one encoding of the two sphere families and
    DualPairing.T the one encoding of the pairing's two directions: no
    module branches on the strings "left", "right", "fun" or "env"."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in SIDE_SCAN_EXEMPT]
    offenders = {p.name: hits for p in modules if (hits := side_string_comparisons(p))}
    assert offenders == {}

"""Module layering rules that the code itself must keep."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jqsphere"


def imported_roots(path):
    """Top-level package names that a module imports."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_import_scan_sees_nested_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        'import os.path\n'
        'def f():\n'
        '    from sympy.polys import ring\n'
        '    import fractions as fr\n'
        'from . import scalars\n'
    )
    assert imported_roots(probe) == {"os", "sympy", "fractions"}


def test_no_module_imports_sympy():
    """The package runs on the standard library alone: no module imports
    sympy, at the top or inside a function."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = [p.name for p in modules if "sympy" in imported_roots(p)]
    assert offenders == []


def test_the_cli_does_not_load_sympy():
    """Importing the command line front end, and through it every module
    it uses, leaves sympy unloaded; this also catches an import made
    through another package or by importlib, which the scan cannot see."""
    code = "import sys, jqsphere.cli; print('sympy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# the two sphere families (jordanian.Side) and the two factors of the
# pairing (DualPairing and its transpose T)
SIDE_NAMES = {"left", "right", "fun", "env"}

# the two Side values, which only jordanian.py may tell apart by identity
SIDE_CONSTANTS = {"LEFT", "RIGHT"}

# catalog.py reads "env" and "fun" as keywords of a pairing block in a file
SIDE_SCAN_EXEMPT = {"catalog.py"}


def side_comparisons(path):
    """(line, source) of each ==, !=, in, is or is not test against a
    SIDE_NAMES string or, outside jordanian.py, against LEFT or RIGHT."""

    def is_side_operand(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_side_operand(e) for e in node.elts)
        if isinstance(node, ast.Constant):
            return node.value in SIDE_NAMES
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        return name in SIDE_CONSTANTS and path.name != "jordanian.py"

    branching = (ast.Eq, ast.NotEq, ast.In, ast.NotIn, ast.Is, ast.IsNot)
    source = path.read_text()
    hits = []
    for node in ast.walk(ast.parse(source, filename=str(path))):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, branching) for op in node.ops):
            continue
        if any(is_side_operand(x) for x in [node.left, *node.comparators]):
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
        'def k(side):\n'
        '    return side.shift if side is RIGHT else jordanian.LEFT != side\n'
    )
    assert [line for line, _ in side_comparisons(probe)] == [2, 4, 6, 8, 8]


def test_sides_are_data_not_strings():
    """jordanian.Side is the one encoding of the two sphere families and
    DualPairing.T the one encoding of the pairing's two directions: no
    module branches on the strings "left", "right", "fun" or "env", and
    none but jordanian.py on which Side it holds."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in SIDE_SCAN_EXEMPT]
    offenders = {p.name: hits for p in modules if (hits := side_comparisons(p))}
    assert offenders == {}


def payload_uses(path):
    """(line, source) of each read of a ._v attribute and each call of
    Scalar(...) or <module>.Scalar(...)."""
    source = path.read_text()
    hits = []
    for node in ast.walk(ast.parse(source, filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "_v":
            hits.append((node.lineno, ast.get_source_segment(source, node)))
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name == "Scalar":
                hits.append((node.lineno, ast.get_source_segment(source, node)))
    return hits


def test_payload_scan_sees_reads_and_constructions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        'from jqsphere import scalars as sc\n'
        'def f(x):\n'
        '    return x._v.numer\n'
        'def g(v):\n'
        '    return sc.Scalar(v), Scalar(v)\n'
        'def k(x):\n'
        '    return isinstance(x, sc.Scalar) and x.v\n'
    )
    assert [line for line, _ in payload_uses(probe)] == [3, 5, 5]


def test_the_scalar_payload_stays_inside_scalars():
    """Only scalars.py reads a Scalar's payload or wraps one, so the
    payload invariants its arithmetic relies on (a polynomial dict with
    no zero coefficient, zero as the empty dict, a reduced fraction only
    over a non-constant denominator) have one owner."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "scalars.py"]
    offenders = {p.name: hits for p in modules if (hits := payload_uses(p))}
    assert offenders == {}
    assert payload_uses(PACKAGE / "scalars.py")


# the functions of exprparse.py that may multiply: the guard, and the
# digit limit's own power of ten, which multiplies no parsed value
MULTIPLYING = {"product", "_power_of_ten"}


def multiplications(path, allowed):
    """(line, source) of each *, ** or @ operator and each .of(...) call
    outside the functions named in allowed."""
    source = path.read_text()
    operators = (ast.Mult, ast.Pow, ast.MatMult)
    hits = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = node.name in allowed
        multiplies = (
            isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, operators)
        ) or (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "of")
        if multiplies and not inside:
            hits.append((node.lineno, ast.get_source_segment(source, node)))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source, filename=str(path)), False)
    return hits


def test_multiplication_scan_sees_operators_and_outer_products(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        'def product(a, b):\n'
        '    return a * b, a ** 2, FreePoly.of(a, b)\n'
        'def power(a, n):\n'
        '    out = a ** n\n'
        '    out *= a\n'
        '    return FreePoly.of(a, a @ out)\n'
        'SQUARE = 2 * 2\n'
    )
    assert [line for line, _ in multiplications(probe, {"product"})] == [4, 5, 6, 6, 7]


def test_parsed_values_multiply_only_in_the_guard():
    """Every product of parsed values, each '*', '@' and squaring step
    of '^', runs inside exprparse._Parser.product, after its limits are
    checked, so no input multiplies past them."""
    assert multiplications(PACKAGE / "exprparse.py", MULTIPLYING) == []
    assert multiplications(PACKAGE / "exprparse.py", set())


# the code whose uses keep a public name of the package alive; tests
# do not count, so surface that only tests reach is found and deleted
USERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")


def public_definitions(path):
    """(kind, name) of each public module-level function or class
    ("name") and each public method ("attr") that a module defines."""
    defined = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            defined.append(("name", node.name))
        if isinstance(node, ast.ClassDef):
            defined += [
                ("attr", item.name)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    return defined


def used_names(paths):
    """The names (loaded, or imported) and the attribute names that
    the modules in paths use."""
    names, attrs = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def unused_public_names(modules, users):
    """(module, name) of each public definition in modules that users
    never reach: a function or class by name, import or module
    attribute, a method as an attribute."""
    names, attrs = used_names(users)
    return [
        (path.name, name)
        for path in modules
        for kind, name in public_definitions(path)
        if name not in attrs and (kind == "attr" or name not in names)
    ]


def test_unused_name_scan_sees_functions_classes_and_methods(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        'def used(): pass\n'
        'def unused(): pass\n'
        'def _private(): pass\n'
        'class Kept:\n'
        '    def called(self): pass\n'
        '    def named(self): pass\n'
        '    def __eq__(self, other): pass\n'
    )
    user = tmp_path / "user.py"
    user.write_text('from probe import used\nKept().called()\nnamed = 1\n')
    assert unused_public_names([probe], [user]) == [("probe.py", "unused"), ("probe.py", "named")]


def test_every_public_name_has_a_user_outside_the_tests():
    """Each public function, class and method of the package is used by
    the package itself, scripts/ or perfbench/; a name that only tests
    reach is surface to delete, not to keep."""
    users = [path for root in USERS for path in sorted(root.glob("*.py"))]
    assert unused_public_names(sorted(PACKAGE.glob("*.py")), users) == []


# install perfbench's tracer over the package, then run one check that
# completes a rewrite system; prints the status, the completion and
# interreduction calls the tracer counted and the rules it saw
TRACED_CHECK = """
import sys
sys.path[:0] = sys.argv[1:]
from tracing import Tracer, install
from jqsphere import checks, jordanian
tracer = Tracer()
install(tracer)
tracer.begin_root()
cat = jordanian.build_catalog()
report = checks.run_check(cat, "pbw-funh")
duality = checks.run_check(cat, "duality-welldefined")
tracer.end_root()
calls, misses, _ = tracer.totals("pairing.pair_words")
dp = cat.pairing()
print(
    report.status,
    tracer.totals("rewrite.complete")[0],
    tracer.totals("rewrite.interreduce")[0],
    tracer.rules,
)
print(duality.status, calls, misses, len(dp._memo) + len(dp.T._memo))
"""


def test_the_benchmark_tracer_installs_over_the_package():
    """perfbench/tracing.py wraps package functions, methods and
    attributes by name, so a rename in the package breaks the benchmark's
    traced mode; this finds it in a second, where the benchmark's own
    test takes a minute.  It runs in a subprocess because install()
    rebinds the package for the rest of the process.  The pairing check
    shows that the recursion still goes through the wrapped pair_words:
    if it called a private method instead, the traced calls and misses
    would undercount it without any error."""
    out = subprocess.run(
        [sys.executable, "-c", TRACED_CHECK, str(PACKAGE.parent), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    first, second = out.stdout.splitlines()
    status, completions, interreductions, rules = first.split()
    assert status == "pass"
    assert int(completions) >= 1 and int(rules) > 0
    # complete() reaches interreduce through the module global perfbench wraps
    assert int(interreductions) >= 1
    # the recursion goes through the public pair_words, so the traced
    # misses are exactly the entries of the two word-pair memos
    status, calls, misses, memo = second.split()
    assert status == "pass"
    assert int(calls) > 0
    assert int(misses) == int(memo)

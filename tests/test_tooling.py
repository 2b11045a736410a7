"""Static checks on the source tree, written with `ast` since no linter is a
dependency: one root-acceptance rule, the root engine called only where no IK
result is built, no unused imports, no unread private definitions, no per-cell
loop over a 2-D mask, no hand-written heap search, no heavyweight
third-party module imported when the package loads or an analysis runs, one
formula for the pulled-back discriminant, one for the quartic's discriminant
and one invariant count, and Newton systems that run on the theta3 circle
with no half-angle chart."""
import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cuspidal"
CHECKED = sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _root_rule_names(tree) -> list:
    """Line numbers that name np.roots / numpy.roots or cluster_real_roots."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "roots"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "cluster_real_roots":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(a.name == "cluster_real_roots" for a in node.names):
                lines.append(node.lineno)
    return lines


def _callers(tree, name: str) -> list:
    """(innermost enclosing function or "<module>", line) of every call of
    `name`, bare or as an attribute."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == name) or (
                    isinstance(f, ast.Attribute) and f.attr == name):
                found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def _unused_imports(tree) -> list:
    """Names bound by import statements that the module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def _mask_cell_loops(tree) -> list:
    """Line numbers of `for` loops and comprehensions over zip(*np.nonzero(...)),
    which visit the cells of a mask one at a time."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.comprehension)):
            continue
        it = node.iter
        if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name) and it.func.id == "zip"
                and any(isinstance(a, ast.Starred) and isinstance(a.value, ast.Call)
                        and isinstance(a.value.func, ast.Attribute)
                        and a.value.func.attr == "nonzero"
                        and isinstance(a.value.func.value, ast.Name)
                        and a.value.func.value.id in ("np", "numpy") for a in it.args)):
            lines.append(it.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_reduction_names_the_root_rule(path):
    lines = _root_rule_names(_tree(path))
    if path.name == "reduction.py":
        assert lines
    else:
        assert lines == [], f"{path.name} names np.roots or cluster_real_roots at {lines}"


# Every IK result comes from reduction's cross-section stage, whose slot lets
# a target's solve_ik and label_solutions share one engine pass; the census
# counts (for the rows their invariants leave undecided) and the one-quartic
# API call the engine without building IK.
SOLVE_QUARTICS_CALLERS = {"_solve_cross_section", "ik_counts", "solve_quartic"}


def test_only_the_cross_section_stage_and_the_counts_call_the_root_engine():
    callers = {path.name: _callers(_tree(path), "solve_quartics")
               for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]}
    outside = {name: found for name, found in callers.items()
               if any(scope not in SOLVE_QUARTICS_CALLERS for scope, _ in found)}
    assert outside == {}
    assert {scope for scope, _ in callers["reduction.py"]} == SOLVE_QUARTICS_CALLERS


def _monomial(node):
    """(constant, sorted factor names) of a product of numbers, names and
    integer powers of names, or None for any other expression."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        left, right = _monomial(node.left), _monomial(node.right)
        if left is None or right is None:
            return None
        return left[0] * right[0], tuple(sorted(left[1] + right[1]))
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Name) and isinstance(node.right, ast.Constant)
            and isinstance(node.right.value, int)):
        return 1, (node.left.id,) * node.right.value
    if isinstance(node, ast.Name):
        return 1, (node.id,)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return node.value, ()
    return None


def _invariant_differences(tree) -> list:
    """(innermost enclosing function or "<module>", kind) of every
    difference of two monomials shaped like 4 I^3 - J^2 (kind "disc", the
    discriminant from the invariants) or 8 a c - 3 b^2 (kind "P", the sign
    that splits 4 real roots from none)."""
    found = []

    def power(names, k):
        return len(names) == k and len(set(names)) == 1

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            first, second = _monomial(node.left), _monomial(node.right)
            if first and second:
                (c1, f1), (c2, f2) = first, second
                if c1 == 4 and power(f1, 3) and c2 == 1 and power(f2, 2) and f1[0] != f2[0]:
                    found.append((scope, "disc"))
                elif c1 == 8 and len(set(f1)) == len(f1) == 2 and c2 == 3 and power(f2, 2):
                    found.append((scope, "P"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


# Delta has one formula, quartic_discriminant, which topology's D and the
# census' invariant count both call; the count by invariants lives in
# reduction, in front of the root engine that answers what it leaves open.
def test_one_discriminant_formula_and_one_invariant_count():
    found = {str(path.relative_to(ROOT)): _invariant_differences(_tree(path)) for path in CHECKED}
    found = {name: hits for name, hits in found.items() if hits}
    assert found == {"src/cuspidal/reduction.py": [("quartic_discriminant", "disc"),
                                                    ("_invariant_counts", "P")]}
    callers = {path.name: _callers(_tree(path), "_invariant_counts")
               for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]}
    assert {name: [scope for scope, _ in hits] for name, hits in callers.items() if hits} \
        == {"reduction.py": ["ik_counts"]}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_loop_over_the_cells_of_a_mask(path):
    lines = _mask_cell_loops(_tree(path))
    assert lines == [], f"{path.name} loops over zip(*np.nonzero(...)) at {lines}"


@pytest.mark.parametrize("path", [p for p in CHECKED if p != PACKAGE / "__init__.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(_tree(path)) == []


def _imported_modules(tree) -> set:
    """Absolute modules imported anywhere in the tree, function bodies included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    return found


# Graph searches run in scipy.sparse.csgraph (path queries on its Dijkstra),
# not on a heap loop in Python.
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_hand_written_heap_search(path):
    assert "heapq" not in {name.split(".")[0] for name in _imported_modules(_tree(path))}


# Every run of the package pays for what importing it loads, so a new
# module-level import is a start-up cost: `python -X importtime` puts
# scipy.ndimage alone at ~70 ms on top of the package (2-vCPU x86-64 host);
# cKDTree (scipy.spatial) is imported inside the one function that uses it,
# which no analysis calls.
MODULE_LEVEL_THIRD_PARTY = {"numpy", "scipy.sparse", "scipy.sparse.csgraph"}


def _module_level_imports(tree) -> set:
    """Absolute modules imported outside every function and class body."""
    found = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return found


def test_package_imports_only_its_light_dependencies_at_module_level():
    third_party = {name for path in PACKAGE.glob("*.py")
                   for name in _module_level_imports(_tree(path))
                   if name.split(".")[0] not in sys.stdlib_module_names}
    assert third_party == MODULE_LEVEL_THIRD_PARTY


def test_importing_the_cli_loads_no_lazy_scipy_module():
    probe = ("import sys, cuspidal.cli; "
             "print(sorted(m for m in sys.modules if m.startswith(('scipy.spatial', 'scipy.ndimage'))))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"


def test_a_full_analysis_loads_no_scipy_spatial():
    """Labels read the vertex lattice, so an analysis builds no kd-tree."""
    probe = ("import math, sys; from cuspidal import DhParams, is_cuspidal; "
             "is_cuspidal(DhParams(0, 1, 0, 1, 2, 1.5, -math.pi / 2, math.pi / 2), grid_n=128); "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"


def _private_definitions(tree) -> list:
    """(name, first line, last line) of every private module-level function
    and class and every private module-level constant in capitals."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)
                     and re.fullmatch(r"_[A-Z][A-Z0-9_]*", t.id)]
        else:
            continue
        found.extend((name, node.lineno, node.end_lineno) for name in names
                     if name.startswith("_") and not name.startswith("__"))
    return found


def _reads(tree) -> list:
    """(name, line) of every name the tree loads, bare or as an attribute."""
    return ([(n.id, n.lineno) for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
            + [(n.attr, n.lineno) for n in ast.walk(tree)
               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)])


def _unread_private_names(trees: dict) -> list:
    """(file, name) of every private definition that no tree reads outside
    the definition itself; `trees` maps file names to parsed modules."""
    reads = {path: _reads(tree) for path, tree in trees.items()}
    unread = []
    for path, tree in trees.items():
        for name, first, last in _private_definitions(tree):
            if not any(n == name and (other != path or not first <= line <= last)
                       for other, found in reads.items() for n, line in found):
                unread.append((path, name))
    return sorted(unread)


def test_no_private_definition_goes_unread():
    """No dead code: every private module-level function, class and capital
    constant of the package is read in the package or in scripts/ outside
    its own definition."""
    trees = {str(path.relative_to(ROOT)): _tree(path)
             for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]}
    assert _unread_private_names(trees) == []


def _names(tree) -> set:
    """Every name the tree binds, loads or imports, bare or as an attribute."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            | {a.asname or a.name for n in ast.walk(tree)
               if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names})


# D has one formula in the package: topology's _discriminant builds the
# conic's target terms from the F coefficients, not from the end effector.
def test_topology_computes_d_without_the_end_effector_or_the_raw_conic():
    assert _names(_tree(PACKAGE / "topology.py")) & {"fk_arrays", "conic_raw"} == set()


def _reading_scopes(tree, name: str) -> set:
    """Innermost enclosing functions (or "<module>") of every load of `name`,
    bare or as an attribute."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)) \
                and isinstance(node.ctx, ast.Load):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


# Every multiple-root system runs in theta3 on the conic restricted to the
# circle: no second copy of the conic algebra and no chart flag reaches a
# Newton system; only the residual certification picks a half-angle chart.
def test_critical_solves_on_the_circle_and_only_certification_picks_a_chart():
    tree = _tree(PACKAGE / "critical.py")
    assert _names(tree) & {"QuarticPencil", "_chart_theta3", "_FLIP"} == set()
    assert _reading_scopes(tree, "_chart_seed") == {"_residuals"}


# Cusps are seeded from the cusp locus and quadruple roots are its exact
# candidates: genericity runs no Newton, and find_cusps reads nothing of the
# traced curves, so neither depends on the grid.
def test_genericity_runs_no_newton_and_cusps_read_no_traced_curve():
    tree = _tree(PACKAGE / "critical.py")
    assert "genericity_check" not in {scope for scope, _ in _callers(tree, "_damped_newton")}
    for attr in ("speed", "vertices", "joint"):
        assert "find_cusps" not in _reading_scopes(tree, attr), attr
    assert {scope for scope, _ in _callers(tree, "cusp_seeds")} == {"find_cusps"}
    assert {scope for scope, _ in _callers(tree, "quadruple_candidates")} == {"genericity_check"}


def test_checks_see_what_they_look_for():
    tree = ast.parse("import numpy as np\nfrom a import cluster_real_roots, b\n"
                     "import os.path\nx = np.roots([1, 0])\n")
    assert _root_rule_names(tree) == [2, 4]
    assert _unused_imports(tree) == [(2, "b"), (2, "cluster_real_roots"), (3, "os")]
    tree = ast.parse("import numpy as np\nfrom . import dh\nif True:\n    import scipy.ndimage\n"
                     "def f():\n    from scipy.spatial import cKDTree\n"
                     "class C:\n    import json\n")
    assert _module_level_imports(tree) == {"numpy", "scipy.ndimage"}
    assert _imported_modules(tree) == {"numpy", "scipy.ndimage", "scipy.spatial", "json"}
    tree = ast.parse("for i, j in zip(*np.nonzero(m)):\n    pass\n"
                     "x = [i for i, j in zip(*numpy.nonzero(m))]\n"
                     "for k in np.nonzero(m)[0]:\n    pass\n"
                     "for i, j in zip(a, b):\n    pass\n")
    assert _mask_cell_loops(tree) == [1, 3]
    tree = ast.parse("solve_quartics(m)\ndef f():\n    def g():\n        r.solve_quartics(m)\n"
                     "    return solve_quartics\n")
    assert _callers(tree, "solve_quartics") == [("<module>", 1), ("g", 4)]
    assert _reading_scopes(tree, "solve_quartics") == {"<module>", "g", "f"}
    tree = ast.parse("d = (4.0 * i * i * i - j * j) / 27.0\ndef f():\n    return 4 * i ** 3 - j ** 2\n"
                     "def g():\n    return 8.0 * a * c - 3.0 * b * b, 4 * i * i - j * j, a * a - b\n")
    assert _invariant_differences(tree) == [("<module>", "disc"), ("f", "disc"), ("g", "P")]
    assert {"fk_arrays", "conic_raw", "dh"} <= _names(ast.parse(
        "from .dh import fk_arrays\nimport reduction as conic_raw\nx = dh.y\n"))
    trees = {"a.py": ast.parse("def _centers(n):\n    return _centers(n - 1)\n"
                               "def _used():\n    pass\n_LIMIT = 2\n_TOL: float = 1.0\n"
                               "_lower = 3\nclass _Box:\n    pass\n"),
             "b.py": ast.parse("from a import _used\nx = _used() + a._TOL\n")}
    assert _unread_private_names(trees) == [("a.py", "_Box"), ("a.py", "_LIMIT"),
                                            ("a.py", "_centers")]

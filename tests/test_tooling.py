"""Static checks on the source tree, written with `ast` since no linter is a
dependency: one root-acceptance rule, the root engine called only where no IK
result is built, no unused imports, no unread private definitions, no per-cell
loop over a 2-D mask, no hand-written heap search, no module of SciPy
imported when the package loads or an analysis runs (only the path search
and the kd-tree import it, on first use), one formula for the pulled-back
discriminant, one for the quartic's discriminant and one invariant count, root finding in theta3 with no half-angle chart,
no least squares or multi-unknown Newton in the package, one harmonic row
format for the trigonometric polynomials on the theta circle, PS lifted
from S with no marching squares or crossing refinement of its own, S as
closed loops with one seam rule, lattice passes with no rolled copy, 2-D
nonzero or sort, root clusters that add no float with builtin sum, no
definition of a test reference module that no test reaches, and each query
step (path audit, row norm, angle wrap, crossed-edge decoding) done once."""
import ast
import functools
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cuspidal"
CHECKED = sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


@functools.cache
def _tree(path):
    """The parsed module at path, parsed once per run; no check edits it."""
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _root_rule_names(tree) -> list:
    """Line numbers that name np.roots / numpy.roots, eigvals or _cluster."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (node.attr == "eigvals" or (
                node.attr == "roots" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))):
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in ("eigvals", "_cluster"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(a.name in ("eigvals", "_cluster") for a in node.names):
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
        assert lines == [], f"{path.name} names np.roots, eigvals or _cluster at {lines}"


# Every IK result comes from reduction's cross-section stage, whose slot lets
# a target's solve_ik and label_solutions share one engine pass; the census
# counts (for the rows their invariants leave undecided) and the one-quartic
# API call the engine without building IK.
SOLVE_CIRCLE_CALLERS = {"_solve_cross_section", "ik_counts", "solve_quartic"}


def test_only_the_cross_section_stage_and_the_counts_call_the_root_engine():
    callers = {path.name: _callers(_tree(path), "solve_circle")
               for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]}
    outside = {name: found for name, found in callers.items()
               if any(scope not in SOLVE_CIRCLE_CALLERS for scope, _ in found)}
    assert outside == {}
    assert {scope for scope, _ in callers["reduction.py"]} == SOLVE_CIRCLE_CALLERS


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
# module-level import is a start-up cost.  scipy.sparse and
# scipy.sparse.csgraph cost 180-270 ms and 30 MB of RSS on top of the
# package (SciPy 1.17, 2-vCPU x86-64 host, medians of 9 fresh interpreters):
# `import cuspidal.cli` took 290-440 ms and 62 MB with them, 110-175 ms and
# 32 MB without, of which Python and NumPy take 50-80 ms and 27 MB.  SciPy
# is imported inside the functions that use it: the path search's graph and
# Dijkstra, and cKDTree (scipy.spatial), which no analysis calls.
MODULE_LEVEL_THIRD_PARTY = {"numpy"}


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


def _scipy_import_scopes(tree) -> set:
    """Innermost enclosing functions (or "<module>") of every import from SciPy."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else [])
        if any(name.split(".")[0] == "scipy" for name in names):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_only_the_path_search_and_the_kd_tree_import_scipy():
    scopes = {(path.name, scope) for path in PACKAGE.glob("*.py")
              for scope in _scipy_import_scopes(_tree(path))}
    assert scopes == {("topology.py", "_path_graph"), ("topology.py", "find_nonsingular_path"),
                      ("geometry.py", "__init__")}


def _probe(code: str) -> str:
    """What `code` prints in a fresh interpreter that imports the package
    from src/."""
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return out.stdout.strip()


_SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_importing_the_cli_loads_no_scipy_module():
    assert _probe(f"import sys, cuspidal.cli; print({_SCIPY_LOADED})") == "[]"


def test_a_full_analysis_and_a_classify_load_no_scipy_module(tmp_path):
    """The flood fills join their row runs by the package's own union-find
    and labels read the vertex lattice, so neither is_cuspidal nor
    `cuspidal classify` (every format) loads any part of SciPy."""
    battery = ROOT / "robots" / "battery.json"
    probe = f"""
        import contextlib, io, math, sys
        from cuspidal import DhParams, cli, is_cuspidal
        is_cuspidal(DhParams(0, 1, 0, 1, 2, 1.5, -math.pi / 2, math.pi / 2), grid_n=128)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["classify", "--robot", {str(battery)!r}, "--name", "nonortho_cuspidal",
                             "--grid", "128", "--out", {str(tmp_path)!r}, "--format", "json,csv,svg"])
        print(code, {_SCIPY_LOADED})
        """
    assert _probe(probe) == "2 []"
    assert (tmp_path / "nonortho_cuspidal.report.json").is_file()


def test_a_path_query_loads_scipy_late_and_finds_its_path():
    """Maps built with no SciPy loaded; the first find_nonsingular_path
    imports SciPy's sparse graph and Dijkstra and finds criterion 10's
    posture-changing path."""
    probe = f"""
        import math, sys
        from cuspidal import (DhParams, JointConfig, build_topology, find_nonsingular_path,
                              trace_critical_points, verify_path)
        p = DhParams(0, 1, 0, 1, 2, 1.5, -math.pi / 2, math.pi / 2)
        maps = build_topology(p, trace_critical_points(p, 240), 240)
        before = {_SCIPY_LOADED}
        path = find_nonsingular_path(p, maps, JointConfig(0, -0.742, 2.628), JointConfig(0, -3.0, -0.5))
        print(before, "scipy.sparse.csgraph" in sys.modules, len(path) > 2, verify_path(p, path).valid)
        """
    assert _probe(probe) == "[] True True True"


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


def _ref_entry_points(tree) -> set:
    """(module, name) of every definition a test module takes from a
    reference module X_refs: `from X_refs import name` and `X_refs.name`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("_refs"):
            out |= {(node.module, a.name) for a in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id.endswith("_refs"):
            out.add((node.value.id, node.attr))
    return out


def _module_definitions(tree) -> dict:
    """Per module-level function, class and assigned name, the bare names
    its definition loads and does not bind itself, and the (module, name)
    pairs it takes from reference modules."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found = [n for n in ast.walk(node) if isinstance(n, ast.Name)]
        bound = ({n.id for n in found if isinstance(n.ctx, ast.Store)}
                 | {a.arg for a in ast.walk(node) if isinstance(a, ast.arg)})
        loads = {n.id for n in found if isinstance(n.ctx, ast.Load)} - bound
        defs.update((name, (loads, _ref_entry_points(node))) for name in names)
    return defs


def _unreached_references(refs: dict, tests: list) -> list:
    """(module, name) of every module-level definition of the reference
    modules `refs` (module name -> tree) that no test module of `tests`
    reaches: a test takes it by name, or a definition reached so loads it,
    in its own module or through a `from X_refs import` of another."""
    defs = {mod: _module_definitions(tree) for mod, tree in refs.items()}
    imported = {mod: {a.asname or a.name: (node.module, a.name) for node in tree.body
                      if isinstance(node, ast.ImportFrom) and node.module in refs
                      for a in node.names}
                for mod, tree in refs.items()}
    todo = [entry for tree in tests for entry in _ref_entry_points(tree)]
    seen = set()
    while todo:
        mod, name = todo.pop()
        if (mod, name) in seen or name not in defs.get(mod, {}):
            continue
        seen.add((mod, name))
        loads, taken = defs[mod][name]
        todo.extend(taken)
        todo.extend((mod, n) if n in defs[mod] else imported[mod][n]
                    for n in loads if n in defs[mod] or n in imported[mod])
    return sorted((mod, name) for mod, found in defs.items() for name in found
                  if (mod, name) not in seen)


def test_no_reference_goes_unreached():
    """No dead references: every module-level definition of tests/*_refs.py
    is reached, through the reference modules, from some tests/test_*.py."""
    refs = {path.stem: _tree(path) for path in (ROOT / "tests").glob("*_refs.py")}
    tests = [_tree(path) for path in (ROOT / "tests").glob("test_*.py")]
    assert _unreached_references(refs, tests) == []


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


# D's lattice comes from its theta2 series: topology neither imports nor
# calls the block sampler, which samples det J alone, in the trace.
def test_no_module_samples_d_at_every_lattice_point():
    assert "_sample_lattice" not in _names(_tree(PACKAGE / "topology.py"))
    callers = {path.name: [scope for scope, _ in _callers(_tree(path), "_sample_lattice")]
               for path in PACKAGE.glob("*.py")}
    assert {name: scopes for name, scopes in callers.items() if scopes} \
        == {"critical.py": ["trace_critical_points"]}


def _definition(path, name: str):
    """The function or class `name` defined in `path`."""
    return next(node for node in ast.walk(_tree(path)) if isinstance(
        node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)


# PS is the IK lift of S: no crossing refinement is left, the chain walk
# takes no mask, and marching squares and its walk run for S alone.
def test_pseudosingularities_are_lifted_not_traced():
    for path in PACKAGE.glob("*.py"):
        assert _names(_tree(path)) & {"_refine_crossings", "_CROSSING_BRACKET"} == set(), path.name
    walk = _definition(PACKAGE / "critical.py", "_chain_loops")
    assert [a.arg for a in walk.args.args] == ["nbr"] and not walk.args.kwonlyargs
    for name in ("_marching_segments", "_chain_loops"):
        callers = {(path.name, scope) for path in PACKAGE.glob("*.py")
                   for scope, _ in _callers(_tree(path), name)}
        assert callers == {("critical.py", "trace_critical_points")}, name


# S is closed loops of wrapped vertices: no curve carries a closed flag or its
# own index, one vectorized rule splits torus polylines at the seams, and
# genericity's isolated-point test reads each point's own 4 x 4 block.
def test_s_is_closed_loops_with_one_seam_rule():
    for cls, field in (("JointCurve", "closed"), ("WorkspaceCurve", "source_index")):
        fields = {node.target.id for node in _definition(PACKAGE / "critical.py", cls).body
                  if isinstance(node, ast.AnnAssign)}
        assert "vertices" in fields and field not in fields, cls
    split = _definition(PACKAGE / "geometry.py", "split_torus_polyline")
    assert [a.arg for a in split.args.args] == ["vertices"] and not split.args.kwonlyargs
    loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)
    assert not any(isinstance(node, loops) for node in ast.walk(split))
    assert [a.arg for a in _definition(PACKAGE / "topology.py", "_runs").args.args] \
        == ["points", "kept"]
    tree = _tree(PACKAGE / "critical.py")
    for name in ("_mixed_cells", "roll"):
        assert "genericity_check" not in {scope for scope, _ in _callers(tree, name)}, name


# The lattice passes read each point of the 720 x 720 lattice about once.
# Measured with NumPy 2.4.6 on a 2-vCPU host, one BLAS thread: np.roll
# copies the whole lattice (0.37 ms for float64) to compare a point with its
# neighbour, where _with_next compares two slices; a 2-D np.nonzero of a
# lattice mask takes 1.2-1.4 ms against 0.13-0.2 ms for np.flatnonzero; a
# stable argsort of 20k int64 takes 1.4-1.6 ms and np.unique(...,
# return_index=True) over ~20k runs 1.4-2.3 ms, where np.minimum.at does the
# same numbering in 34 us.
LATTICE_PASSES = {
    "critical.py": ("_with_next", "_marching_segments", "genericity_check"),
    "topology.py": ("_union_runs", "_components", "compute_aspects", "_d_series", "_discriminant_lattice",
                    "_s_band", "compute_reduced_aspects", "_path_graph",
                    "find_nonsingular_path"),
}


def test_lattice_passes_make_no_rolled_copy_and_no_sort():
    for module, functions in LATTICE_PASSES.items():
        tree = _tree(PACKAGE / module)
        for name in ("roll", "nonzero", "unique", "argsort", "sort"):
            scopes = {scope for scope, _ in _callers(tree, name)}
            assert scopes.isdisjoint(functions), (module, name, scopes & set(functions))


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


# Every multiple root is found in theta3 on the conic restricted to the
# circle: no second copy of the conic algebra and no chart flag reaches the
# root finding; only the residual certification picks a half-angle chart.
def test_critical_solves_on_the_circle_and_only_certification_picks_a_chart():
    tree = _tree(PACKAGE / "critical.py")
    assert _names(tree) & {"QuarticPencil", "_chart_theta3", "_FLIP"} == set()
    assert _reading_scopes(tree, "_chart_seed") == {"_residuals"}


# Cusps are seeded from the cusp locus and quadruple roots are its exact
# candidates: genericity runs no Newton, and find_cusps reads nothing of the
# traced curves, so neither depends on the grid.
def test_genericity_runs_no_newton_and_cusps_read_no_traced_curve():
    tree = _tree(PACKAGE / "critical.py")
    assert "genericity_check" not in {scope for scope, _ in _callers(tree, "polish_cusps")}
    for attr in ("speed", "vertices", "joint"):
        assert "find_cusps" not in _reading_scopes(tree, attr), attr
    assert {scope for scope, _ in _callers(tree, "cusp_seeds")} == {"find_cusps"}
    assert {scope for scope, _ in _callers(tree, "quadruple_candidates")} == {"genericity_check"}


def _references(trees) -> dict:
    """Per function or class name defined in the trees, the names its body
    loads, bare or as an attribute, merged over the trees that define the
    name; a nested function has an entry of its own, and a class lists its
    methods."""
    refs = {}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
            refs.setdefault(scope, set())
            if isinstance(node, ast.ClassDef):
                refs[scope] |= {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
        elif scope is not None and isinstance(node, (ast.Name, ast.Attribute)) \
                and isinstance(node.ctx, ast.Load):
            refs[scope].add(node.id if isinstance(node, ast.Name) else node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for tree in trees:
        visit(tree, None)
    return refs


def _reached(refs: dict, start: str) -> set:
    """Every name that `start` loads, or that a function or class it reaches
    by name loads in turn."""
    seen, todo = set(), [start]
    while todo:
        for name in refs.get(todo.pop(), ()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


# The cusp pillar certifies every cusp, node and quadruple root by _certify
# alone: find_cusps, find_nodes and genericity_check reach no IK root engine,
# through any function of the package, so they read no output of the oracle.
def test_the_cusp_pillar_reaches_no_ik_engine():
    refs = _references(_tree(path) for path in PACKAGE.glob("*.py"))
    for start in ("find_cusps", "find_nodes", "genericity_check"):
        assert "_certify" in _reached(refs, start), start
        assert _reached(refs, start) & {"solve_ik_batch", "solve_circle", "ik_counts"} == set(), start


# The S band is seeded from the lattice edges the trace crossed: _s_band makes
# no sign-change pass of its own and reads no det J.
def test_the_s_band_reads_the_traces_crossings():
    tree = _tree(PACKAGE / "topology.py")
    assert "_s_band" not in {scope for scope, _ in _callers(tree, "_with_next")}
    assert "_s_band" not in _reading_scopes(tree, "det_vertex")
    assert "_s_band" in _reading_scopes(tree, "crossings")


# Each step of a query runs once, in the module that owns it: the path search
# returns its path unaudited (verify_path is the audit), the IK stage reads
# each row's norm off solve_circle's RootBatch, a label wraps each angle once
# before AspectMap.nearest reads it, and the S band reads the trace's crossed
# edges through critical's one decoder.  (module, function, callee it must
# not call)
ONCE_RULES = (("topology.py", "find_nonsingular_path", "verify_path"),
              ("reduction.py", "_solve_cross_section", "_quartic_norm"),
              ("topology.py", "nearest", "wrap_angle"),
              ("topology.py", "_s_band", "divmod"))


def _broken_once_rules(trees: dict) -> list:
    """The ONCE_RULES whose function calls its callee in trees[module]."""
    return [(module, scope, callee) for module, scope, callee in ONCE_RULES
            if scope in {s for s, _ in _callers(trees[module], callee)}]


def test_each_query_step_runs_once():
    trees = {name: _tree(PACKAGE / name) for name in ("topology.py", "reduction.py")}
    assert _broken_once_rules(trees) == []
    assert {scope for scope, _ in _callers(_tree(PACKAGE / "critical.py"), "_edge_ends")} \
        == {"_crossing_points"}
    assert "_s_band" in {scope for scope, _ in _callers(trees["topology.py"], "_edge_ends")}


# Nodes are the roots of two quadratics: the branch polish serves the cusps
# alone, and neither find_nodes nor its candidates read a traced curve.
def test_nodes_run_no_newton_and_read_no_traced_curve():
    tree = _tree(PACKAGE / "critical.py")
    assert {scope for scope, _ in _callers(tree, "polish_cusps")} == {"find_cusps"}
    for attr in ("speed", "vertices", "joint"):
        assert _reading_scopes(tree, attr) & {"find_nodes", "_node_candidates"} == set(), attr
    assert {scope for scope, _ in _callers(tree, "_node_candidates")} == {"find_nodes"}


# Cusps are polished by one Newton in theta3 on the branches of the cusp
# locus: no package module solves least squares or names the 3-D damped
# Newton, the one SVD left is the cusp locus's of the constant 2 x 2 matrix
# P, and the circle harmonics and their jet live on only as test oracles.
def test_no_least_squares_or_circle_jet_in_the_package():
    for path in PACKAGE.glob("*.py"):
        tree = _tree(path)
        assert _callers(tree, "lstsq") == [], path.name
        allowed = {"_cusp_locus"} if path.name == "reduction.py" else set()
        assert {scope for scope, _ in _callers(tree, "svd")} <= allowed, path.name
        assert "_damped_newton" not in _names(tree), path.name
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert defined & {"circle_harmonics", "circle_jet"} == set(), path.name


def _float_sums(fn) -> list:
    """Lines in `fn` that call builtin sum on anything but the
    multiplicities of clusters (out[...][1], ints)."""
    lines = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
            elt = node.args[0].elt if node.args and isinstance(node.args[0], ast.GeneratorExp) \
                else None
            if not (isinstance(elt, ast.Subscript) and isinstance(elt.slice, ast.Constant)
                    and elt.slice.value == 1):
                lines.append(node.lineno)
    return lines


# Cluster means and spans add their floats left to right: builtin sum
# compensates its rounding from Python 3.12 on, so its bits would depend on
# the interpreter.  The one sum left adds integer multiplicities.
def test_root_clusters_add_no_float_with_builtin_sum():
    for name in ("_mean_angle", "_cluster"):
        assert _float_sums(_definition(PACKAGE / "reduction.py", name)) == [], name


def _complex_scopes(tree) -> set:
    """Innermost enclosing functions (or "<module>") that build or take
    apart complex numbers: an imaginary literal, the name complex, or the
    attribute real, imag, conj or an FFT."""
    attrs = {"complex128", "conj", "conjugate", "real", "imag", "fft", "rfft"}
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if ((isinstance(node, ast.Constant) and isinstance(node.value, complex))
                or (isinstance(node, ast.Name) and node.id == "complex")
                or (isinstance(node, ast.Attribute) and node.attr in attrs)):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


HAND_WRITTEN = re.compile(r"#\s*hand-written, not rows:")


def _hand_written_scopes(source: str) -> set:
    """Innermost enclosing functions (or "<module>") of the comments that
    mark a trigonometric polynomial evaluated by hand, not as rows."""
    tree = ast.parse(source)
    functions = [n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = set()
    for line, text in enumerate(source.splitlines(), 1):
        if HAND_WRITTEN.search(text):
            inner = [f for f in functions if f.lineno <= line <= f.end_lineno]
            found.add(max(inner, key=lambda f: f.lineno).name if inner else "<module>")
    return found


# The trigonometric polynomials evaluated by hand instead of as harmonic
# rows, each kept because rows change bits there, as its comment says.
HAND_WRITTEN_EXCEPTIONS = {
    "det J's A, B and C on (1, c3, s3, c3 s3, s3^2)": {("dh.py", "_theta3_terms")},
    "the cusp locus's b and r2 and their derivatives": {("reduction.py", "_locus_terms")},
    "F's affine forms u c3 + v s3 + w": {("reduction.py", "_back_substitution"),
                                         ("reduction.py", "_theta2"),
                                         ("topology.py", "_discriminant")},
}


# Every trigonometric polynomial on the theta circle is one row format with
# one set of helpers in reduction: samples become rows only in _harmonics,
# only reduction builds complex harmonics (for the companion matrix), and
# the polynomials evaluated by hand are exactly the listed exceptions.
def test_one_harmonic_row_format():
    scopes = {path.name: _complex_scopes(_tree(path)) for path in PACKAGE.glob("*.py")}
    assert {name: found for name, found in scopes.items() if found} \
        == {"reduction.py": {"_harmonics", "_circle_roots"}}
    callers = {(path.name, scope) for path in PACKAGE.glob("*.py")
               for scope, _ in _callers(_tree(path), "rfft")}
    assert callers == {("reduction.py", "_harmonics")}
    for path in PACKAGE.glob("*.py"):
        assert "_real_circle_roots" not in _names(_tree(path)), path.name
    marked = {(path.name, scope) for path in PACKAGE.glob("*.py")
              for scope in _hand_written_scopes(path.read_text(encoding="utf-8"))}
    assert marked == set().union(*HAND_WRITTEN_EXCEPTIONS.values())


def test_checks_see_what_they_look_for():
    tree = ast.parse("import numpy as np\nfrom a import _cluster, b\n"
                     "import os.path\nx = np.roots([1, 0])\ny = np.linalg.eigvals(x)\n")
    assert _root_rule_names(tree) == [2, 4, 5]
    assert _unused_imports(tree) == [(2, "_cluster"), (2, "b"), (3, "os")]
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
    tree = ast.parse("x = 1j\ndef f():\n    return a.imag\ndef g():\n    return np.fft.rfft(a)\n"
                     "def h():\n    return np.zeros(2, dtype=complex)\n"
                     "def k():\n    real = np.abs(a)\n")
    assert _complex_scopes(tree) == {"<module>", "f", "g", "h"}
    assert _hand_written_scopes("def f():\n    # hand-written, not rows: why\n    pass\n"
                                "def g():\n    # written by hand\n    pass\n"
                                "# hand-written, not rows: at module level\n") == {"f", "<module>"}
    trees = {"a.py": ast.parse("def _centers(n):\n    return _centers(n - 1)\n"
                               "def _used():\n    pass\n_LIMIT = 2\n_TOL: float = 1.0\n"
                               "_lower = 3\nclass _Box:\n    pass\n"),
             "b.py": ast.parse("from a import _used\nx = _used() + a._TOL\n")}
    assert _unread_private_names(trees) == [("a.py", "_Box"), ("a.py", "_LIMIT"),
                                            ("a.py", "_centers")]
    refs = {"a_refs": ast.parse("from b_refs import helper\nLIMIT = 2\nSTEP = LIMIT / 2\n"
                                "def used(x=STEP):\n    orphan = helper(x)\n    return orphan\n"
                                "def orphan():\n    return used()\nclass Old:\n    pass\n"),
            "b_refs": ast.parse("def helper(x):\n    return x\ndef alone():\n    pass\n")}
    tests = [ast.parse("from a_refs import used\nimport b_refs\nx = b_refs.absent\n")]
    assert _unreached_references(refs, tests) == [("a_refs", "Old"), ("a_refs", "orphan"),
                                                  ("b_refs", "alone")]
    refs = _references([ast.parse("def f():\n    return g(1) + h.k\ndef g(x):\n    return C()\n"
                                  "class C:\n    def m(self):\n        return solve()\n"
                                  "def lone():\n    return other()\n")])
    assert _reached(refs, "f") == {"g", "h", "k", "C", "m", "solve"}
    broken = {"topology.py": ast.parse(
                  "def find_nonsingular_path(p, maps, a, b):\n    return verify_path(p, a)\n"
                  "class AspectMap:\n    def nearest(self, a, b):\n        return wrap_angle(a)\n"
                  "def _s_band(curves):\n    return np.divmod(curves.crossings, 4)\n"),
              "reduction.py": ast.parse("def _solve_cross_section(p, rho, zr):\n"
                                        "    return _quartic_norm(h)\n")}
    assert _broken_once_rules(broken) == list(ONCE_RULES)
    fn = ast.parse("def f(out, members):\n    m = sum(out[(k + i) % n][1] for i in range(3))\n"
                   "    return sum(wrap_float(a) for a in members) + sum(x)\n").body[0]
    assert _float_sums(fn) == [3, 3]

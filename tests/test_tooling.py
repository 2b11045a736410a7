"""Static checks on the source tree, written with `ast` since no linter is a
dependency: one root-acceptance rule, and no unused imports."""
import ast
import pathlib

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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_reduction_names_the_root_rule(path):
    lines = _root_rule_names(_tree(path))
    if path.name == "reduction.py":
        assert lines
    else:
        assert lines == [], f"{path.name} names np.roots or cluster_real_roots at {lines}"


@pytest.mark.parametrize("path", [p for p in CHECKED if p != PACKAGE / "__init__.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(_tree(path)) == []


def test_checks_see_what_they_look_for():
    tree = ast.parse("import numpy as np\nfrom a import cluster_real_roots, b\n"
                     "import os.path\nx = np.roots([1, 0])\n")
    assert _root_rule_names(tree) == [2, 4]
    assert _unused_imports(tree) == [(2, "b"), (2, "cluster_real_roots"), (3, "os")]

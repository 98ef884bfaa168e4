"""Every name a package module imports is used in that module.

Deleting a code path easily leaves a stale ``from .module import name``
behind.  Each ``src/avgsamp/*.py`` file is parsed with ``ast``; an imported
name counts as used when it appears as a name anywhere in the module,
string annotations included.  ``__init__.py`` only re-exports, so it is
exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "avgsamp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, `from __future__` excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree] + [ast.parse(a.value, mode="eval") for ann in annotations
                      for a in ast.walk(ann)
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


def test_modules_found():
    assert {"bounds.py", "experiments.py", "reconstruction.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_detects_an_unused_import():
    tree = ast.parse("import math\nfrom .bounds import SpaceParams, c_star\n"
                     "def f(x: 'SpaceParams') -> float:\n    return math.pi\n")
    used = used_names(tree)
    assert {n for n in imported_names(tree) if n not in used} == {"c_star"}

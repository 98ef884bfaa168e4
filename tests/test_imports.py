"""Every name a package module imports is used, and no internal name is orphaned.

Deleting a code path easily leaves a stale ``from .module import name``
behind.  Each ``src/avgsamp/*.py`` file is parsed with ``ast``; an imported
name counts as used when it appears as a name anywhere in the module,
string annotations included.  ``__init__.py`` only re-exports, so it is
exempt.

It can also leave a tolerance or helper behind: a module-level private
name (``_x``) or UPPER_CASE constant counts as orphaned when no package
module loads it, by name or as an attribute.

And an expansion can come back: the package computes with every
sum_k c(k) phi(. - k) as a LatticeSpline, so no module other than
``mixed_space``, which defines the oracle ``synthesize``, may import or load
it.

And a second pseudo-inverse path can come back: ``np.linalg.svd`` is
loaded in one package function, ``reconstruction._factored_svd``, which
holds the rank rule, and ``RankDeficientError`` is constructed only in
``reconstruction.dual_family``.  Nor may a second application of the
pseudo-inverse: only ``reconstruction._apply_pinv`` divides by the
singular values ``sv``, so coefficients, dual functions and the recovery
sweep share it.  Nor may a second rank decision: only the record's
``reconstruction.Diagnostics.rank_deficient`` compares a rank with a column
count.

And a second eigenvalue root finder: ``np.linalg.eigvals`` is loaded in one
package function, ``piecewise._real_roots``, which takes closed forms for
degrees 1 and 2 and companion-matrix eigenvalues above them.
"""

import ast
import re
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


INTERNAL = re.compile(r"_(?!_)\w*|[A-Z][A-Z0-9_]*")  # _private or UPPER_CASE, not __dunder__


def internal_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private or UPPER_CASE name -> line of its definition."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        names.update({n: node.lineno for n in found if INTERNAL.fullmatch(n)})
    return names


def loaded_names(tree: ast.Module) -> set[str]:
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree)
               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)})


def orphaned(trees: dict[str, ast.Module]) -> dict[str, int]:
    loaded = set().union(*(loaded_names(t) for t in trees.values()))
    return {f"{name}:{n}": line for name, tree in trees.items()
            for n, line in internal_definitions(tree).items() if n not in loaded}


def test_no_orphaned_internal_names():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    found = orphaned(trees)
    assert not found, f"defined but never loaded: {found}"


def test_detects_an_orphaned_name():
    a = ast.parse("LOG_MAX = 709.0\nSERIES_BLOCK = 1 << 16\n_cache = {}\n"
                  "def _helper():\n    return LOG_MAX\ndef public():\n    pass\n")
    b = ast.parse("from . import a\nx = a._helper()\n")
    assert set(orphaned({"a.py": a, "b.py": b})) == {"a.py:SERIES_BLOCK", "a.py:_cache"}


def expands(tree: ast.Module) -> bool:
    """Whether the module imports synthesize, under any name, or loads it as a name or attribute."""
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    return "synthesize" in imported | loaded_names(tree)


def test_no_module_expands_a_lattice():
    found = [p.name for p in MODULES
             if p.name != "mixed_space.py" and expands(ast.parse(p.read_text(encoding="utf-8")))]
    assert not found, f"these modules expand a lattice through synthesize: {found}"


def test_detects_an_expansion():
    assert expands(ast.parse("from .mixed_space import synthesize as s\n"))
    assert expands(ast.parse("from . import mixed_space\nf = mixed_space.synthesize(phi, c)\n"))
    assert not expands(ast.parse("from .mixed_space import LatticeSpline\nf = LatticeSpline(phi, c)\n"))


def call_sites(trees: dict[str, ast.Module], matches) -> set[str]:
    """module.function of every node for which matches(node) holds; module
    level counts as the module itself, and a method as class.method."""
    found = set()

    def visit(node, where):
        if matches(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            visit(child, inner)

    for name, tree in trees.items():
        visit(tree, name.removesuffix(".py"))
    return found


def loads_svd(node) -> bool:
    """np.linalg.svd under any spelling: an attribute, a bare name or a from-import."""
    return ((isinstance(node, ast.Attribute) and node.attr == "svd")
            or (isinstance(node, ast.Name) and node.id == "svd")
            or (isinstance(node, ast.ImportFrom) and any(a.name == "svd" for a in node.names)))


def loads_eigvals(node) -> bool:
    """np.linalg.eigvals under any spelling: an attribute, a bare name or a from-import."""
    return ((isinstance(node, ast.Attribute) and node.attr == "eigvals")
            or (isinstance(node, ast.Name) and node.id == "eigvals")
            or (isinstance(node, ast.ImportFrom) and any(a.name == "eigvals" for a in node.names)))


def test_one_eigenvalue_root_finder():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert call_sites(trees, loads_eigvals) == {"piecewise._real_roots"}


def test_detects_a_second_eigenvalue_root_finder():
    tree = ast.parse("import numpy as np\nfrom numpy.linalg import eigvals\n"
                     "def a(C):\n    return np.linalg.eigvals(C)\n"
                     "class B:\n    def c(self, C):\n        return eigvals(C)\n"
                     "def d(C):\n    return np.linalg.eigvalsh(C)\n")
    assert call_sites({"m.py": tree}, loads_eigvals) == {"m", "m.a", "m.B.c"}


def raises_rank_deficient(node) -> bool:
    """A RankDeficientError constructed, by name or as an attribute."""
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "RankDeficientError")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "RankDeficientError"))


def test_one_svd_step_and_one_place_that_raises_on_rank():
    # the rank rule lives next to the only SVD; only the dual family turns it into an error
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert call_sites(trees, loads_svd) == {"reconstruction._factored_svd"}
    assert call_sites(trees, raises_rank_deficient) == {"reconstruction.dual_family"}


def test_detects_a_second_svd_step_and_a_second_raise():
    tree = ast.parse("import numpy as np\nfrom numpy.linalg import svd\n"
                     "def a(S):\n    return np.linalg.svd(S)\n"
                     "class B:\n    def c(self, S):\n        raise RankDeficientError(1, 2, S)\n"
                     "def d(S):\n    raise errors.RankDeficientError(1, 2, S)\n")
    assert call_sites({"m.py": tree}, loads_svd) == {"m", "m.a"}
    assert call_sites({"m.py": tree}, raises_rank_deficient) == {"m.B.c", "m.d"}


def divides_by_singular_values(node) -> bool:
    """A division whose divisor loads sv, the package's name for singular values:
    the diag(1 / sv) of V diag(1 / sv) U^T b."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and any(isinstance(n, ast.Name) and n.id == "sv" for n in ast.walk(node.right)))


def test_one_pseudo_inverse_application():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert call_sites(trees, divides_by_singular_values) == {"reconstruction._apply_pinv"}


def test_detects_a_second_pseudo_inverse_application():
    tree = ast.parse("def a(U, sv, Vt, b):\n    return Vt.T @ ((U.T @ b) / (sv if b.ndim == 1 else sv[:, None]))\n"
                     "class F:\n    def g(self, i):\n        return self.Vt.T @ (self.U[i] / sv)\n"
                     "def h(s, smin):\n    return s[0] / smin\n")
    assert call_sites({"m.py": tree}, divides_by_singular_values) == {"m.a", "m.F.g"}


def compares_rank_with_columns(node) -> bool:
    """A comparison with a rank on one side and a column count on another: a rank is a name
    rank or ranks or an attribute .rank, a column count a name cols or columns, an attribute
    .columns or a .shape[1] or .shape[-1]."""
    def is_rank(n):
        return ((isinstance(n, ast.Name) and n.id in ("rank", "ranks"))
                or (isinstance(n, ast.Attribute) and n.attr == "rank"))

    def is_columns(n):
        return ((isinstance(n, ast.Name) and n.id in ("cols", "columns"))
                or (isinstance(n, ast.Attribute) and n.attr == "columns")
                or (isinstance(n, ast.Subscript) and isinstance(n.value, ast.Attribute)
                    and n.value.attr == "shape" and ast.unparse(n.slice) in ("1", "-1")))

    if not isinstance(node, ast.Compare):
        return False
    sides = [list(ast.walk(side)) for side in [node.left, *node.comparators]]
    return any(any(map(is_rank, a)) and any(map(is_columns, b))
               for i, a in enumerate(sides) for j, b in enumerate(sides) if i != j)


def test_one_rank_decision():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert call_sites(trees, compares_rank_with_columns) == {"reconstruction.Diagnostics.rank_deficient"}


def test_detects_a_second_rank_decision():
    tree = ast.parse("def a(S, rank):\n    return rank < S.shape[1]\n"
                     "def b(ranks, cols, t):\n    return cols > ranks[t]\n"
                     "class D:\n    def c(self):\n        return self.rank == self.columns\n"
                     "def d(S, rank, sv):\n    return rank < S.shape[0] or len(sv) >= S.shape[-1]\n")
    assert call_sites({"m.py": tree}, compares_rank_with_columns) == {"m.a", "m.b", "m.D.c"}

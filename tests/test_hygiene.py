"""Static checks over src/hyperdisc: no unused import, no unreferenced def.

A top-level def counts as referenced when its own module names it, or when
any file under src/, tests/ or hdbench/ imports it by name or reads it as an
attribute.  Local variables elsewhere that happen to share its name do not
count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hyperdisc"

# Imports kept only because hdbench reads these module bindings.
KEPT_IMPORTS = {("solver", "char_poly_exact"), ("mixedchar", "real_roots")}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_or_attribute(tree: ast.AST) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
    return used


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def _scoped_imports(scope: ast.AST, node: ast.AST):
    """(scope, import) pairs; the scope is the innermost function or the module."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield scope, child
        else:
            inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            yield from _scoped_imports(inner, child)


def test_no_unused_imports():
    unused = []
    for path in _modules():
        tree = _parse(path)
        for scope, node in _scoped_imports(tree, tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            loaded = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in loaded and (path.stem, bound) not in KEPT_IMPORTS:
                    unused.append(f"{path.stem}.{bound}")
    assert unused == []


def test_every_top_level_def_is_referenced():
    files = [p for d in ("src", "tests", "hdbench") for p in (ROOT / d).rglob("*.py")]
    used = set()
    for path in files:
        used |= _imported_or_attribute(_parse(path))
    unreferenced = []
    for path in _modules():
        tree = _parse(path)
        named_here = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in used | named_here):
                unreferenced.append(f"{path.stem}.{node.name}")
    assert unreferenced == []

"""Static checks over src/hyperdisc: no unused import, no unreferenced def,
no def or class member that only tests reach unless it is a reference
route, and no float tolerance outside the table in scalars.py.

A top-level def counts as referenced when its own module names it, or when
any file under src/, tests/ or hdbench/ imports it by name or reads it as an
attribute.  Local variables elsewhere that happen to share its name do not
count.

A top-level def is reached when the program can get to it without the
tests: from module-level code in src/ (the CLI's entry point among it), from
hdbench/, or from the body of a def that is itself reached.  Names are
matched without their module, so a shared name can only make a def look
reached, never unreached.

A class member (a method, a property or a dataclass field) is read when
src/ reads it as an attribute or hdbench/ names it; the members of a
reference-route class are exempt with it.  Names are matched without their
class, so a member whose name anything else shares passes unflagged:
hdbench's args.trace would hide a Spectrum.trace, and every other .n
attribute an IsotropicFamily.n.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hyperdisc"

# Imports kept only because hdbench reads these module bindings.
KEPT_IMPORTS = {("solver", "char_poly_exact"), ("mixedchar", "real_roots")}

# The only defs allowed in src/ that no command reaches: each is the slow
# reference a test compares the named shipping route against.
REFERENCE_ROUTES = {
    "hyperbolic.rank1_product_derivative": "hyperbolic.mixed_derivative_table",
    "barrier.kls_square_zpoly": "barrier.phi and P one point at a time (the tests' _polynomial_value)",
    "mixedchar.linear_restriction_multipoly": "barrier.phi and the tests' _polynomial_value, via kls_square_zpoly",
    "realstable.one_minus_c_d2": "the operator update that barrier's update_condition step bounds",
    "hyperbolic.cone_membership": "mixedchar.KlsTable.build's exact cone test",
    "hyperbolic.ConeVerdict": "mixedchar.KlsTable.build's exact cone test, via cone_membership",
}

# A float literal this small is a tolerance; it belongs in the scalars.py table.
TOLERANCE_CEILING = 1e-4


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


def _read_names(node: ast.AST) -> set:
    """Names a piece of code reads: bare names, attributes and imported names."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | _imported_or_attribute(node)


def _unreached_defs() -> set:
    bodies = {}  # def name -> names its body reads, over every module defining it
    owners = {}  # def name -> "module.name" entries
    roots = set()
    for path in _modules():
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, set()).update(_read_names(node))
                owners.setdefault(node.name, set()).add(f"{path.stem}.{node.name}")
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _read_names(node)
    for path in (ROOT / "hdbench").rglob("*.py"):
        tree = _parse(path)
        # The tracer binds what it wraps by attribute name, given as a string.
        roots |= _read_names(tree) | {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
                                      and isinstance(n.value, str) and n.value.isidentifier()}
    reached = set()
    todo = [name for name in roots if name in bodies]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(n for n in bodies[name] if n in bodies and n not in reached)
    return {q for name, qs in owners.items() if name not in reached for q in qs}


def test_only_reference_routes_are_unreached():
    unreached = _unreached_defs()
    assert sorted(unreached - set(REFERENCE_ROUTES)) == []
    # Each allowed def is still unreached and still compared against by a test.
    assert sorted(set(REFERENCE_ROUTES) - unreached) == []
    tested = set()
    for path in (ROOT / "tests").glob("test_*.py"):
        tested |= _imported_or_attribute(_parse(path))
    assert sorted(q for q in REFERENCE_ROUTES if q.split(".")[1] not in tested) == []


def _members(node: ast.ClassDef) -> list:
    """The methods and properties a class defines, dunders aside, and its
    fields if it is a dataclass."""
    out = [n.name for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
           and not (n.name.startswith("__") and n.name.endswith("__"))]
    decorators = {getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                  for d in node.decorator_list}
    if "dataclass" in decorators:
        out += [n.target.id for n in node.body
                if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    return out


def test_every_class_member_is_read_outside_the_tests():
    read = set()
    for path in _modules():
        read |= {n.attr for n in ast.walk(_parse(path))
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    for path in (ROOT / "hdbench").rglob("*.py"):
        read |= _identifiers(_parse(path))
    unread = []
    for path in _modules():
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef) and f"{path.stem}.{node.name}" not in REFERENCE_ROUTES:
                unread += [f"{path.stem}.{node.name}.{name}" for name in _members(node)
                           if name not in read]
    assert unread == []


def _tolerance_table() -> set:
    """Names bound at the top of scalars.py to a float literal."""
    return {target.id for node in _parse(PACKAGE / "scalars.py").body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, float)
            for target in node.targets}


def test_no_tolerance_literal_outside_the_table():
    found = []
    for path in _modules():
        if path.name == "scalars.py":
            continue
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0 < abs(node.value) < TOLERANCE_CEILING):
                found.append(f"{path.stem}:{node.lineno}: {node.value!r}")
    assert found == []


def test_every_tolerance_is_read_elsewhere():
    table = _tolerance_table()
    assert table
    read = set()
    for path in _modules():
        if path.name != "scalars.py":
            read |= _read_names(_parse(path))
    assert sorted(table - read) == []


def _identifiers(tree: ast.AST) -> set:
    """Every identifier a module names: bare names, parameters, attributes,
    defs, imports, and string constants that are identifiers (``__slots__``
    entries, dataclass field names)."""
    out = _read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.alias) and node.asname:
            out.add(node.asname)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.add(node.value)
    return out


def test_the_backend_label_lives_in_serialize_alone():
    # A coefficient's own type is its arithmetic (Fraction exact, float
    # binary64); "backend" is only the instance file's field, so no field,
    # attribute or parameter outside serialize.py carries it, and the
    # helpers that carried it beside every value stay deleted.
    found = []
    for path in _modules():
        names = _identifiers(_parse(path))
        if path.name != "serialize.py":
            found += [f"{path.stem}.{n}" for n in sorted(names & {"backend", "RATIONAL", "FLOAT"})]
        found += [f"{path.stem}.{n}" for n in sorted(names & {"coerce", "infer_backend",
                                                                "join_backend"})]
    assert found == []


def test_no_kind_comparison_outside_serialize():
    # An instance's class is its kind: serialize.py maps a file's "kind"
    # field to a class, and everywhere else dispatches by method or
    # isinstance, never by comparing .kind.  args.kind, the gen and bench
    # --kind option, names what to generate, not an instance.
    found = []
    for path in _modules():
        if path.name == "serialize.py":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Compare):
                found += [f"{path.stem}:{node.lineno}" for o in (node.left, *node.comparators)
                          if isinstance(o, ast.Attribute) and o.attr == "kind"
                          and not (isinstance(o.value, ast.Name) and o.value.id == "args")]
    assert found == []


def test_det_t_i_plus_a_is_expanded_in_one_place():
    # Over floats, det(tI + A) is multiplied out from the eigenvalues in
    # DeterminantInstance.restrict_e_rows alone; numpy's poly would be a
    # second copy of that expansion.
    found = []
    for path in _modules():
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Attribute) and node.attr == "poly"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append(f"{path.stem}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
                  and any(alias.name == "poly" for alias in node.names)):
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []

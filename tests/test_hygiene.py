"""Static checks over src/hyperdisc: no unused import, no unreferenced def,
no def or class member that only tests reach, and no float tolerance
outside the table in scalars.py.  The slow references the tests compare
the shipping routes against live in tests/, so src/ holds only what a
command reaches.

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
src/ reads it as an attribute or hdbench/ names it.  A read is matched to
its class when its receiver shows the class: self (or cls) in a method, a
class name (module.Class too), or a parameter annotated with a src/ class.
An instance receiver stands for the class, its src/ bases and its src/
subclasses; a class receiver for the class and its bases.  hdbench's
tracer names a method as a string beside its class, and that pair is
matched the same way.  Any other read counts for every class defining the
name, so a shared name can still hide a member: every .n attribute whose
receiver is unknown would hide an IsotropicFamily.n.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hyperdisc"

# Imports kept only because hdbench reads these module bindings.
KEPT_IMPORTS = {("solver", "char_poly_exact"), ("mixedchar", "real_roots")}

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


def test_every_def_is_reached():
    assert sorted(_unreached_defs()) == []


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


def _class_named(node, classes):
    """The src/ class a node names: Class, module.Class or "Class"; else None."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant):
        name = node.value
    else:
        return None
    return name if isinstance(name, str) and name in classes else None


def _member_reads(tree: ast.AST, classes: dict) -> tuple:
    """(typed, untyped) attribute reads: (receiver kind, class, member) for
    each receiver that shows its class, "instance" for self, cls and
    annotated parameters, "class" for a class name; the bare member name of
    every other read."""
    typed, untyped = set(), set()

    def visit(node, env, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, env, child.name if child.name in classes else None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = child.args.posonlyargs + child.args.args + child.args.kwonlyargs
                inner = {k: v for k, v in env.items() if k not in {a.arg for a in args}}
                inner.update((a.arg, _class_named(a.annotation, classes)) for a in args
                             if _class_named(a.annotation, classes))
                if owner and args and not isinstance(child, ast.Lambda) and not any(
                        getattr(d, "id", None) == "staticmethod" for d in child.decorator_list):
                    inner[args[0].arg] = owner
                visit(child, inner, None)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                receiver = child.value
                if isinstance(receiver, ast.Name) and receiver.id in env:
                    typed.add(("instance", env[receiver.id], child.attr))
                elif _class_named(receiver, classes):
                    typed.add(("class", _class_named(receiver, classes), child.attr))
                else:
                    untyped.add(child.attr)
            visit(child, env, owner)

    visit(tree, {}, None)
    return typed, untyped


def _traced_methods(tree: ast.AST, classes: dict) -> set:
    """("class", class, name) for each identifier string in a tuple that also
    names a src/ class: hdbench's tracer wraps a method given by name beside
    its class."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple):
            names = {e.value for e in node.elts if isinstance(e, ast.Constant)
                     and isinstance(e.value, str) and e.value.isidentifier()}
            owners = {_class_named(e, classes) for e in node.elts
                      if not isinstance(e, ast.Constant)} - {None}
            out |= {("class", owner, name) for owner in owners for name in names}
    return out


def test_every_class_member_is_read_outside_the_tests():
    classes = {}  # class name -> (module, ClassDef)
    for path in _modules():
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef):
                assert node.name not in classes, node.name
                classes[node.name] = (path.stem, node)
    bases = {name: {_class_named(b, classes) for b in node.bases} - {None}
             for name, (_, node) in classes.items()}

    def above(c):
        return {c}.union(*map(above, bases[c]))

    up = {c: above(c) for c in classes}  # class -> itself and its src/ bases
    lineage = {"class": up,
               "instance": {c: up[c] | {d for d in classes if c in up[d]} for c in classes}}
    typed, untyped = set(), set()
    for path in _modules():
        t, u = _member_reads(_parse(path), classes)
        typed, untyped = typed | t, untyped | u
    for path in (ROOT / "hdbench").rglob("*.py"):
        tree = _parse(path)
        t, u = _member_reads(tree, classes)
        traced = _traced_methods(tree, classes)
        typed |= t | traced
        untyped |= u | (_identifiers(tree, attributes=False) - {name for _, _, name in traced})
    read = {(c, name) for kind, owner, name in typed for c in lineage[kind][owner]}
    unread = [f"{module}.{name}.{member}" for name, (module, node) in classes.items()
              for member in _members(node)
              if member not in untyped and (name, member) not in read]
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


def _identifiers(tree: ast.AST, attributes: bool = True) -> set:
    """Every identifier a module names: bare names, parameters, attributes
    (unless attributes is false), defs, imports, and string constants that
    are identifiers (``__slots__`` entries, dataclass field names)."""
    out = _read_names(tree) if attributes else (
        {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        | {a.name.split(".")[-1] for a in ast.walk(tree) if isinstance(a, ast.alias)})
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

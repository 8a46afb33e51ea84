"""The residue moduli are decided in one module: outside `sieve.py` no source
names `CRT_MODULUS`, `CRT_FACTORS`, `power_table`, the power moduli past the
CRT factors, the point search's row primes and sextic table builder, or the
cover grid's table builder and its modulus cap; callers go through
`maybe_power`, `ClassRows` and the box kernel `BoxRows`, as `SquareRows` and
`TernaryRows`."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "apforge").glob("*.py"))
PRIVATE = {"CRT_MODULUS", "CRT_FACTORS", "_POWER_PRIMES", "_POWER_MODULI", "power_table",
           "form_square_tables", "_form_square_table", "_ROW_PRIMES", "_ternary_power_table",
           "_TERNARY_CAP"}


def test_modulus_names_stay_in_sieve():
    found = []
    for path in SOURCES:
        if path.name == "sieve.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in PRIVATE:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}: {name}")
    assert SOURCES and not found, "\n".join(found)


# Euclid lives in exactmath: `poly_xgcd` and `uni_resultant` run the remainder
# sequence.  Outside exactmath.py, `poly_divmod` is called only here:
DIVMOD_USERS = {
    # one reduction modulo the minimal polynomial, the remainder only
    ("numfield.py", "NumberField.reduce"),
    # the Sturm chain keeps negated remainders, whose signs are the result
    ("points.py", "_sturm_real_root_count"),
}


def _names_by_scope(node, scope=()):
    """(qualified name of the enclosing def or class, identifier) for every
    Name and Attribute below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _names_by_scope(child, scope + (child.name,))
            continue
        if isinstance(child, (ast.Name, ast.Attribute)):
            yield ".".join(scope), child.id if isinstance(child, ast.Name) else child.attr
        yield from _names_by_scope(child, scope)


def test_poly_divmod_stays_behind_exactmath():
    found = set()
    for path in SOURCES:
        if path.name == "exactmath.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.name, scope) for scope, name in _names_by_scope(tree)
                  if name == "poly_divmod"}
    assert found == DIVMOD_USERS, sorted(found ^ DIVMOD_USERS)


# Corpus data becomes algebra objects at load: outside `corpus.py` and the
# module that defines it, no source calls a field or curve constructor, and
# none defines `build_curve`.
BUILT_IN = {"field_by_name": "numfield.py", "FieldElem": "numfield.py",
            "HyperCurve": "curves.py", "EllipticModel": "curves.py",
            "SuperellipticForm": "curves.py"}


def test_corpus_values_are_built_at_load():
    found = []
    for path in SOURCES:
        if path.name == "corpus.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                if name in BUILT_IN and path.name != BUILT_IN[name]:
                    found.append(f"{path.name}:{node.lineno}: calls {name}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name == "build_curve":
                found.append(f"{path.name}:{node.lineno}: defines build_curve")
    assert SOURCES and not found, "\n".join(found)


# No dead helpers: every private module-level function, class or constant is
# read somewhere in the package outside its own definition.
def _private_definitions(tree):
    """(name, first line, last line) for each private module-level def,
    class or assigned name; dunders are not private helpers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def test_private_helpers_are_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    uses = {}  # identifier -> [(file, line)] of every Name or Attribute
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((fname, node.lineno))
    defined, unused = 0, []
    for fname, tree in trees.items():
        for name, first, last in _private_definitions(tree):
            defined += 1
            if not any(f != fname or not first <= line <= last
                       for f, line in uses.get(name, ())):
                unused.append(f"{fname}:{first}: {name}")
    assert defined >= 100 and not unused, "\n".join(unused)


# Modules talk through public names: no source imports another apforge
# module's underscore name (`from .curves import _disc`) or reads one off an
# imported module (`curves._disc`).
def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_private_names_across_modules():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # names this file binds to apforge modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "apforge"
                                                     or node.module.startswith("apforge.")):
                for alias in node.names:
                    if _is_private(alias.name):
                        found.append(f"{path.name}:{node.lineno}: imports {alias.name}")
                    if node.module in (None, "apforge"):  # `from . import curves`
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and _is_private(node.attr)):
                found.append(f"{path.name}:{node.lineno}: reads {node.value.id}.{node.attr}")
    assert SOURCES and not found, "\n".join(found)

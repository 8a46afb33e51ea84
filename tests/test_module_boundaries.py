"""The residue moduli are decided in one module: outside `sieve.py` no source
names `CRT_MODULUS`, `CRT_FACTORS`, `power_table`, the power moduli past the
CRT factors and their grouping in `ClassRows`, the point search's row primes,
or the box tables' builder and its modulus cap; callers go through `ClassRows`
and the box search `BoxRows`, as `SquareRows`, `TernaryRows` and
`CubeSumRows`.  The tests' reference rule `maybe_power` (tests/power_rule.py)
reads the tables directly, as a test may."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "apforge").glob("*.py"))
PRIVATE = {"CRT_MODULUS", "CRT_FACTORS", "_POWER_PRIMES", "_POWER_MODULI", "_CLASS_GROUPS",
           "power_table", "form_square_tables", "_ROW_PRIMES", "_form_table", "_TABLE_CAP"}


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
            "HyperCurve": "curves.py", "SuperellipticForm": "curves.py"}


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


# No dead helpers: every private module-level function, class or constant,
# every public module-level function or class, and every public method or
# property of a package class (dunders and record fields aside) is read
# somewhere in the package outside its own definition.  A helper only the
# tests call lives under tests/, as `param_eval` in tests/param_rule.py.
def _definitions(tree):
    """(name, first line, last line, whether a def or class) for each
    module-level def, class or assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names, is_def = [node.name], True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names, is_def = [t.id for t in targets if isinstance(t, ast.Name)], False
        else:
            continue
        for name in names:
            yield name, node.lineno, node.end_lineno, is_def


def _methods(tree):
    """(name, first line, last line, True) for each method or property
    defined in the body of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item.lineno, item.end_lineno, True


def _unread(wanted, definitions=_definitions):
    """(how many definitions wanted(name, is_def) picks, the ones among
    them that no source reads outside their own definition)."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    uses = {}  # identifier -> [(file, line)] of every Name or Attribute
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((fname, node.lineno))
    defined, unused = 0, []
    for fname, tree in trees.items():
        for name, first, last, is_def in definitions(tree):
            if not wanted(name, is_def):
                continue
            defined += 1
            if not any(f != fname or not first <= line <= last
                       for f, line in uses.get(name, ())):
                unused.append(f"{fname}:{first}: {name}")
    return defined, unused


def test_private_helpers_are_used():
    # dunders are not private helpers
    defined, unused = _unread(lambda name, is_def: _is_private(name))
    assert defined >= 100 and not unused, "\n".join(unused)


def test_public_functions_and_classes_are_used():
    defined, unused = _unread(lambda name, is_def: is_def and not name.startswith("_"))
    assert defined >= 80 and not unused, "\n".join(unused)


def test_public_methods_and_properties_are_used():
    defined, unused = _unread(lambda name, is_def: not name.startswith("_"), _methods)
    assert defined >= 30 and not unused, "\n".join(unused)


# One cell budget: `sieve.BLOCK_CELLS` sizes every numpy block of the package
# and sits beside the kernels' row floor and word caps, so a block is retuned
# in one place; other modules import it.
def test_block_sizes_stay_in_sieve():
    found = [f"{path.name}:{first}: {name}" for path in SOURCES if path.name != "sieve.py"
             for name, first, _, is_def in _definitions(ast.parse(path.read_text(encoding="utf-8")))
             if not is_def and ("BLOCK" in name or "FLUSH" in name)]
    assert SOURCES and not found, "\n".join(found)


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


# The p-adic layer sits below every module that asks p-adic questions
# (`numfield`, `points`, and the descents to come): it imports no apforge
# module but `exactmath`, so none of them can close an import cycle through it.
def test_padic_imports_only_exactmath():
    tree = ast.parse((SOURCES[0].parent / "padic.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("apforge")):
            module = (node.module or "").removeprefix("apforge").lstrip(".")
            imported |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name.removeprefix("apforge.") for alias in node.names
                         if alias.name.startswith("apforge")}
    assert imported == {"exactmath"}, sorted(imported)


# The collector runs as the interpreter schedules it: no source turns it off
# or on or runs it, and only the process entry `cli.run` freezes the start-up
# heap (tests and perfbench/traced.py call `cli.main`, which never freezes).
GC_CALLS = {("cli.py", "run", "freeze")}


def test_only_the_process_entry_touches_the_collector():
    found = {(path.name, scope, name) for path in SOURCES
             for scope, name in _names_by_scope(ast.parse(path.read_text(encoding="utf-8")))
             if name in ("disable", "enable", "collect", "freeze", "unfreeze")}
    assert found == GC_CALLS


# Records are NamedTuples or small plain classes: no source imports
# `dataclasses`, whose decorator generates and execs each record's methods
# at every import.
def test_no_source_imports_dataclasses():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}: imports {name}" for name in names
                      if name and name.split(".")[0] == "dataclasses"]
    assert SOURCES and not found, "\n".join(found)

"""The residue modulus is decided in one module: outside `sieve.py` no source
names `CRT_MODULUS` or `power_table`; callers go through `maybe_power` and
`combo_mask`."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "apforge").glob("*.py"))
PRIVATE = {"CRT_MODULUS", "power_table"}


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

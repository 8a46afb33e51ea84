"""The package computes exactly: no float or complex value enters its code."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "apforge").glob("*.py"))


def test_no_float_or_complex_in_package():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("float", "complex")):
                found.append(f"{path.name}:{node.lineno}: call {node.func.id}()")
    assert SOURCES and not found, "\n".join(found)

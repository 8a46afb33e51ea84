"""The package computes exactly: no float or complex value enters its code.

Besides literals, the check rejects the names `float` and `complex` in any
use (a call, `dtype=float`, an annotation) and the numpy attributes that
make or need floats: np.float*, np.complex*, np.double, np.sqrt, np.log*
and np.linalg.  A float64 array would route a matrix product through BLAS,
which is exact only below 2^53; the int64 kernels rely on exact products up
to 2^62.
"""

import ast
import re
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "apforge").glob("*.py"))
NUMPY = ("np", "numpy")
FLOAT_ATTR = re.compile(r"(float|complex)\w*|double|sqrt|linalg|log(2|10|1p|addexp2?)?")


def float_uses(tree):
    """(line, description) of every float or complex use in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            yield node.lineno, f"name {node.id}"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in NUMPY and FLOAT_ATTR.fullmatch(node.attr)):
            yield node.lineno, f"attribute {node.value.id}.{node.attr}"


def test_no_float_or_complex_in_package():
    found = [f"{path.name}:{line}: {what}" for path in SOURCES
             for line, what in float_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert SOURCES and not found, "\n".join(found)


def test_float_uses_are_flagged():
    flagged = ["x = 0.5", "y = 2j", "z = float(n)", "a = np.zeros(3, dtype=float)",
               "isinstance(v, complex)", "b = np.float64(1)", "c = np.complex128(1)",
               "d = np.double(1)", "e = np.sqrt(a)", "f = np.log2(a)", "g = numpy.log(a)",
               "h = np.linalg.det(m)", "i = a.astype(np.floating)"]
    for source in flagged:
        assert list(float_uses(ast.parse(source))), source
    exact = ["a = np.zeros(3, dtype=np.int64)", "b = np.logical_and(x, y)",
             "c = math.isqrt(n)", "d = np.count_nonzero(x)", "e = x.sqrt"]
    for source in exact:
        assert not list(float_uses(ast.parse(source))), source

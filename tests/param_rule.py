"""The reference evaluation of a family branch at one point, which the tests
hold the vectorised cover check and the pinned examples to.

`param_eval` evaluates a branch's integer forms (`Branch.int_forms`) with
`exactmath.form_value` on Python ints, one (x, y) at a time, and refuses a
point outside the family's integrality domain."""

from apforge.exactmath import form_value
from apforge.parametrize import ParamFamily, TernarySolution


class IntegralityViolation(Exception):
    """Parameter parity outside the family's integrality domain."""


def param_eval(family: ParamFamily, branch: int, sign_a: int, sign_b: int,
               x: int, y: int) -> TernarySolution:
    """Evaluate one branch at integer (x, y) with independent signs on a, b.

    The sign of c is fixed by the identity (odd power) or by the positive
    definite c-form (even power).
    """
    if sign_a not in (1, -1) or sign_b not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    br = family.branches[branch]
    if family.parity_rule == "x=y mod 2" and (x - y) % 2 != 0:
        raise IntegralityViolation(
            f"family {family.id} needs x = y (mod 2); got ({x}, {y})")
    values = []
    for coeffs, den in br.int_forms:
        num = form_value(coeffs, x, y)
        if num % den:
            raise IntegralityViolation(
                f"family {family.id} produced a non-integer at ({x}, {y})")
        values.append(num // den)
    a, b, c = values
    return TernarySolution(a * sign_a, b * sign_b, c)

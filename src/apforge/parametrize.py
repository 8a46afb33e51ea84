"""Parametrization families for the ternary equations cA*a^2 + cB*b^2 = M*c^k.

Eight families are carried as corpus data: five cubic ones (k = 3, the a/b
forms are binary cubics) and three quadratic ones (k = 2).  Each family's
defining identity is verified symbolically, and bounded completeness is
checked against a brute-force enumeration oracle.

The half-integral family (a = +/-(x^2-3y^2)/2, b = +/-xy) only yields
integers when x and y are both odd; primitive solutions with odd c are
instead reached by the doubled forms (x^2-3y^2, 2xy, x^2+3y^2) over mixed
parity (x, y).  The cover check matches those separately and reports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exactmath import BinaryForm, form_eval, form_exact_root, int_kth_root


class IntegralityViolation(Exception):
    """Parameter parity outside the family's integrality domain."""


@dataclass(frozen=True)
class Branch:
    a_form: BinaryForm
    b_form: BinaryForm
    c_form: BinaryForm  # pinned; re-derived by form_exact_root in verification


@dataclass(frozen=True)
class ParamFamily:
    """One ternary equation cA*a^2 + cB*b^2 = M*c^k with its parametrization."""

    id: str
    equation: str
    coef_a: Fraction
    coef_b: Fraction
    rhs_mult: Fraction
    power: int
    branches: tuple
    parity_rule: Optional[str] = None  # "x=y mod 2" for the half-integral family
    doubled_branch: Optional[Branch] = None  # mixed-parity companion forms

    @property
    def is_cubic(self) -> bool:
        return self.power == 3


@dataclass(frozen=True)
class TernarySolution:
    a: int
    b: int
    c: int

    @property
    def primitive(self) -> bool:
        return math.gcd(math.gcd(abs(self.a), abs(self.b)), abs(self.c)) == 1


@dataclass
class CoverReport:
    family_id: str
    bound: int
    radius: int
    solutions_found: int
    matched: int
    unmatched: list = field(default_factory=list)
    via_doubled_forms: list = field(default_factory=list)
    radius_doubled: bool = False


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
    a = form_eval(br.a_form, x, y) * sign_a
    b = form_eval(br.b_form, x, y) * sign_b
    c = form_eval(br.c_form, x, y)
    for v in (a, b, c):
        if v.denominator != 1:
            raise IntegralityViolation(
                f"family {family.id} produced a non-integer at ({x}, {y})")
    return TernarySolution(int(a), int(b), int(c))


def param_verify_identity(family: ParamFamily, branch: int) -> bool:
    """Symbolic check: cA*aForm^2 + cB*bForm^2 == M * cForm^k, and the pinned
    cForm agrees with a fresh exact-root derivation."""
    br = family.branches[branch]
    combo = (br.a_form.pow(2) * family.coef_a) + (br.b_form.pow(2) * family.coef_b)
    scaled = combo * (Fraction(1) / family.rhs_mult)
    if scaled != br.c_form.pow(family.power):
        return False
    rederived = form_exact_root(scaled, family.power)
    # The exact-root sign convention (real root of the leading coefficient)
    # is also how the pinned forms were produced, so equality is exact.
    return rederived == br.c_form


def cover_radius(family: ParamFamily, bound: int) -> int:
    """Parameter box that provably reaches all solutions up to the bound.

    Coefficient-size bound on the forms: cubic families need |x|,|y| up to
    about (6*bound)^(1/3); quadratic ones (3*bound)^(1/2).
    """
    if family.is_cubic:
        return math.ceil((6 * bound) ** (1 / 3)) + 2
    return math.ceil((3 * bound) ** 0.5) + 2


def _enumerate_solutions(family: ParamFamily, bound: int):
    """Brute-force all primitive (a, b, c), |a|,|b| <= bound, solving for c."""
    out = []
    k = family.power
    ca, cb, m = family.coef_a, family.coef_b, family.rhs_mult
    for a in range(0, bound + 1):
        for b in range(0, bound + 1):
            t = (ca * a * a + cb * b * b) / m
            if t.denominator != 1:
                continue
            c = int_kth_root(int(t), k)
            if c is None:
                continue
            # Quarter-plane canonical: signs of (a,b) are free in the equation.
            sol = TernarySolution(a, b, abs(c) if k % 2 == 0 else c)
            if sol.primitive:
                out.append(sol)
    return out


def _parametrized_keys(family: ParamFamily, radius: int):
    """All (|a|, |b|, c-canonical) reachable inside the parameter box."""
    keys = {}
    k = family.power
    for bi, br in enumerate(family.branches):
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                if math.gcd(abs(x), abs(y)) != 1:
                    continue
                if family.parity_rule == "x=y mod 2" and (x - y) % 2 != 0:
                    continue
                a = form_eval(br.a_form, x, y)
                b = form_eval(br.b_form, x, y)
                c = form_eval(br.c_form, x, y)
                if any(v.denominator != 1 for v in (a, b, c)):
                    continue
                cc = abs(int(c)) if k % 2 == 0 else int(c)
                keys.setdefault((abs(int(a)), abs(int(b)), cc), ("branch", bi))
    if family.doubled_branch is not None:
        br = family.doubled_branch
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                if math.gcd(abs(x), abs(y)) != 1 or (x - y) % 2 == 0:
                    continue
                a = int(form_eval(br.a_form, x, y))
                b = int(form_eval(br.b_form, x, y))
                c = int(form_eval(br.c_form, x, y))
                cc = abs(c) if k % 2 == 0 else c
                keys.setdefault((abs(a), abs(b), cc), ("doubled", 0))
    return keys


def param_cover_check(family: ParamFamily, bound: int) -> CoverReport:
    """Match every primitive brute-force solution against the parametrization.

    A failed match triggers one radius doubling before being reported as
    unmatched.  Solutions only reachable through the doubled mixed-parity
    forms are matched but listed separately.
    """
    solutions = _enumerate_solutions(family, bound)
    radius = cover_radius(family, bound)
    doubled = False
    for attempt in range(2):
        keys = _parametrized_keys(family, radius)
        unmatched = []
        via_doubled = []
        k = family.power
        for sol in solutions:
            key = (abs(sol.a), abs(sol.b), abs(sol.c) if k % 2 == 0 else sol.c)
            hit = keys.get(key)
            if hit is None:
                unmatched.append(sol)
            elif hit[0] == "doubled":
                via_doubled.append(sol)
        if not unmatched or attempt == 1:
            break
        radius *= 2
        doubled = True
    return CoverReport(
        family_id=family.id,
        bound=bound,
        radius=radius,
        solutions_found=len(solutions),
        matched=len(solutions) - len(unmatched),
        unmatched=unmatched,
        via_doubled_forms=via_doubled,
        radius_doubled=doubled,
    )

"""Parametrization families for the ternary equations cA*a^2 + cB*b^2 = M*c^k.

Eight families are carried as corpus data: five cubic ones (k = 3, the a/b
forms are binary cubics) and three quadratic ones (k = 2).  Each family's
defining identity is verified symbolically, and bounded completeness is
checked against a brute-force enumeration oracle.  The paper's two infinite
progression families, four degree-12 forms each, are checked here too
(`verify_remark_families`): `cases` reads them without loading `searcher`.

Evaluation and the cover check run on integer forms: each form's
denominators are cleared once (a cached integer form over a common
denominator D), so integrality is `value % D == 0`.  A form is evaluated by
`exactmath.form_value` on a block of the parameter box on int64 arrays.
The brute-force grid of cA*a^2 + cB*b^2 is the box `sieve.TernaryRows`:
its `hits` are the cells where M divides the value with an exact k-th power
as quotient, sieved by residues and confirmed on Python ints (when M is
squarefree, only the cells with gcd(a, b) = 1); `math.gcd` then keeps the
primitive ones.  Magnitudes are checked against `sieve.INT64_SAFE` (2^62)
before any grid is built, so the int64 arrays never wrap: every Horner step
of a form on the box is bounded by the sum of its |coefficients| times
radius^degree.

The half-integral family (a = +/-(x^2-3y^2)/2, b = +/-xy) only yields
integers when x and y are both odd; primitive solutions with odd c are
instead reached by the doubled forms (x^2-3y^2, 2xy, x^2+3y^2) over mixed
parity (x, y).  The cover check matches those separately and reports them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .exactmath import (BinaryForm, form_eval, form_exact_root, form_value, int_floor_root,
                        square_split)
from .records import FrozenRecord
from .sieve import BLOCK_CELLS, INT64_SAFE, TernaryRows


def _clear(values) -> tuple:
    """(integers, D) with values[i] == integers[i] / D and D > 0 minimal."""
    den = math.lcm(*(Fraction(v).denominator for v in values))
    return tuple(int(v * den) for v in values), den


class Branch(FrozenRecord):
    """The a, b and c forms of one branch, the c form pinned and re-derived
    by form_exact_root in verification.  A plain record, not a NamedTuple:
    it caches `int_forms`."""

    _fields = ("a_form", "b_form", "c_form")

    def __init__(self, a_form: BinaryForm, b_form: BinaryForm, c_form: BinaryForm):
        self.__dict__.update(a_form=a_form, b_form=b_form, c_form=c_form)

    @cached_property
    def int_forms(self) -> tuple:
        """((integer coefficients, D), ...) for the a, b, c forms: each form
        is its integer form divided by D > 0."""
        return tuple(_clear(f.coeffs) for f in (self.a_form, self.b_form, self.c_form))


class ParamFamily(NamedTuple):
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


class TernarySolution(NamedTuple):
    a: int
    b: int
    c: int

    @property
    def primitive(self) -> bool:
        return math.gcd(math.gcd(abs(self.a), abs(self.b)), abs(self.c)) == 1


class CoverReport(NamedTuple):
    radius: int
    solutions_found: int
    matched: int
    # Default lists are shared between reports: nothing appends to a report's lists.
    unmatched: list = []
    via_doubled_forms: list = []
    radius_doubled: bool = False


def _int_equation(family: ParamFamily) -> tuple:
    """(cA, cB, M) scaled to integers; the equation is unchanged."""
    return _clear((family.coef_a, family.coef_b, family.rhs_mult))[0]


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
    about (6*bound)^(1/3); quadratic ones (3*bound)^(1/2).  The ceiling
    root is taken exactly on integers.
    """
    n, k = (6 * bound, 3) if family.is_cubic else (3 * bound, 2)
    r = int_floor_root(n, k)
    return r + (r**k < n) + 2


def _check_int64(family: ParamFamily, bound: int, radius: int) -> None:
    """Raise ValueError unless the grid up to bound and every form on the
    radius box stay below 2^62 in absolute value."""
    ca, cb, _m = _int_equation(family)
    if (abs(ca) + abs(cb)) * bound**2 >= INT64_SAFE:
        raise ValueError(f"family {family.id}: bound {bound} puts "
                         f"{family.equation} beyond the int64 grid")
    for br in filter(None, (*family.branches, family.doubled_branch)):
        for coeffs, _den in br.int_forms:
            if sum(map(abs, coeffs)) * radius ** (len(coeffs) - 1) >= INT64_SAFE:
                raise ValueError(f"family {family.id}: radius {radius} puts "
                                 "the forms beyond int64")


def _enumerate_solutions(family: ParamFamily, bound: int):
    """Brute-force all primitive (a, b, c), 0 <= a, b <= bound, solving for c:
    the hits of `sieve.TernaryRows`, only those with gcd(a, b) = 1 when M is
    squarefree (a prime p dividing a and b but not c puts p^2 in M c^k, so
    in M).  The quarter plane is canonical: the signs of (a, b) are free in
    the equation.
    """
    ca, cb, m = _int_equation(family)
    hits = TernaryRows(ca, cb, m, family.power, bound).hits(coprime=square_split(m)[1] == 1)
    return [sol for sol in (TernarySolution(*hit) for hit in hits) if sol.primitive]


def _parametrized_keys(family: ParamFamily, radius: int):
    """All (|a|, |b|, c-canonical) reachable inside the parameter box.

    Keys are inserted branch by branch, the doubled forms last, each x-major
    and y-minor, so the first branch reaching a key names it.  The box is
    evaluated in numpy blocks of x rows, at most `sieve.BLOCK_CELLS` cells
    (or one row) each.
    """
    keys = {}
    k = family.power
    half_integral = family.parity_rule == "x=y mod 2"
    passes = [(br, ("branch", bi)) for bi, br in enumerate(family.branches)]
    if family.doubled_branch is not None:
        passes.append((family.doubled_branch, ("doubled", 0)))
    grid = np.arange(-radius, radius + 1, dtype=np.int64)
    rows = max(1, BLOCK_CELLS // grid.size)
    for br, tag in passes:
        for x0 in range(0, grid.size, rows):
            x, y = grid[x0:x0 + rows, None], grid[None, :]
            mask = np.gcd(x, y) == 1
            if tag[0] == "doubled":
                mask &= (x - y) % 2 != 0
            elif half_integral:
                mask &= (x - y) % 2 == 0
            values = []
            for coeffs, den in br.int_forms:
                num = form_value(coeffs, x, y)
                mask &= num % den == 0
                values.append(num // den)
            a, b = (np.abs(v[mask]) for v in values[:2])
            c = values[2][mask]
            if k % 2 == 0:
                c = np.abs(c)
            for key in zip(a.tolist(), b.tolist(), c.tolist()):
                keys.setdefault(key, tag)
    return keys


def param_cover_check(family: ParamFamily, bound: int) -> CoverReport:
    """Match every primitive brute-force solution against the parametrization.

    A failed match triggers one radius doubling before being reported as
    unmatched.  Solutions only reachable through the doubled mixed-parity
    forms are matched but listed separately.  Raises ValueError when the
    bound is too large for the int64 grids.
    """
    radius = cover_radius(family, bound)
    _check_int64(family, bound, 2 * radius)
    solutions = _enumerate_solutions(family, bound)
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
        radius=radius,
        solutions_found=len(solutions),
        matched=len(solutions) - len(unmatched),
        unmatched=unmatched,
        via_doubled_forms=via_doubled,
        radius_doubled=doubled,
    )


def remark_family_terms() -> dict:
    """The two infinite AP families with a shared quartic common factor.

    Returns label -> (list of four degree-12 forms, exponent vector).
    """
    q = BinaryForm
    f = q([1, 8, 2, -8, 1])
    fam_a = (
        [(q([1, -2, -1]) * f).pow(2),
         (q([1, 0, 1]) * f).pow(2),
         (q([1, 2, -1]) * f).pow(2),
         f.pow(3)],
        (2, 2, 2, 3),
    )
    g = q([1, 4, 8, -8, 4])
    fam_b = (
        [(q([1, -2, -2]) * g).pow(2),
         (q([1, 0, 2]) * g).pow(2),
         g.pow(3),
         (q([1, 4, -2]) * g).pow(2)],
        (2, 2, 3, 2),
    )
    return {"sq_sq_sq_cube": fam_a, "sq_sq_cube_sq": fam_b}


def verify_remark_families() -> bool:
    """Symbolically confirm both displayed families are APs in (u, v)."""
    for terms, _ in remark_family_terms().values():
        diffs = [terms[m + 1] - terms[m] for m in range(3)]
        if not (diffs[0] == diffs[1] == diffs[2]):
            return False
        # Numeric spot checks on top of the form identity.
        for (u, v) in ((1, 0), (2, 1), (3, -2)):
            vals = [form_eval(t, u, v) for t in terms]
            steps = {vals[m + 1] - vals[m] for m in range(3)}
            if len(steps) != 1:
                return False
    return True

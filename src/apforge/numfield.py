"""Exact arithmetic in Q[alpha]/(m(alpha)) for a small fixed family of fields.

Elements are integer numerator vectors over one positive denominator, in
lowest terms, in the power basis 1, alpha, ..., alpha^(d-1) (Cohen, A Course
in Computational Algebraic Number Theory, 4.2).  A sum or a rational scalar
is one integer pass and one gcd; a product is one integer convolution folded
by the field's integer table of alpha^d .. alpha^(2d-2) over one denominator,
then one gcd.  The table is read once off `NumberField.reduce`, which reduces
a `UniPoly` by `poly_divmod` modulo the (monic, rational) minimal polynomial;
inverses come from `exactmath.poly_xgcd` against it on the Fraction view
`FieldElem.poly`, and powers use `exactmath.power`.  Norms are resultants
along the same Euclidean remainder sequence, the field discriminant is
`exactmath.discriminant` of the minimal polynomial, and S-unit tests run on
norms (`padic.valuation`).
Squareness is decided by one scan over every small unramified prime: a value
that is not a square in Q_p (`padic.is_square_qp`) refutes it; after the scan
a square root at a split prime is lifted by `padic.hensel_lift`, rebuilt by
`padic.rational_reconstruct` and verified exactly.  Both read the numerators
mod p (or p^n) through one inverse of the denominator.  This module keeps only
what reads the field: the roots of the minimal polynomial mod p and the
`UniPoly` interpolation of the lifted roots.  Every evaluation mod p or p^n
is `exactmath.horner`.  No floating point is used anywhere.

No ring-of-integers or ideal machinery: the handful of fields used here are
fixed corpus data, one row of `FIELDS` each, and everything checkable reduces
to exact identities.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .exactmath import (UniPoly, as_coeff, discriminant, horner, poly_divmod, poly_xgcd,
                        power, primes_upto, uni_resultant)
from .padic import Undecided, frac_mod, hensel_lift, is_square_qp, rational_reconstruct, valuation
from .sieve import BLOCK_CELLS


class NumberField:
    """Q[x]/(m(x)) with m monic (after scaling) of degree 2..4.

    Irreducibility of m is corpus data, not re-proven here.  Built once: the
    hash, and the integer table of alpha^d .. alpha^(2d-2) over one positive
    denominator that every product reduces with, each read off `reduce`.
    """

    def __init__(self, minpoly_coeffs: Sequence, name: str = ""):
        poly = UniPoly(minpoly_coeffs)
        if poly.degree < 2:
            raise ValueError("number field degree must be at least 2")
        self.minpoly = poly.monic()
        self.degree = poly.degree
        self.name = name or f"Q[x]/({list(self.minpoly.coeffs)})"
        self._hash = hash(self.minpoly)
        d = self.degree
        self.zero = FieldElem(self, [0] * d)
        self.one = FieldElem(self, [1] + [0] * (d - 1))
        self.alpha = FieldElem(self, [0, 1] + [0] * (d - 2))
        powers = [self.reduce(UniPoly([0] * e + [1])) for e in range(d, 2 * d - 1)]
        self._table_den = math.lcm(*(e.den for e in powers))
        self._table = tuple(tuple(n * (self._table_den // e.den) for n in e.num)
                            for e in powers)

    def rational(self, q) -> "FieldElem":
        return FieldElem(self, [q] + [0] * (self.degree - 1))

    def reduce(self, poly: UniPoly) -> "FieldElem":
        """The element poly(alpha): poly's remainder modulo the minimal polynomial."""
        cs = poly_divmod(poly, self.minpoly)[1].coeffs
        return FieldElem(self, cs + (0,) * (self.degree - len(cs)))

    def product(self, a: "FieldElem", b: "FieldElem") -> "FieldElem":
        """a * b: the integer convolution of the numerators, its terms at
        alpha^d .. alpha^(2d-2) folded in by the table, over one denominator."""
        d, scale = self.degree, self._table_den
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    conv[i + j] += x * y
        out = conv[:d] if scale == 1 else [c * scale for c in conv[:d]]
        for c, row in zip(conv[d:], self._table):
            if c:
                for k, t in enumerate(row):
                    out[k] += c * t
        return _canonical(self, out, a.den * b.den * scale)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"NumberField({self.name})"

    @cached_property
    def discriminant(self) -> Fraction:
        """Res(m, m') of the minimal polynomial, from `exactmath.discriminant`."""
        return discriminant(self.minpoly.coeffs)


def _canonical(field: NumberField, num, den: int) -> "FieldElem":
    """The element num / den (den > 0), divided through by gcd(den, *num)."""
    g = math.gcd(den, *num)
    elem = object.__new__(FieldElem)
    elem.field = field
    elem.num = tuple(num) if g == 1 else tuple(n // g for n in num)
    elem.den = den // g
    return elem


class FieldElem:
    """Element of a NumberField: integer numerators over one denominator.

    self == sum(num[i] * alpha^i) / den, with den > 0 and gcd(den, *num) = 1,
    so zero is (0, ..., 0) / 1 and equal elements have equal (num, den).
    `coords` and `poly` are the same element as Fractions.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, coords: Iterable):
        cs = [as_coeff(c) for c in coords]
        if len(cs) != field.degree:
            raise ValueError("coordinate vector has wrong length")
        # Each Fraction is in lowest terms, so over the lcm of the
        # denominators no prime divides every numerator and den.
        den = math.lcm(*(c.denominator for c in cs))
        self.field = field
        self.num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.den = den

    @property
    def coords(self) -> tuple:
        """The coordinates in the power basis, as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num)

    @property
    def poly(self) -> UniPoly:
        """The coordinate polynomial: self == poly(alpha)."""
        return UniPoly(self.coords)

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return NotImplemented

    def _sum(self, other, sign: int):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        da, db = self.den, o.den
        if da == db:
            return _canonical(self.field, [x + sign * y for x, y in zip(self.num, o.num)], da)
        return _canonical(self.field, [x * db + sign * y * da for x, y in zip(self.num, o.num)],
                          da * db)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return _canonical(self.field, [-n for n in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _canonical(self.field, [n * other.numerator for n in self.num],
                              self.den * other.denominator)
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.field.product(self, o)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        """Multiplicative inverse: s with s*a + t*m = 1, from `poly_xgcd`."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        g, s, _t = poly_xgcd(self.poly, self.field.minpoly)
        if g.degree > 0:
            raise ZeroDivisionError("element is a zero divisor (reducible minpoly?)")
        return self.field.reduce(s)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, self.field.one)

    def __bool__(self):
        return any(self.num)

    def _is_rational(self) -> bool:
        return not any(self.num[1:])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # Both sides are in lowest terms.
            return (self._is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return ((self.field is other.field or self.field == other.field)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        # A rational element equals its Fraction, so it hashes like one.
        if self._is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field, self.num, self.den))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*a")
            else:
                terms.append(f"{c}*a^{i}")
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# Operation surface


def nf_norm(a: FieldElem) -> Fraction:
    """Field norm: resultant of the minpoly with the coordinate polynomial.

    Multiplicative, and norm(rational r) == r**degree.
    """
    if not a:
        return Fraction(0)
    return uni_resultant(a.field.minpoly, a.poly)


def nf_is_s_unit(a: FieldElem, s_primes: Iterable[int]) -> bool:
    """True iff |norm(a)| factors entirely over the given rational primes."""
    if not a:
        raise ValueError("zero element is not an S-unit")
    nm = nf_norm(a)
    n = abs(nm.numerator) * nm.denominator  # coprime, so both factor iff n does
    for p in s_primes:
        n //= p ** valuation(n, p)
    return n == 1


# ---------------------------------------------------------------------------
# Squareness: modular refutation, p-adic construction with exact verification.

_PRECISIONS = (64, 128, 256, 512, 1024)
_PRIME_LIMIT = 699


def nf_is_square(a: FieldElem):
    """Return b with b*b == a, or None when a is provably not a square.

    Scans every odd prime p <= 699 that is unramified and prime to every
    denominator.  A non-residue a(r) at a root r of the minimal polynomial
    mod p refutes.  After the scan, at the first split prime (d distinct
    roots, a(r) != 0 at each) a root is built p-adically at each precision
    and verified exactly.  The root's first nonzero coordinate is positive.
    Raises Undecided otherwise.
    """
    if not a:
        return a.field.zero
    field = a.field
    split = None
    for p in primes_upto(_PRIME_LIMIT)[1:]:
        roots = _roots_mod(field, p)
        if roots is None or a.den % p == 0:  # ramified, or p divides a's denominator
            continue
        inv = pow(a.den, -1, p)
        coords = [n * inv % p for n in a.num]
        values = [horner(coords, r, p) for r in roots]
        if not all(is_square_qp(v, p) for v in values):
            return None
        if split is None and len(roots) == field.degree and all(values):
            split = (p, roots, values)
    if split is not None:
        for prec in _PRECISIONS:
            b = _root_at_split_prime(a, *split, prec)
            if b is not None:
                return -b if next(n for n in b.num if n) < 0 else b
    where = f"split prime {split[0]}" if split else f"no split prime up to {_PRIME_LIMIT}"
    raise Undecided(f"squareness of {a!r} undecided ({where})")


def _roots_mod(field: NumberField, p: int):
    """Roots of the minimal polynomial mod p, ascending, for an odd prime p <=
    _PRIME_LIMIT; None when p divides the discriminant or a denominator of
    the minimal polynomial."""
    return _field_roots(field)[p]


@lru_cache(maxsize=None)
def _field_roots(field: NumberField) -> dict:
    """{p: _roots_mod(field, p)} for every odd prime p <= _PRIME_LIMIT, built
    once per field.  Away from the lcm D of its denominators the minimal
    polynomial has the roots of the integer polynomial D m, so `horner` finds
    them all at once: D m at every x < p, one row per admissible prime, with
    the modulus an array of rows, in blocks of at most `sieve.BLOCK_CELLS`
    cells."""
    disc = field.discriminant
    den = math.lcm(*(Fraction(c).denominator for c in field.minpoly.coeffs))
    bad = disc.numerator * disc.denominator * den
    table = dict.fromkeys(primes_upto(_PRIME_LIMIT)[1:])
    primes = [p for p in table if bad % p]
    table.update((p, []) for p in primes)
    rows = max(1, BLOCK_CELLS // _PRIME_LIMIT)
    for start in range(0, len(primes), rows):
        block = primes[start : start + rows]
        mod = np.array(block, dtype=np.int32)[:, None]
        coeffs = [np.array([int(c * den) % p for p in block], dtype=np.int32)[:, None]
                  for c in field.minpoly.coeffs]
        x = np.arange(block[-1], dtype=np.int32)  # the primes ascend
        row, root = np.nonzero((horner(coeffs, x, mod) == 0) & (x < mod))
        for i, r in zip(row.tolist(), root.tolist()):
            table[block[i]].append(r)
    return table


def _root_at_split_prime(a: FieldElem, p: int, roots, values, prec: int):
    """b with b*b == a from a split prime p, or None.

    The roots r_i of the minimal polynomial and square roots of a(r_i) are
    Hensel-lifted to Z/p^n with p^n > 2^(2*prec+1).  A square root b of a
    is p-integral (p is unramified, a is p-integral) and b(r_i) is one of
    the two roots of a(r_i), so one of the 2^(d-1) sign patterns
    interpolates to b mod p^n.  Its coordinates are reconstructed as
    fractions with terms up to 2^prec and kept only if b*b == a exactly.
    """
    field = a.field
    n = (2 * prec + 1) // (p.bit_length() - 1) + 1  # p^n > 2^(2*prec+1)
    mod = p**n
    m = [frac_mod(c, mod) for c in field.minpoly.coeffs]
    lifted = [hensel_lift(m, r, p, n) for r in roots]
    inv = pow(a.den, -1, mod)
    acoords = [n * inv % mod for n in a.num]
    sqrts = [hensel_lift([-horner(acoords, r, mod), 0, 1],
                         next(s for s in range(1, p) if s * s % p == v), p, n)
             for r, v in zip(lifted, values)]
    # Lagrange basis: basis[i] has value 1 at lifted[i] and 0 at the others.
    basis = []
    for i, ri in enumerate(lifted):
        others = [rj for j, rj in enumerate(lifted) if j != i]
        inv = pow(math.prod(ri - rj for rj in others), -1, mod)
        row = math.prod(UniPoly([-rj, 1]) for rj in others).coeffs
        basis.append([int(c) * inv % mod for c in row])
    for pattern in range(1 << (len(roots) - 1)):  # the last sign stays +
        signed = [-s if pattern >> i & 1 else s for i, s in enumerate(sqrts)]
        coords = [rational_reconstruct(sum(s * row[k] for s, row in zip(signed, basis)) % mod,
                                       mod) for k in range(field.degree)]
        if None not in coords:
            b = FieldElem(field, coords)
            if b * b == a:
                return b
    return None


# ---------------------------------------------------------------------------
# Corpus fields


# name -> (minimal polynomial, ascending coefficients; display name).  The
# quartic splits the degree-6 form of the cube-cube-square-cube case into two
# cubic forms; the cubic field of 57/4 factors the even sextic
# y^2 = x^6 + (57/4)x^4 + 39x^2 + 1.
FIELDS = {
    "sqrt2": ((-2, 0, 1), "Q(sqrt(2))"),
    "i": ((1, 0, 1), "Q(sqrt(-1))"),
    "sqrt-2": ((2, 0, 1), "Q(sqrt(-2))"),
    "sqrt3": ((-3, 0, 1), "Q(sqrt(3))"),
    "sqrt6": ((-6, 0, 1), "Q(sqrt(6))"),
    "cbrt2": ((-2, 0, 0, 1), "Q(cbrt(2))"),
    "quartic": ((2, 4, 0, 2, 1), "Q[x]/(x^4+2x^3+4x+2)"),
    "cubic57over4": ((1, 39, Fraction(57, 4), 1), "Q[x]/(x^3+(57/4)x^2+39x+1)"),
}


@lru_cache(maxsize=None)
def field_by_name(name: str) -> NumberField:
    """The corpus field of that name, built once."""
    if name not in FIELDS:
        raise ValueError(f"unknown corpus field {name!r}")
    return NumberField(*FIELDS[name])

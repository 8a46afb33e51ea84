"""Exact arithmetic in Q[alpha]/(m(alpha)) for a small fixed family of fields.

Elements are coefficient vectors over Q in the power basis 1, alpha, ...,
alpha^(d-1).  Products are `UniPoly` arithmetic in alpha, reduced in one
place (`NumberField.reduce`) by `poly_divmod` modulo the (monic, rational)
minimal polynomial; inverses come from `exactmath.poly_xgcd` against it and
powers use `exactmath.power`.  Norms are resultants along the same Euclidean
remainder sequence, the field discriminant is `exactmath.discriminant` of the
minimal polynomial, and S-unit tests run on norms.  Squareness is decided by
one scan over small unramified primes: a modular non-residue refutes it, and
at a split prime a square root is Hensel-lifted p-adically, rationally
reconstructed and verified exactly.  Every evaluation mod p or p^n (roots of
the minimal polynomial, the scan, the Newton lifts) is `exactmath.horner`.
No floating point is used anywhere.

No ring-of-integers or ideal machinery: the handful of fields used here are
fixed corpus data, one row of `FIELDS` each, and everything checkable reduces
to exact identities.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .exactmath import (UniPoly, as_coeff, discriminant, horner, poly_divmod, poly_xgcd,
                        power, primes_upto, uni_resultant)


class Undecided(Exception):
    """Squareness could not be verified or refuted within configured bounds."""


class NumberField:
    """Q[x]/(m(x)) with m monic (after scaling) of degree 2..4.

    Irreducibility of m is corpus data, not re-proven here.
    """

    def __init__(self, minpoly_coeffs: Sequence, name: str = ""):
        poly = UniPoly(minpoly_coeffs)
        if poly.degree < 2:
            raise ValueError("number field degree must be at least 2")
        self.minpoly = poly.monic()
        self.degree = poly.degree
        self.name = name or f"Q[x]/({list(self.minpoly.coeffs)})"
        d = self.degree
        self.zero = FieldElem(self, [0] * d)
        self.one = FieldElem(self, [1] + [0] * (d - 1))
        self.alpha = FieldElem(self, [0, 1] + [0] * (d - 2))

    def element(self, coords: Iterable) -> "FieldElem":
        return FieldElem(self, coords)

    def rational(self, q) -> "FieldElem":
        return FieldElem(self, [q] + [0] * (self.degree - 1))

    def reduce(self, poly: UniPoly) -> "FieldElem":
        """The element poly(alpha): poly's remainder modulo the minimal polynomial."""
        cs = poly_divmod(poly, self.minpoly)[1].coeffs
        return FieldElem(self, cs + (0,) * (self.degree - len(cs)))

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField({self.name})"

    @property
    def discriminant(self) -> Fraction:
        """Res(m, m') of the minimal polynomial, from `exactmath.discriminant`."""
        return discriminant(self.minpoly.coeffs)


class FieldElem:
    """Element of a NumberField as an exact coordinate vector."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: Iterable):
        cs = [as_coeff(c) for c in coords]
        if len(cs) != field.degree:
            raise ValueError("coordinate vector has wrong length")
        self.field = field
        self.coords = tuple(cs)

    @property
    def poly(self) -> UniPoly:
        """The coordinate polynomial: self == poly(alpha)."""
        return UniPoly(self.coords)

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElem(self.field, [a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElem(self.field, [a - b for a, b in zip(self.coords, o.coords)])

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return FieldElem(self.field, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElem(self.field, [a * other for a in self.coords])
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.field.reduce(self.poly * o.poly)

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
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.coords[0] == other
                    and all(not c for c in self.coords[1:]))
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field, self.coords))

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
    for n in (abs(nm.numerator), nm.denominator):
        for p in s_primes:
            while n % p == 0:
                n //= p
        if n != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Squareness: modular refutation, p-adic construction with exact verification.

_PRECISIONS = (64, 128, 256, 512, 1024)
_WITNESS_PRIME_COUNT = 50
_PRIME_LIMIT = 699


def nf_is_square(a: FieldElem):
    """Return b with b*b == a, or None when a is provably not a square.

    Scans odd primes p <= 699 that are unramified and prime to every
    denominator.  A non-residue a(r) at a root r of the minimal polynomial
    mod p refutes.  The scan covers 50 such primes, and more only until it
    meets a split prime (d distinct roots, a(r) != 0 at each), where a root
    is built p-adically at each precision and verified exactly.  The root's
    first nonzero coordinate is positive.  Raises Undecided otherwise.
    """
    if not a:
        return a.field.zero
    field = a.field
    checked, split = 0, None
    for p in primes_upto(_PRIME_LIMIT)[1:]:
        if checked >= _WITNESS_PRIME_COUNT and split is not None:
            break
        roots = _roots_mod(field, p)
        if roots is None:
            continue
        try:
            coords = [_frac_mod(c, p) for c in a.coords]
        except ZeroDivisionError:
            continue  # p divides a denominator of a
        checked += 1
        values = [horner(coords, r, p) for r in roots]
        if any(v and pow(v, (p - 1) // 2, p) == p - 1 for v in values):
            return None
        if split is None and len(roots) == field.degree and all(values):
            split = (p, roots, values)
    if split is not None:
        for prec in _PRECISIONS:
            b = _root_at_split_prime(a, *split, prec)
            if b is not None:
                return -b if next(c for c in b.coords if c) < 0 else b
    where = f"split prime {split[0]}" if split else f"no split prime up to {_PRIME_LIMIT}"
    raise Undecided(f"squareness of {a!r} undecided ({where})")


@lru_cache(maxsize=None)
def _roots_mod(field: NumberField, p: int):
    """Roots of the minimal polynomial mod p; None when p divides the
    discriminant or a denominator of the minimal polynomial."""
    try:
        if _frac_mod(field.discriminant, p) == 0:
            return None
        m = [_frac_mod(c, p) for c in field.minpoly.coeffs]
    except ZeroDivisionError:
        return None
    return np.flatnonzero(horner(m, np.arange(p, dtype=np.int64), p) == 0).tolist()


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
    steps = n.bit_length()
    m = [_frac_mod(c, mod) for c in field.minpoly.coeffs]
    lifted = [_newton_lift(m, r, mod, steps) for r in roots]
    acoords = [_frac_mod(c, mod) for c in a.coords]
    sqrts = [_newton_lift([-horner(acoords, r, mod), 0, 1],
                          next(s for s in range(1, p) if s * s % p == v), mod, steps)
             for r, v in zip(lifted, values)]
    # Lagrange basis: basis[i] has value 1 at lifted[i] and 0 at the others.
    basis = []
    for i, ri in enumerate(lifted):
        poly, scale = [1], 1
        for j, rj in enumerate(lifted):
            if j != i:
                poly = [(lo - rj * hi) % mod for lo, hi in zip([0] + poly, poly + [0])]
                scale = scale * (ri - rj) % mod
        inv = pow(scale, -1, mod)
        basis.append([c * inv % mod for c in poly])
    for pattern in range(1 << (len(roots) - 1)):  # the last sign stays +
        signed = [-s if pattern >> i & 1 else s for i, s in enumerate(sqrts)]
        coords = [_rational_reconstruct(sum(s * row[k] for s, row in zip(signed, basis)) % mod,
                                        mod) for k in range(field.degree)]
        if None not in coords:
            b = FieldElem(field, coords)
            if b * b == a:
                return b
    return None


def _newton_lift(coeffs_ascending, x: int, mod: int, steps: int) -> int:
    """Lift a simple root x mod p of the polynomial to a root mod p^n;
    each Newton step doubles the p-adic digits, so steps >= log2(n)."""
    deriv = [i * c for i, c in enumerate(coeffs_ascending)][1:]
    for _ in range(steps):
        fx = horner(coeffs_ascending, x, mod)
        x = (x - fx * pow(horner(deriv, x, mod), -1, mod)) % mod
    return x


def _rational_reconstruct(c: int, mod: int):
    """The fraction u/v == c mod `mod` with |u|, v <= sqrt(mod/2), or None."""
    bound = math.isqrt(mod // 2)
    r0, r1, t0, t1 = mod, c, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not t1 or abs(t1) > bound:
        return None
    return Fraction(r1, t1)


def _frac_mod(q: Fraction, mod: int) -> int:
    den = q.denominator % mod
    if math.gcd(den, mod) != 1:
        raise ZeroDivisionError
    return (q.numerator % mod) * pow(den, -1, mod) % mod


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

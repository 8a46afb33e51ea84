"""Exact arithmetic in Q[alpha]/(m(alpha)) for a small fixed family of fields.

Elements are coefficient vectors over Q in the power basis 1, alpha, ...,
alpha^(d-1); multiplication reduces modulo the (monic, rational) minimal
polynomial.  Norms are Sylvester resultants, S-unit tests run on norms, and
squareness is decided by an embedding/rounding ladder with exact
verification, or refuted by a modular witness.

No ring-of-integers or ideal machinery: the handful of fields used here are
fixed corpus data and everything checkable reduces to exact identities.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .exactmath import UniPoly, poly_divmod, primes_upto, uni_resultant


class Undecided(Exception):
    """Squareness could not be verified or refuted within configured bounds."""


class NumberField:
    """Q[x]/(m(x)) with m monic (after scaling) of degree 2..4.

    Irreducibility of m is corpus data, not re-proven here.
    """

    def __init__(self, minpoly_coeffs: Sequence, name: str = ""):
        poly = UniPoly([Fraction(c) if isinstance(c, (int, str)) else c
                        for c in minpoly_coeffs])
        if poly.degree < 2:
            raise ValueError("number field degree must be at least 2")
        self.minpoly = poly.monic()
        self.degree = poly.degree
        self.name = name or f"Q[x]/({list(self.minpoly.coeffs)})"
        d = self.degree
        # alpha^e for e in [d, 2d-2], as coordinate vectors.
        self._pow_table = []
        current = [-c for c in self.minpoly.coeffs[:-1]]
        self._pow_table.append(tuple(current))
        for _ in range(d - 2):
            shifted = [Fraction(0)] + current
            top = shifted.pop()
            current = [s + top * t for s, t in zip(shifted, self._pow_table[0])]
            self._pow_table.append(tuple(current))
        self.zero = FieldElem(self, [0] * d)
        self.one = FieldElem(self, [1] + [0] * (d - 1))
        self.alpha = FieldElem(self, [0, 1] + [0] * (d - 2))

    def element(self, coords: Iterable) -> "FieldElem":
        return FieldElem(self, coords)

    def rational(self, q) -> "FieldElem":
        return FieldElem(self, [q] + [0] * (self.degree - 1))

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField({self.name})"

    @property
    def discriminant(self) -> Fraction:
        return _field_disc(self)


@lru_cache(maxsize=None)
def _field_disc(field: NumberField) -> Fraction:
    return uni_resultant(field.minpoly, field.minpoly.derivative())


class FieldElem:
    """Element of a NumberField as an exact coordinate vector."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: Iterable):
        cs = [Fraction(c) if isinstance(c, (int, str)) else c for c in coords]
        if len(cs) != field.degree:
            raise ValueError("coordinate vector has wrong length")
        self.field = field
        self.coords = tuple(cs)

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
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(o.coords):
                if b:
                    prod[i + j] += a * b
        out = list(prod[:d])
        for e in range(d, 2 * d - 1):
            c = prod[e]
            if c:
                row = self.field._pow_table[e - d]
                out = [s + c * t for s, t in zip(out, row)]
        return FieldElem(self.field, out)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        """Multiplicative inverse via extended Euclid against the minpoly."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        a = UniPoly(list(self.coords))
        m = self.field.minpoly
        # Extended Euclid over Q[x]: u*a + v*m = g (constant).
        r0, r1 = m, a
        s0, s1 = UniPoly([0]), UniPoly([1])
        while not r1.is_zero and r1.degree > 0:
            q, rem = poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, s0 - q * s1
        if r1.is_zero:
            raise ZeroDivisionError("element is a zero divisor (reducible minpoly?)")
        g = r1.coeffs[0]
        inv_poly = s1 * (Fraction(1) / g)
        coords = list(inv_poly.coeffs) + [Fraction(0)] * (self.field.degree - len(inv_poly.coeffs))
        return FieldElem(self.field, coords[: self.field.degree])

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
        result = self.field.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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


def nf_mul(a: FieldElem, b: FieldElem) -> FieldElem:
    """Product reduced modulo the minimal polynomial."""
    return a * b


def nf_inv(a: FieldElem) -> FieldElem:
    """Inverse; nf_mul(a, nf_inv(a)) == 1."""
    return a.inverse()


def nf_norm(a: FieldElem) -> Fraction:
    """Field norm: resultant of the minpoly with the coordinate polynomial.

    Multiplicative, and norm(rational r) == r**degree.
    """
    if not a:
        return Fraction(0)
    return uni_resultant(a.field.minpoly, UniPoly(list(a.coords)))


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
# Squareness: embedding ladder with exact verification, modular refutation.

_PRECISIONS = (64, 128, 256, 512, 1024)
_WITNESS_PRIME_COUNT = 50


def nf_is_square(a: FieldElem):
    """Return b with b*b == a, or None when a is provably not a square.

    Positive answers come from rounding approximate square roots in every
    embedding and verifying exactly; negative answers require a modular
    witness (a reduces to a non-residue at some unramified rational prime).
    Raises Undecided when neither side lands within the configured bounds.
    """
    if not a:
        return a.field.zero
    if _square_witness_against(a):
        return None
    for prec in _PRECISIONS:
        b = _try_square_root(a, prec)
        if b is not None:
            return b
    raise Undecided(f"squareness of {a!r} undecided at max precision")


def _square_witness_against(a: FieldElem) -> bool:
    """Scan small unramified primes for a modular non-square witness."""
    field = a.field
    disc = field.discriminant
    checked = 0
    for p in primes_upto(699):
        if p == 2:
            continue
        if checked >= _WITNESS_PRIME_COUNT:
            break
        try:
            if _frac_mod(disc, p) == 0:
                continue
            mp = [_frac_mod(c, p) for c in field.minpoly.coeffs]
            av = [_frac_mod(c, p) for c in a.coords]
        except ZeroDivisionError:
            continue  # p divides a denominator
        checked += 1
        for r in range(p):
            if _poly_eval_mod(mp, r, p) != 0:
                continue
            v = _poly_eval_mod(av, r, p) % p
            if v == 0:
                continue
            if pow(v, (p - 1) // 2, p) == p - 1:
                return True
    return False


def _frac_mod(q: Fraction, p: int) -> int:
    den = q.denominator % p
    if den == 0:
        raise ZeroDivisionError
    return (q.numerator % p) * pow(den, -1, p) % p


def _poly_eval_mod(coeffs_ascending, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs_ascending):
        acc = (acc * x + c) % p
    return acc


# Complex rational helpers: numbers as (re, im) Fraction pairs.


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cdiv(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def _csnap(z, maxden: int):
    return (z[0].limit_denominator(maxden), z[1].limit_denominator(maxden))


def _cpoly_eval(coeffs_ascending, z):
    acc = (Fraction(0), Fraction(0))
    for c in reversed(coeffs_ascending):
        acc = _cmul(acc, z)
        acc = (acc[0] + c, acc[1])
    return acc


def _cabs2(z) -> Fraction:
    return z[0] * z[0] + z[1] * z[1]


def _seed_roots(coeffs_ascending) -> list[complex]:
    """Double-precision seeds via Durand-Kerner."""
    cs = [complex(c) for c in coeffs_ascending]
    n = len(cs) - 1
    lead = cs[-1]
    cs = [c / lead for c in cs]
    roots = [(0.4 + 0.9j) ** k for k in range(n)]
    for _ in range(200):
        moved = 0.0
        new = []
        for i, r in enumerate(roots):
            val = 0j
            for c in reversed(cs):
                val = val * r + c
            denom = 1 + 0j
            for j, s in enumerate(roots):
                if j != i:
                    denom *= r - s
            delta = val / denom if denom != 0 else 0j
            new.append(r - delta)
            moved = max(moved, abs(delta))
        roots = new
        if moved < 1e-13:
            break
    return roots


def _polish_root(field: NumberField, seed: complex, prec: int):
    """Newton-polish a minpoly root in exact complex rational arithmetic."""
    m = list(field.minpoly.coeffs)
    dm = list(field.minpoly.derivative().coeffs)
    maxden = 1 << (prec + 32)
    tol = Fraction(1, 1 << (2 * prec))
    z = (Fraction(seed.real).limit_denominator(1 << 60),
         Fraction(seed.imag).limit_denominator(1 << 60))
    if abs(seed.imag) < 1e-9:
        # Real coefficients keep a real iteration exactly real.
        z = (z[0], Fraction(0))
    for _ in range(prec.bit_length() + 8):
        val = _cpoly_eval(m, z)
        if _cabs2(val) < tol:
            break
        dval = _cpoly_eval(dm, z)
        z = _csnap(_csub(z, _cdiv(val, dval)), maxden)
    return z


def _csqrt(w, prec: int):
    """Principal square root of a complex rational, to 2^-prec accuracy."""
    maxden = 1 << (prec + 32)
    tol = Fraction(1, 1 << (2 * prec))
    fw = complex(float(w[0]), float(w[1]))
    seed = fw ** 0.5
    if abs(seed) == 0:
        return (Fraction(0), Fraction(0))
    z = (Fraction(seed.real).limit_denominator(1 << 60),
         Fraction(seed.imag).limit_denominator(1 << 60))
    pure_real = not w[1] and w[0] >= 0
    if pure_real:
        z = (z[0] if z[0] else Fraction(1), Fraction(0))
    for _ in range(prec.bit_length() + 8):
        if not (z[0] or z[1]):
            break
        err = _csub(_cmul(z, z), w)
        if _cabs2(err) < tol:
            break
        z = _csnap(_cmul(_cadd(z, _cdiv(w, z)), (Fraction(1, 2), Fraction(0))), maxden)
        if pure_real:
            z = (z[0], Fraction(0))
    return z


def _try_square_root(a: FieldElem, prec: int):
    field = a.field
    d = field.degree
    seeds = _seed_roots(list(field.minpoly.coeffs))
    # Classify embeddings: real roots and one representative per pair.
    reals = sorted([s for s in seeds if abs(s.imag) < 1e-9], key=lambda s: s.real)
    pairs = sorted([s for s in seeds if s.imag > 1e-9], key=lambda s: (s.real, s.imag))
    roots = []
    kinds = []  # 'r' for real embedding, 'c' for a conjugate pair
    for s in reals:
        roots.append(_polish_root(field, s, prec))
        kinds.append("r")
    for s in pairs:
        roots.append(_polish_root(field, s, prec))
        kinds.append("c")
    acoeffs = list(a.coords)
    values = [_cpoly_eval(acoeffs, z) for z in roots]
    # Real embeddings of a square must be non-negative; a clearly negative
    # value just means this pattern search will fail (refutation still needs
    # a modular witness, handled by the caller).
    sqrts = []
    for kind, w in zip(kinds, values):
        if kind == "r" and w[0] < 0:
            return None  # cannot verify at any precision; witness path decides
        sqrts.append(_csqrt(w, prec))
    maxden = 1 << max(prec // 2, 48)
    n_choices = len(roots)
    for pattern in range(1 << (n_choices - 1) if n_choices > 1 else 1):
        # Global sign is redundant (b vs -b), so the first choice is fixed.
        signs = [1] + [1 if (pattern >> i) & 1 == 0 else -1 for i in range(n_choices - 1)]
        target = []
        basis_roots = []
        for kind, z, s, sg in zip(kinds, roots, sqrts, signs):
            chosen = s if sg == 1 else (-s[0], -s[1])
            basis_roots.append(z)
            target.append(chosen)
            if kind == "c":
                basis_roots.append((z[0], -z[1]))
                target.append((chosen[0], -chosen[1]))
        coords = _solve_vandermonde(basis_roots, target, d)
        if coords is None:
            continue
        snapped = [c[0].limit_denominator(maxden) for c in coords]
        b = FieldElem(field, snapped)
        if b * b == a:
            return b
    return None


def _solve_vandermonde(roots, values, d):
    """Solve sum_j c_j z_i^j = v_i by Gaussian elimination over C(Q)."""
    rows = []
    for z, v in zip(roots, values):
        row = [(Fraction(1), Fraction(0))]
        for _ in range(d - 1):
            row.append(_cmul(row[-1], z))
        rows.append(row + [v])
    n = d
    for col in range(n):
        piv = None
        best = Fraction(0)
        for r in range(col, n):
            mag = _cabs2(rows[r][col])
            if mag > best:
                best = mag
                piv = r
        if piv is None or best == 0:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        pv = rows[col][col]
        rows[col] = [_cdiv(e, pv) for e in rows[col]]
        for r in range(n):
            if r != col and (rows[r][col][0] or rows[r][col][1]):
                f = rows[r][col]
                rows[r] = [_csub(e, _cmul(f, rows[col][i])) for i, e in enumerate(rows[r])]
    return [rows[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# Corpus fields


@lru_cache(maxsize=None)
def quadratic_field(d: int) -> NumberField:
    """Q(sqrt(d)) for a squarefree integer d."""
    if d in (0, 1):
        raise ValueError("d must define a quadratic extension")
    return NumberField([-d, 0, 1], name=f"Q(sqrt({d}))")


@lru_cache(maxsize=None)
def cbrt2_field() -> NumberField:
    """Q(2^(1/3)), minimal polynomial x^3 - 2."""
    return NumberField([-2, 0, 0, 1], name="Q(cbrt(2))")


@lru_cache(maxsize=None)
def quartic_field() -> NumberField:
    """The quartic field x^4 + 2x^3 + 4x + 2 over which the degree-6 form of
    the cube-cube-square-cube case splits into two cubic forms."""
    return NumberField([2, 4, 0, 2, 1], name="Q[x]/(x^4+2x^3+4x+2)")


@lru_cache(maxsize=None)
def cubic_field_57_4() -> NumberField:
    """The cubic field x^3 + (57/4)x^2 + 39x + 1 used to factor the even
    sextic y^2 = x^6 + (57/4)x^4 + 39x^2 + 1."""
    return NumberField([1, 39, Fraction(57, 4), 1], name="Q[x]/(x^3+(57/4)x^2+39x+1)")


FIELDS = {
    "sqrt2": lambda: quadratic_field(2),
    "i": lambda: quadratic_field(-1),
    "sqrt-2": lambda: quadratic_field(-2),
    "sqrt3": lambda: quadratic_field(3),
    "sqrt6": lambda: quadratic_field(6),
    "cbrt2": cbrt2_field,
    "quartic": quartic_field,
    "cubic57over4": cubic_field_57_4,
}


def field_by_name(name: str) -> NumberField:
    try:
        return FIELDS[name]()
    except KeyError:
        raise ValueError(f"unknown corpus field {name!r}") from None

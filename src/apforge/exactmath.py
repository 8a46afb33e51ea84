"""Exact rational arithmetic, univariate polynomials, binary forms, primes.

Everything here is exact: coefficients are `fractions.Fraction` (or number
field elements, which expose the same operator protocol).  No floating point
enters any result.  `UniPoly` is the only dense polynomial arithmetic: a
`BinaryForm` is a view of one, `poly_divmod` reduces, and `power` is the one
square-and-multiply.  `horner` and `form_value` are the one evaluator of a
coefficient list and of a binary form, exact or modulo an integer and on
int64 arrays alike.  On top sit exact k-th roots of forms and integers,
resultants and extended gcds by Euclidean remainders, the determinant of an
integer matrix by fraction-free elimination (`int_det`), discriminants, and
the prime helpers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence


def as_coeff(c):
    """Coerce an int to Fraction; pass ring elements through; refuse strings."""
    if isinstance(c, str):
        raise TypeError(f"coefficient {c!r} is a string, not a number")
    return Fraction(c) if isinstance(c, int) else c


def _ring_zero(c):
    # Works for Fraction and for field elements alike.
    return c - c


def power(base, k: int, one):
    """base**k for k >= 0 by square-and-multiply; one is the ring's unit."""
    if k < 0:
        raise ValueError("negative power")
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


class BinaryForm:
    """Homogeneous polynomial in two variables with exact coefficients.

    The form of degree n over the UniPoly g is f(x, y) = x^n g(y/x), so
    ``coeffs[j]``, the coefficient of x^(degree-j) * y^j, is g's j-th one
    padded with ring zeros up to index n; arithmetic is g's.  The zero form
    has degree 0 and the single coefficient 0 (no -infinity degree arithmetic).
    """

    __slots__ = ("degree", "poly")

    def __init__(self, coeffs: Sequence):
        self.poly = UniPoly(coeffs)
        self.degree = 0 if self.poly.is_zero else len(coeffs) - 1

    @classmethod
    def _of(cls, poly: "UniPoly", degree: int) -> "BinaryForm":
        form = object.__new__(cls)
        form.poly = poly
        form.degree = 0 if poly.is_zero else degree
        return form

    @property
    def coeffs(self) -> tuple:
        cs = self.poly.coeffs
        return cs + (_ring_zero(cs[0]),) * (self.degree + 1 - len(cs))

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def __eq__(self, other):
        return (isinstance(other, BinaryForm) and self.degree == other.degree
                and self.poly == other.poly)

    def __hash__(self):
        return hash((self.degree, self.poly))

    def __repr__(self):
        return f"BinaryForm({list(self.coeffs)!r})"

    def __add__(self, other):
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return BinaryForm._of(self.poly + other.poly, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BinaryForm._of(-self.poly, self.degree)

    def __mul__(self, other):
        """Product with a form (degrees add) or with a scalar."""
        if isinstance(other, BinaryForm):
            return BinaryForm._of(self.poly * other.poly, self.degree + other.degree)
        return BinaryForm._of(self.poly * other, self.degree)

    __rmul__ = __mul__

    def pow(self, k: int) -> "BinaryForm":
        return BinaryForm._of(self.poly ** k, self.degree * k)

    def substitute_linear(self, px, qx, py, qy) -> "BinaryForm":
        """f(px*x + qx*y, py*x + qy*y), exact: x^n sum_j c_j U^(n-j) V^j with
        U = px + qx t, V = py + qy t and t = y/x."""
        u, v = UniPoly([px, qx]), UniPoly([py, qy])
        n = self.degree
        acc = UniPoly([0])
        for j, c in enumerate(self.coeffs):
            acc = acc + u ** (n - j) * v ** j * c
        return BinaryForm._of(acc, n)


def horner(coeffs: Sequence, x, mod=None):
    """sum coeffs[i] x^i, coefficients ascending, at an int, Fraction, ring
    element or int64 array x.  With mod, each coefficient and each step is
    reduced, so no coefficient enters an array and, for 0 <= x < mod, every
    value stays below mod^2."""
    acc = coeffs[-1] if mod is None else coeffs[-1] % mod
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c if mod is None else (acc * x + c % mod) % mod
    return acc


def form_value(coeffs: Sequence, x, y, mod=None):
    """sum coeffs[j] x^(n-j) y^j, n = len(coeffs) - 1: Horner's rule in x with
    the powers of y alongside.  Inputs and reduction are as for `horner`; for
    0 <= x, y < mod every value stays below 2 mod^2."""
    acc, ypow = coeffs[0] if mod is None else coeffs[0] % mod, 1
    for c in coeffs[1:]:
        ypow = ypow * y if mod is None else ypow * y % mod
        acc = acc * x + c * ypow if mod is None else (acc * x + c % mod * ypow) % mod
    return acc


def form_eval(f: BinaryForm, x, y):
    """Exact value f(x, y)."""
    return form_value(f.coeffs, as_coeff(x), as_coeff(y))


def form_exact_root(f: BinaryForm, k: int):
    """Return g with g**k == f exactly, or None when no such form exists.

    The root of f = x^n g(t), t = y/x, is x^(n/k) r(t) with r^k = g.  Past
    the factor t^(shift/k), r's coefficients are matched upward from the
    real rational k-th root of g's lowest nonzero one (positive for even k).
    A full verification multiply guards the under-determined ones.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if f.is_zero:
        return BinaryForm([0])
    if k == 1:
        return f
    cs = f.poly.coeffs
    shift = next(j for j, c in enumerate(cs) if c)
    if f.degree % k or shift % k:
        return None
    lead = rat_kth_root(cs[shift], k)
    if lead is None:
        return None
    r = [lead]
    # r^k's coefficient at index i is linear in r[i] with factor k*lead^(k-1).
    factor = k * lead ** (k - 1)
    for i in range(1, (len(cs) - 1 - shift) // k + 1):
        partial = (UniPoly(r) ** k).coeffs  # index i depends on r[0..i-1] only
        r.append((cs[shift + i] - (partial[i] if i < len(partial) else 0)) / factor)
    candidate = BinaryForm._of(UniPoly([0] * (shift // k) + r), f.degree // k)
    return candidate if candidate.pow(k) == f else None


def rat_kth_root(q: Fraction, k: int):
    """Exact k-th root of a rational, or None.  Even k roots are positive."""
    if not isinstance(q, Fraction):
        raise TypeError("exact roots only over the rationals")
    if q == 0:
        return Fraction(0)
    if k % 2 == 0 and q < 0:
        return None
    num = int_kth_root(q.numerator, k)
    den = int_kth_root(q.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def int_kth_root(n: int, k: int):
    """Return r with r**k == n exactly, else None.

    Newton iteration on integers with an exact final check; sign follows n
    for odd k, and even k requires n >= 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return n
    if n == 0:
        return 0
    if n < 0:
        if k % 2 == 0:
            return None
        r = int_kth_root(-n, k)
        return None if r is None else -r
    if k == 2:
        r = math.isqrt(n)
        return r if r * r == n else None
    r = int_floor_root(n, k)
    return r if r**k == n else None


def int_floor_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0 via integer Newton."""
    if n < (1 << k):
        return min(n, 1)
    x = 1 << (-(-n.bit_length() // k))  # upper-bound seed
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x


def primes_upto(n: int) -> list:
    """All primes p <= n, by the sieve of Eratosthenes."""
    sieve = [True] * (n + 1)
    sieve[0:2] = [False, False]
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    return [i for i, b in enumerate(sieve) if b]


def is_prime(n: int) -> bool:
    """True iff n is a prime, by trial division."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def square_split(n: int):
    """(s, t) with n = s * t^2 and s squarefree, for n >= 0.

    Trial division stops once d^3 exceeds the cofactor R; then R has at most
    two prime factors, each above R^(1/3), so R is a square (1 or p^2) or
    squarefree (p or p*q), and coprime to the primes divided out before.
    """
    s, t, d = 1, 1, 2
    while d * d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        s *= d ** (e % 2)
        t *= d ** (e // 2)
        d += 1
    root = math.isqrt(n)
    return (s, t * root) if root * root == n else (s * n, t)


class UniPoly:
    """Dense univariate polynomial, coefficients ascending by degree.

    The coefficient ring is anything with +, -, *, / and truthiness: in
    practice Fraction or numfield.FieldElem.  The zero polynomial is [0].
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [as_coeff(c) for c in coeffs]
        while len(cs) > 1 and not cs[-1]:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and not self.coeffs[0]

    def lead(self):
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            other = as_coeff(other)
            return UniPoly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return UniPoly([_ring_zero(self.lead() * other.lead())])
        out = [None] * (self.degree + other.degree + 1)
        for i, ca in enumerate(self.coeffs):
            for j, cb in enumerate(other.coeffs):
                t = ca * cb
                out[i + j] = t if out[i + j] is None else out[i + j] + t
        zero = _ring_zero(out[0])
        return UniPoly([zero if c is None else c for c in out])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UniPoly":
        return power(self, k, UniPoly([_ring_zero(self.lead()) + 1]))

    def eval(self, x):
        return horner(self.coeffs, as_coeff(x))

    def derivative(self) -> "UniPoly":
        if self.degree == 0:
            return UniPoly([_ring_zero(self.lead())])
        return UniPoly([c * i for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "UniPoly":
        lc = self.lead()
        if not lc:
            raise ZeroDivisionError("zero polynomial has no monic form")
        return UniPoly([c / lc for c in self.coeffs])


def poly_divmod(num: UniPoly, den: UniPoly):
    """Quotient and remainder over a field, padded with the ring's zero."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    zero = _ring_zero(den.lead())
    q = [zero] * max(num.degree - den.degree + 1, 1)
    rem = list(num.coeffs)
    dd = den.degree
    inv = 1 / den.lead() if num.degree >= dd else None  # one inversion per division
    while len(rem) - 1 >= dd and any(rem):
        if not rem[-1]:
            rem.pop()
            continue
        shift = len(rem) - 1 - dd
        factor = rem[-1] * inv
        q[shift] = factor
        for i, c in enumerate(den.coeffs):
            rem[shift + i] -= factor * c
        rem.pop()
    return UniPoly(q), UniPoly(rem or [zero])


def poly_xgcd(a: UniPoly, b: UniPoly):
    """(g, s, t) with s*a + t*b == g, g the monic gcd of a and b (zero when
    both are), by the Euclidean remainder sequence over any field."""
    zero = _ring_zero(b.lead())
    s0, s1 = UniPoly([zero + 1]), UniPoly([zero])
    t0, t1 = s1, s0
    while not b.is_zero:
        q, r = poly_divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a.is_zero:
        return a, s0, t0
    inv = 1 / a.lead()
    return a * inv, s0 * inv, t0 * inv


def uni_resultant(p: UniPoly, q: UniPoly):
    """Resultant of p and q by the Euclidean remainder sequence, over any field.

    Res(p, q) = lc(p)^deg(q) * prod q over the roots of p.  For degrees m, n
    and r = p mod q, Res(p, q) = (-1)^(mn) lc(q)^(m - deg r) Res(q, r) (Cohen,
    A Course in Computational Algebraic Number Theory, 3.3), which is 0 once a
    remainder vanishes at deg q > 0.  A degree-0 argument c gives c^deg(other).
    """
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of the zero polynomial")
    res = _ring_zero(q.lead()) + 1
    while q.degree > 0:
        r = poly_divmod(p, q)[1]
        if r.is_zero:
            return _ring_zero(res)
        if p.degree * q.degree % 2:
            res = -res
        res = res * q.lead() ** (p.degree - r.degree)
        p, q = q, r
    return res * q.coeffs[0] ** p.degree


def int_det(rows) -> int:
    """Determinant of a square integer matrix, given as its rows, by
    Bareiss's fraction-free elimination (Math. Comp. 22, 1968): after step
    k every entry below and right of the pivots is a (k + 1) x (k + 1)
    minor, so each division by the previous pivot is exact and no value
    leaves the integers.  A zero pivot swaps in a lower row, negating."""
    a = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(a) - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        pivot, top = a[k][k], a[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, len(a)):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * a[-1][-1] if a else 1


def _sylvester(p: Sequence[int], q: Sequence[int]) -> list:
    """The Sylvester matrix of the polynomials with ascending coefficients p
    and q, of degrees m and n: n shifted rows of p, then m of q, each
    descending; its determinant is Res(p, q)."""
    m, n = len(p) - 1, len(q) - 1
    return ([[0] * i + list(p[::-1]) + [0] * (n - 1 - i) for i in range(n)]
            + [[0] * i + list(q[::-1]) + [0] * (m - 1 - i) for i in range(m)])


@lru_cache(maxsize=None)
def discriminant(coeffs: tuple):
    """Res(f, f') for f with these ascending coefficients (trailing zeros
    ignored): zero iff f has a repeated root, an integer for integer f.  A
    cubic takes the closed form.  Rational f of degree n >= 1 with D the
    lcm of its denominators: D f is integral, Res(D f, D f') = D^(2n - 1)
    Res(f, f'), and the left side is the `int_det` of their Sylvester
    matrix.  Other coefficient rings take `uni_resultant`.  Cached: curves,
    fields, point counts and local solvability each ask again."""
    f = UniPoly(coeffs)
    n = f.degree
    if n == 3:
        d, c, b, a = f.coeffs
        return -a * (b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d
                     + 18 * a * b * c * d)
    if n < 1 or not all(isinstance(c, Fraction) for c in f.coeffs):
        return uni_resultant(f, f.derivative())
    scale = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in f.coeffs]
    det = int_det(_sylvester(ints, [i * c for i, c in enumerate(ints)][1:]))
    return Fraction(det, scale ** (2 * n - 1))

"""Exact rational arithmetic, binary forms, and univariate polynomials.

Everything here is exact: coefficients are `fractions.Fraction` (or number
field elements, which expose the same operator protocol).  No floating point
enters any result.  This layer carries all the symbolic algebra the rest of
the package does: form expansion, exact k-th roots of forms and integers,
and resultants via Sylvester determinants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def as_coeff(c):
    """Coerce an int to Fraction; pass ring elements through; refuse strings."""
    if isinstance(c, str):
        raise TypeError(f"coefficient {c!r} is a string, not a number")
    return Fraction(c) if isinstance(c, int) else c


def _ring_zero(c):
    # Works for Fraction and for field elements alike.
    return c - c


class BinaryForm:
    """Homogeneous polynomial in two variables with exact coefficients.

    ``coeffs[j]`` is the coefficient of x^(degree-j) * y^j.  The zero form is
    represented as degree 0 with the single coefficient 0 (no -infinity
    degree arithmetic).
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, coeffs: Sequence):
        cs = [as_coeff(c) for c in coeffs]
        if not cs:
            cs = [Fraction(0)]
        if all(not c for c in cs):
            cs = [_ring_zero(cs[0])]
        self.coeffs = tuple(cs)
        self.degree = len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and not self.coeffs[0]

    def __eq__(self, other):
        return isinstance(other, BinaryForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"BinaryForm({list(self.coeffs)!r})"

    def __add__(self, other):
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return BinaryForm([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BinaryForm([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            return form_mul(self, other)
        other = as_coeff(other)
        if not other:
            return BinaryForm([other * 0])
        return BinaryForm([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def pow(self, k: int) -> "BinaryForm":
        if k < 0:
            raise ValueError("negative power of a form")
        result = BinaryForm([1])
        base = self
        while k:
            if k & 1:
                result = form_mul(result, base)
            base = form_mul(base, base)
            k >>= 1
        return result

    def substitute_linear(self, px, qx, py, qy) -> "BinaryForm":
        """f(px*x + qx*y, py*x + qy*y), exact."""
        px, qx, py, qy = (as_coeff(t) for t in (px, qx, py, qy))
        n = self.degree
        u = BinaryForm([px, qx])
        v = BinaryForm([py, qy])
        acc = None
        for j, c in enumerate(self.coeffs):
            term = u.pow(n - j) * v.pow(j) * c
            acc = term if acc is None else _padded_add(acc, term, n)
        return acc

    def eval(self, x, y):
        return form_eval(self, x, y)


def _padded_add(a: BinaryForm, b: BinaryForm, degree: int) -> BinaryForm:
    """Add forms that may have collapsed to zero, at a fixed target degree."""

    def padded(f):
        if f.is_zero:
            return [Fraction(0)] * (degree + 1)
        if f.degree != degree:
            raise ValueError("degree mismatch in padded add")
        return list(f.coeffs)

    return BinaryForm([u + v for u, v in zip(padded(a), padded(b))])


def form_mul(a: BinaryForm, b: BinaryForm) -> BinaryForm:
    """Exact product of two binary forms; degree adds."""
    if a.is_zero or b.is_zero:
        return BinaryForm([0])
    out = [None] * (a.degree + b.degree + 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            t = ca * cb
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    zero = _ring_zero(out[0])
    return BinaryForm([zero if c is None else c for c in out])


def form_eval(f: BinaryForm, x, y):
    """Exact value f(x, y)."""
    x = as_coeff(x)
    y = as_coeff(y)
    total = _ring_zero(f.coeffs[0])
    xp = [1] * (f.degree + 1)
    yp = [1] * (f.degree + 1)
    for i in range(1, f.degree + 1):
        xp[i] = xp[i - 1] * x
        yp[i] = yp[i - 1] * y
    for j, c in enumerate(f.coeffs):
        total = total + c * (xp[f.degree - j] * yp[j])
    return total


def form_exact_root(f: BinaryForm, k: int):
    """Return g with g**k == f exactly, or None when no such form exists.

    Coefficients are matched from the top degree downward; the leading
    coefficient of g is the real rational k-th root of f's leading
    coefficient (positive root for even k).  A full verification multiply
    guards the under-determined trailing coefficients.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if f.is_zero:
        return BinaryForm([0])
    if k == 1:
        return f
    if f.degree % k != 0:
        return None
    # Strip a power of y so the leading (x-)coefficient is nonzero.
    shift = 0
    while not f.coeffs[shift]:
        shift += 1
    if shift % k != 0:
        return None
    body = list(f.coeffs[shift:])
    n = len(body) - 1
    m = n // k
    lead = rat_kth_root(body[0], k)
    if lead is None:
        return None
    g = [lead]
    # g^k's coefficient at index i is linear in g[i] with factor k*lead^(k-1).
    factor = k * lead ** (k - 1)
    for i in range(1, m + 1):
        partial = _power_coeff(g, k, i)
        g.append((body[i] - partial) / factor)
    # Leading zeros (the stripped y-power) go back in front.
    candidate = BinaryForm([Fraction(0)] * (shift // k) + g)
    if candidate.pow(k) == f:
        return candidate
    return None


def _power_coeff(g: list, k: int, i: int):
    """Coefficient of index i in (sum g[j] t^j)^k, using only g[0..i-1]."""
    trunc = g[:i] + [Fraction(0)]
    # Repeated truncated convolution; i is small (<= deg/k) so this is cheap.
    acc = [Fraction(1)] + [Fraction(0)] * i
    for _ in range(k):
        nxt = [Fraction(0)] * (i + 1)
        for p, cp in enumerate(acc):
            if not cp:
                continue
            for q, cq in enumerate(trunc):
                if p + q > i:
                    break
                nxt[p + q] += cp * cq
        acc = nxt
    return acc[i]


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
            return UniPoly([0])
        out = [None] * (self.degree + other.degree + 1)
        for i, ca in enumerate(self.coeffs):
            for j, cb in enumerate(other.coeffs):
                t = ca * cb
                out[i + j] = t if out[i + j] is None else out[i + j] + t
        zero = _ring_zero(out[0])
        return UniPoly([zero if c is None else c for c in out])

    __rmul__ = __mul__

    def eval(self, x):
        x = as_coeff(x)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        if self.degree == 0:
            return UniPoly([0])
        return UniPoly([c * i for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "UniPoly":
        lc = self.lead()
        if not lc:
            raise ZeroDivisionError("zero polynomial has no monic form")
        return UniPoly([c / lc for c in self.coeffs])


def poly_divmod(num: UniPoly, den: UniPoly):
    """Quotient and remainder; coefficients must form a field."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(num.degree - den.degree + 1, 1)
    rem = list(num.coeffs)
    dlead = den.lead()
    dd = den.degree
    while len(rem) - 1 >= dd and any(rem):
        if not rem[-1]:
            rem.pop()
            continue
        shift = len(rem) - 1 - dd
        factor = rem[-1] / dlead
        q[shift] = factor
        for i, c in enumerate(den.coeffs):
            rem[shift + i] -= factor * c
        rem.pop()
    return UniPoly(q), UniPoly(rem)


def uni_resultant(p: UniPoly, q: UniPoly):
    """Resultant of p and q via the Sylvester matrix determinant.

    Exact over any coefficient field; Res(p, q) = lc(p)^deg(q) * prod q over
    the roots of p.  A degree-0 argument c gives c^deg(other).
    """
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of the zero polynomial")
    m, n = p.degree, q.degree
    if m == 0:
        return p.coeffs[0] ** n
    if n == 0:
        return q.coeffs[0] ** m
    size = m + n
    zero = _ring_zero(p.coeffs[0] * q.coeffs[0])
    rows = []
    pd = list(reversed(p.coeffs))  # descending
    qd = list(reversed(q.coeffs))
    for i in range(n):
        rows.append([zero] * i + pd + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + qd + [zero] * (size - n - 1 - i))
    return _det_field(rows, zero)


def _det_field(rows: list, zero):
    """Determinant by Gaussian elimination; entries live in a field."""
    n = len(rows)
    rows = [list(r) for r in rows]
    det = zero + 1
    sign = 1
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            return zero
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        pv = rows[col][col]
        det = det * pv
        inv = 1 / pv
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det if sign == 1 else -det

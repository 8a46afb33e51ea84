"""Curve layer: the curve models and their reduction mod p, with point
counts and Jacobian orders over finite fields.

Genus-2 curves are y^2 = f(x) with rational coefficients and squarefree f
of degree 5 or 6.  Finite-field work happens on the denominator-cleared
model (x, y) -> (x, v*y) with the smallest v making v^2*f integral, which
is a point-count-preserving change of model away from p | v.

Counting conventions for the smooth projective model:
  deg f = 6: two points at infinity when lc(f) is a square in F_q, else none
  deg f = 5: exactly one point at infinity
The Jacobian order over F_p comes from the L-polynomial evaluated at 1,
with coefficients fixed by the point counts over F_p and F_{p^2}.

Point counts are numpy kernels in blocks of about _BLOCK cells, so memory
does not grow with q.  Over F_{p^2} they take each conjugate pair a +- sqrt(w)
(w a non-residue) once, through the Taylor coefficients of f at each a in
F_p, and read squareness from the norm E^2 - w O^2 in one p-entry table of
F_p squares.  Every int64 product stays below p^(e+1) < 2^62 for q = p^e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .exactmath import BinaryForm, UniPoly, is_prime, square_split, uni_resultant
from .numfield import NumberField
from .sieve import INT64_SAFE


class BadReduction(Exception):
    """The prime divides the discriminant or leading data of the model."""


@dataclass(frozen=True)
class HyperCurve:
    """y^2 = f(x), deg f in {5, 6}, f squarefree; genus 2."""

    label: str
    f: UniPoly

    def __post_init__(self):
        if self.f.degree not in (5, 6):
            raise ValueError("hyperelliptic model needs degree 5 or 6")
        if not _disc(self.f.coeffs):
            raise ValueError("f must be squarefree")

    def integral_model(self):
        """(coeffs ascending as ints padded to degree 6, scale v) with
        v^2 * f integral and v minimal."""
        return _integral_model_any(self.f)


@dataclass(frozen=True)
class EllipticModel:
    """Y^2 = rhs(X) with rhs a cubic over Q or a corpus number field."""

    label: str
    rhs: UniPoly
    field: Optional[NumberField] = None

    def __post_init__(self):
        if self.rhs.degree != 3:
            raise ValueError("elliptic model needs a cubic right-hand side")
        if not uni_resultant(self.rhs, self.rhs.derivative()):
            raise ValueError("discriminant vanishes")


@dataclass(frozen=True)
class SuperellipticForm:
    """Binary sextic f(x, y) tied to the relation f = mult * z^power."""

    label: str
    form: BinaryForm
    z_mult: int
    z_power: int


@lru_cache(maxsize=None)
def _disc(coeffs) -> Fraction:
    """Res(f, f') for f with these ascending rational coefficients (trailing
    zeros ignored): zero iff f has a repeated root, an integer for integer f.
    Cached: every point count and local solvability test asks again."""
    poly = UniPoly(coeffs)
    return uni_resultant(poly, poly.derivative())


@lru_cache(maxsize=None)
def _integral_model_any(f: UniPoly):
    """(ascending integer coefficients of v^2 f padded to degree 6, v), with
    v the least positive integer making v^2 f integral.

    v^2 f is integral iff the lcm L of the denominators divides v^2, so v is
    the product of p^ceil(e/2) over p^e || L, which is s t for L = s t^2.
    Cached: point counts, the point search and local solvability each ask.
    """
    s, t = square_split(math.lcm(*(Fraction(c).denominator for c in f.coeffs)))
    v = s * t
    coeffs = [int(c * v * v) for c in f.coeffs] + [0] * (6 - f.degree)
    return tuple(coeffs), v


def _good_reduction_data(curve: HyperCurve, p: int):
    coeffs, v = curve.integral_model()
    deg = curve.f.degree
    disc = _disc(coeffs)
    if p < 3:
        raise BadReduction("odd primes only")
    if v % p == 0 or coeffs[deg] % p == 0 or disc % p == 0:
        raise BadReduction(f"bad reduction of {curve.label} at {p}")
    return coeffs, deg


def count_points(curve: HyperCurve, q: int) -> int:
    """Points on the smooth projective model over F_q, q = p or p^2, p odd."""
    p, e = _prime_power(q)
    if p ** (e + 1) >= INT64_SAFE:
        raise ValueError("the int64 kernels need p^(e+1) < 2^62")
    coeffs, deg = _good_reduction_data(curve, p)
    return int(_count_fq(coeffs, deg, p, e))  # numpy counts are numpy.intp


def _prime_power(q: int):
    if is_prime(q):
        return q, 1
    r = math.isqrt(q)
    if r * r == q and is_prime(r):
        return r, 2
    raise ValueError("q must be a prime or the square of a prime")


_BLOCK = 1 << 16


def _count_fq(coeffs, deg: int, p: int, e: int) -> int:
    """Points over F_q, q = p^e, e in {1, 2}: affine ones plus those at
    infinity.  F_{p^2} is F_p[t]/(t^2 - nu) with nu a non-residue.

    Per block of a in F_p: Taylor coefficients g_j(a) = f^(j)(a)/j! by
    repeated synthetic division by x - a; F_p needs only g_0 = f(a).  Each
    x in F_{p^2} off F_p is one of a conjugate pair a +- s, s^2 = w = nu b^2,
    1 <= b <= (p-1)/2 (each non-residue w once), where f(a +- s) = E +- s O
    for E = sum g_2k(a) w^k and O = sum g_2k+1(a) w^k, one matrix product
    each.  A nonzero z is a square in F_q iff its norm to F_p is a square in
    F_p, as z^((q-1)/2) = N(z)^((p-1)/2); so the pair adds 2 (#(N = 0) +
    2 #(N square)) for N = E^2 - w O^2, and b = 0 adds 1 or 2 as f(a) is 0
    or not (F_p is all square in F_{p^2}).  Entries are reduced below p, so
    Horner steps, squares and w O^2 stay below p^2, the matrix products
    below 4 p^2, nu b^2 and w^3 below p^3 < 2^62 (checked in count_points).
    """
    sq = np.zeros(p, dtype=bool)  # True at the nonzero squares of F_p
    sq[np.arange(1, p, dtype=np.int64) ** 2 % p] = True
    nu = next(n for n in range(2, p) if not sq[n])
    count, rows = 0, min(p, _BLOCK)
    for start in range(0, p, rows):
        a = np.arange(start, min(start + rows, p), dtype=np.int64)
        quot, g = [np.full_like(a, c % p) for c in reversed(coeffs[: deg + 1])], []
        for _ in range(1 if e == 1 else deg + 1):
            for k in range(1, len(quot)):
                quot[k] = (quot[k] + a * quot[k - 1]) % p
            g.append(quot.pop())
        count += np.count_nonzero(g[0] == 0) + 2 * np.count_nonzero(sq[g[0]] if e == 1 else g[0])
        if e == 1:
            continue
        even, odd = np.stack(g[0::2], axis=1), np.stack(g[1::2], axis=1)
        step = max(1, _BLOCK // a.size)
        for b0 in range(1, (p + 1) // 2, step):
            w = nu * np.arange(b0, min(b0 + step, (p + 1) // 2), dtype=np.int64) ** 2 % p
            wk = np.stack([w**k % p for k in range(even.shape[1])])
            ev, od = even @ wk % p, odd @ wk[: odd.shape[1]] % p
            norm = (ev * ev - w * (od * od % p)) % p
            count += 2 * (np.count_nonzero(norm == 0) + 2 * np.count_nonzero(sq[norm]))
    if deg == 5:
        return count + 1
    # N(lc) = lc^e; for e = 2 it is always a square, and the test says so.
    return count + (2 if sq[coeffs[deg] ** e % p] else 0)


def l_poly_coeffs(curve: HyperCurve, p: int):
    """(c1, c2) with L(T) = 1 + c1 T + c2 T^2 + p c1 T^3 + p^2 T^4."""
    n1 = count_points(curve, p)
    n2 = count_points(curve, p * p)
    c1 = n1 - (p + 1)
    num = n2 - p * p - 1 + c1 * c1
    if num % 2 != 0:
        raise AssertionError("parity violation in L-polynomial data")
    return c1, num // 2


def jacobian_order(curve: HyperCurve, p: int) -> int:
    """#J(F_p) for the genus-2 Jacobian: the L-polynomial at 1."""
    c1, c2 = l_poly_coeffs(curve, p)
    return 1 + c1 + c2 + p * c1 + p * p


def torsion_gcd_bound(curve: HyperCurve, primes: Sequence[int]) -> int:
    """gcd of Jacobian orders: a multiple of the rational torsion order."""
    if not primes:
        raise ValueError("need at least one prime")
    g = 0
    for p in primes:
        g = math.gcd(g, jacobian_order(curve, p))
    return g

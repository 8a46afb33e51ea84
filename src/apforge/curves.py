"""Curve layer: the curve models and their reduction mod p, with point
counts and Jacobian orders over finite fields.

Genus-2 curves are y^2 = f(x) with rational coefficients and squarefree f
of degree 5 or 6; both models test f through `exactmath.discriminant`.
Finite-field work happens on the denominator-cleared model (x, y) ->
(x, v*y) with the smallest v making v^2*f integral, which is a
point-count-preserving change of model away from p | v: `integral_model(f)`
builds it once per f, and `good_reduction_data` checks a prime against it.

Counting convention for the smooth projective model of y^2 = f(x), in
every layer: odd deg f gives exactly one point at infinity; even deg f gives
two when lc(f) is a square in the field, else none.
The Jacobian order over F_p comes from the L-polynomial evaluated at 1,
with coefficients fixed by the point counts over F_p and F_{p^2}.

Point counts are numpy kernels in blocks of about _BLOCK cells, so their
working memory does not grow with q; the per-prime tables they read are
O(p) and cached.  Each x adds its number of square roots of f(x), read from
one p-entry table.  Over F_p, f(x) comes from `exactmath.horner` mod p.
Over F_{p^2} they take each conjugate pair a +- s (s^2 = w, w a
non-residue) once and read the norm f(a + s) f(a - s) from the curve's norm
form, an exact 13 x 7 integer matrix H: one block of (a, w) is
((V @ H) % p) @ W % p for power tables V of a and W of w.  Every int64
value stays below 13 p^2, far under 2^62 as count_points asks
p^(e+1) < 2^62 for q = p^e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .exactmath import BinaryForm, UniPoly, discriminant, horner, is_prime, square_split
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
        if not discriminant(self.f.coeffs):
            raise ValueError("f must be squarefree")


@dataclass(frozen=True)
class EllipticModel:
    """Y^2 = f(X) with f a cubic over Q or a corpus number field."""

    label: str
    f: UniPoly
    field: Optional[NumberField] = None

    def __post_init__(self):
        if self.f.degree != 3:
            raise ValueError("elliptic model needs a cubic right-hand side")
        if not discriminant(self.f.coeffs):
            raise ValueError("discriminant vanishes")


@dataclass(frozen=True)
class SuperellipticForm:
    """Binary sextic f(x, y) tied to the relation f = mult * z^power."""

    label: str
    form: BinaryForm
    z_mult: int
    z_power: int


@lru_cache(maxsize=None)
def integral_model(f: UniPoly):
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


def good_reduction_data(curve: HyperCurve, p: int):
    """(integral-model coefficients, deg f) of a curve with good reduction at
    the odd prime p; raises BadReduction otherwise."""
    coeffs, v = integral_model(curve.f)
    deg = curve.f.degree
    disc = discriminant(coeffs).numerator  # an integer, as coeffs are
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
    coeffs, deg = good_reduction_data(curve, p)
    return _count_fq(coeffs, deg, p, e)


def _prime_power(q: int):
    r = math.isqrt(q)  # the square test first: trial division of p^2 runs to p
    if r * r == q and is_prime(r):
        return r, 2
    if is_prime(q):
        return q, 1
    raise ValueError("q must be a prime or the square of a prime")


_BLOCK = 1 << 16
# Per-prime tables are O(p) and read-only, shared by every curve counted at p;
# 128 primes is every prime below 727.
_PRIMES_CACHED = 128


def _frozen(array):
    array.flags.writeable = False
    return array


@lru_cache(maxsize=_PRIMES_CACHED)
def _root_counts(p: int):
    """int64 table over F_p of #{y in F_p : y^2 = z}: 1 at 0, 2 at the nonzero
    squares, 0 at the non-residues."""
    roots = np.zeros(p, dtype=np.int64)
    roots[np.arange(1, p, dtype=np.int64) ** 2 % p] = 2
    roots[0] = 1
    return _frozen(roots)


@lru_cache(maxsize=_PRIMES_CACHED)
def _fp2_powers(p: int):
    """(V, W) for F_{p^2} = F_p[t]/(t^2 - nu), nu the least non-residue:
    V[a, i] = a^i for a in F_p and i <= 12, W[j, b] = (nu b^2)^j for j <= 6
    and 0 <= b <= (p-1)/2, all reduced mod p (int64)."""
    nu = int(np.flatnonzero(_root_counts(p) == 0)[0])
    a = np.arange(p, dtype=np.int64)
    w = nu * (a[: (p + 1) // 2] ** 2 % p) % p
    powers_a, powers_w = np.ones((p, 13), dtype=np.int64), np.ones((7, w.size), dtype=np.int64)
    for i in range(1, 13):
        powers_a[:, i] = powers_a[:, i - 1] * a % p
    for j in range(1, 7):
        powers_w[j] = powers_w[j - 1] * w % p
    return _frozen(powers_a), _frozen(powers_w)


@lru_cache(maxsize=None)
def _norm_form(coeffs):
    """H (13 x 7, exact integers) with f(x + s) f(x - s) = sum H[i, j] x^i (s^2)^j
    for f of degree <= 6 with these ascending integer coefficients."""
    taylor = [(k - m, m, c * math.comb(k, m))  # f(x + s) = sum c x^i s^m
              for k, c in enumerate(coeffs) if c for m in range(k + 1)]
    h = np.zeros((13, 7), dtype=object)
    for i1, m1, c1 in taylor:
        for i2, m2, c2 in taylor:
            if (m1 + m2) % 2 == 0:  # odd powers of s cancel between the two factors
                h[i1 + i2, (m1 + m2) // 2] += c1 * c2 * (-1) ** m2
    return _frozen(h)


def _count_fq(coeffs, deg: int, p: int, e: int) -> int:
    """Points over F_q, q = p^e, e in {1, 2}: affine ones plus those at
    infinity.  Each x adds #{y in F_q : y^2 = f(x)}; over F_p that is
    R[f(x)] for R = _root_counts(p), f(x) by `horner` mod p on a block of x.

    F_{p^2} is F_p[t]/(t^2 - nu).  Each x in it is a + s with a in F_p and
    s^2 = w = nu b^2, 0 <= b <= (p-1)/2; b = 0 is x = a, and b >= 1 is one
    conjugate pair a +- s, both with the same count.  A z in F_{p^2} is a
    nonzero square iff its norm is a nonzero square in F_p, as z^((q-1)/2) =
    N(z)^((p-1)/2), so x adds R[N(f(x))], and N(f(a + s)) = f(a + s) f(a - s)
    = sum H[i, j] a^i w^j for H = _norm_form(f).  Per block of (a, b) that is
    ((V @ H) % p) @ W % p, with V and W the power tables of _fp2_powers, and
    the count is one bincount against R.  Every table entry is below p, so
    Horner steps stay below p^2 and the two products below 13 p^2 and 7 p^2,
    far under 2^62 as p^(e+1) < 2^62 (checked in count_points).
    """
    roots = _root_counts(p)
    count, rows = 0, min(p, _BLOCK)
    if e == 1:
        for start in range(0, p, rows):
            a = np.arange(start, min(start + rows, p), dtype=np.int64)
            value = horner(coeffs[: deg + 1], a, p)
            count += int(np.bincount(value, minlength=p) @ roots)
    else:
        h = (_norm_form(tuple(coeffs[: deg + 1])) % p).astype(np.int64)
        powers_a, powers_w = _fp2_powers(p)
        step = max(1, _BLOCK // rows)
        for start in range(0, p, rows):
            m = powers_a[start : start + rows] @ h % p
            for b0 in range(0, powers_w.shape[1], step):
                norm = m @ powers_w[:, b0 : b0 + step] % p
                count += 2 * int(np.bincount(norm.ravel(), minlength=p) @ roots)
                if b0 == 0:  # x = a in F_p is its own conjugate: count it once
                    count -= int(roots[norm[:, 0]].sum())
    # At infinity: one for odd deg; for even deg two when lc(f) is a square in F_q, N(lc) = lc^e.
    return count + (1 if deg % 2 else int(roots[coeffs[deg] ** e % p]))


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

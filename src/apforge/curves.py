"""Curve layer: the curve models and their reduction mod p, with point
counts and Jacobian orders over finite fields.

One class, `HyperCurve`, holds every y^2 = f(x) curve, genus 1 or 2: f
squarefree of degree 3, 5 or 6, over Q or a corpus number field.
Finite-field work happens on the denominator-cleared model over Q, (x, y)
-> (x, v*y) with the smallest v making v^2*f integral, which is a
point-count-preserving change of model away from p | v: `integral_model(f)`
builds it, `HyperCurve.model` keeps it once per curve with its
discriminant, and `good_reduction_data` checks a prime against it.

Counting convention for the smooth projective model of y^2 = f(x), in
every layer: odd deg f gives exactly one point at infinity; even deg f gives
two when lc(f) is a square in the field, else none.
The genus-2 Jacobian order over F_p comes from the L-polynomial at 1,
with coefficients fixed by the point counts over F_p and F_{p^2}.

Point counts are numpy kernels in blocks of at most `sieve.BLOCK_CELLS`
cells, so their working memory does not grow with q; the per-prime tables
they read are O(p) and cached.  A count of more than `sieve.WORK_CEILING`
cells (p over F_p, p (p + 1) / 2 over F_{p^2}) is refused with
`sieve.ResourceLimitError` before any table is built, and a Jacobian order's
F_{p^2} count before its F_p count runs; the CLI reports it with exit 3.
Each x adds its number of square roots of f(x), read from one p-entry
table.  Over F_p, f(x) comes from `exactmath.horner` mod p.  Over
F_{p^2} they take each conjugate pair a +- s (s^2 = w, w a non-residue)
once and read the norm f(a + s) f(a - s) from the curve's norm form, an
exact 13 x 7 integer matrix H: one block of (a, w) is two `np.einsum`
contractions, M = H^T V and then W^T M for power tables V of a and W of w,
each reduced mod p as x - (x // p) p.  Every table entry lies in [0, p), so
the products' sums are at most 13 (p - 1)^2 and 7 (p - 1)^2; they run in
int32 while 13 (p - 1)^2 < 2^31, that is for p <= INT32_MAX_PRIME = 12 853,
and in int64 above, where count_points asks p^(e+1) < 2^62.  Both are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .exactmath import BinaryForm, UniPoly, discriminant, horner, is_prime, square_split
from .numfield import NumberField
from .records import FrozenRecord
from . import sieve
from .sieve import BLOCK_CELLS, INT64_SAFE, ResourceLimitError


class BadReduction(Exception):
    """The prime divides the discriminant or leading data of the model."""


class HyperCurve(FrozenRecord):
    """y^2 = f(x), f squarefree of degree 3, 5 or 6 (genus 1 or 2), over Q or field.

    A plain record, not a NamedTuple: it checks f when built and caches
    `model`."""

    _fields = ("label", "f", "field")

    def __init__(self, label: str, f: UniPoly, field: Optional[NumberField] = None):
        if f.degree not in (3, 5, 6):
            raise ValueError("y^2 = f(x) model needs degree 3, 5 or 6")
        if not discriminant(f.coeffs):
            raise ValueError("f must be squarefree")
        self.__dict__.update(label=label, f=f, field=field)

    @cached_property
    def model(self) -> tuple:
        """(coefficients, v, discriminant) of `integral_model(f)` over Q, built
        once: every prime's reduction and local solvability read it.  A curve
        over a number field has none (ValueError)."""
        if self.field is not None:
            raise ValueError(f"{self.label} is over {self.field.name}: "
                             "reduction mod p runs over Q only")
        coeffs, v = integral_model(self.f)
        return coeffs, v, discriminant(coeffs).numerator  # an integer, as coeffs are


class SuperellipticForm(NamedTuple):
    """Binary sextic f(x, y) tied to the relation f = mult * z^power."""

    label: str
    form: BinaryForm
    z_mult: int
    z_power: int


def integral_model(f: UniPoly):
    """(ascending integer coefficients of v^2 f padded to degree 6, v), with
    v the least positive integer making v^2 f integral.

    v^2 f is integral iff the lcm L of the denominators divides v^2, so v is
    the product of p^ceil(e/2) over p^e || L, which is s t for L = s t^2.
    `HyperCurve.model` keeps it per curve.
    """
    s, t = square_split(math.lcm(*(Fraction(c).denominator for c in f.coeffs)))
    v = s * t
    coeffs = [int(c * v * v) for c in f.coeffs] + [0] * (6 - f.degree)
    return tuple(coeffs), v


def good_reduction_data(curve: HyperCurve, p: int):
    """(integral-model coefficients, deg f) of a curve with good reduction at
    the odd prime p; raises BadReduction otherwise."""
    coeffs, v, disc = curve.model
    deg = curve.f.degree
    if p < 3:
        raise BadReduction("odd primes only")
    if v % p == 0 or coeffs[deg] % p == 0 or disc % p == 0:
        raise BadReduction(f"bad reduction of {curve.label} at {p}")
    return coeffs, deg


def count_points(curve: HyperCurve, q: int) -> int:
    """Points on the smooth projective model over F_q, q = p or p^2, p odd.
    A count of more than sieve.WORK_CEILING cells raises ResourceLimitError."""
    p, e = _checked_prime_power(q)
    coeffs, deg = good_reduction_data(curve, p)
    return _count_fq(coeffs, deg, p, e)


def _checked_prime_power(q: int):
    """(p, e) with q = p^e, once a count over F_q is known to fit: a
    ValueError unless q is a prime or its square with p^(e+1) < 2^62, and
    ResourceLimitError past sieve.WORK_CEILING cells."""
    r = math.isqrt(q)  # the square test first: trial division of p^2 runs to p
    if r * r == q and is_prime(r):
        p, e = r, 2
    elif is_prime(q):
        p, e = q, 1
    else:
        raise ValueError("q must be a prime or the square of a prime")
    if p ** (e + 1) >= INT64_SAFE:
        raise ValueError("the int64 kernels need p^(e+1) < 2^62")
    cells = p if e == 1 else p * (p + 1) // 2
    if cells > sieve.WORK_CEILING:
        field = f"F_{p}" if e == 1 else f"F_{p}^2"
        raise ResourceLimitError(f"point count over {field} of {cells} cells exceeds ceiling")
    return p, e


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


# The F_{p^2} kernel's products sum at most 13 (p - 1)^2, so they are exact in
# int32 up to this prime (13 * 12 852^2 < 2^31) and in int64 above it.
INT32_MAX_PRIME = 1 + math.isqrt(((1 << 31) - 1) // 13)


@lru_cache(maxsize=_PRIMES_CACHED)
def _fp2_powers(p: int):
    """(V, W) for F_{p^2} = F_p[t]/(t^2 - nu), nu the least non-residue:
    V[i, a] = a^i for i <= 12 and a in F_p, W[j, b] = (nu b^2)^j for j <= 6
    and 0 <= b <= (p-1)/2, all reduced mod p, in int32 for p <=
    INT32_MAX_PRIME and int64 above (products of two entries fit either)."""
    nu = int(np.flatnonzero(_root_counts(p) == 0)[0])
    dtype = np.int32 if p <= INT32_MAX_PRIME else np.int64
    a = np.arange(p, dtype=dtype)
    w = nu * (a[: (p + 1) // 2] ** 2 % p) % p
    powers_a, powers_w = np.ones((13, p), dtype=dtype), np.ones((7, w.size), dtype=dtype)
    for i in range(1, 13):
        np.remainder(powers_a[i - 1] * a, p, out=powers_a[i])
    for j in range(1, 7):
        np.remainder(powers_w[j - 1] * w, p, out=powers_w[j])
    return _frozen(powers_a), _frozen(powers_w)


def _reduce(x, p: int):
    """x mod p in place, for x >= 0: floor division is cheaper than numpy's %."""
    x -= x // p * p
    return x


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
    M[j, a] = sum_i H[i, j] V[i, a] mod p and then N[b, a] = sum_j W[j, b]
    M[j, a] mod p, two `np.einsum` contractions on the power tables V and W
    of _fp2_powers, in their dtype, and the count is one bincount of N
    against R.  Every table entry is below p, so Horner steps stay below p^2
    and the two contractions at most 13 (p - 1)^2 and 7 (p - 1)^2: within
    int32 for p <= INT32_MAX_PRIME, and far under 2^62 above it as p^(e+1) <
    2^62 (checked in count_points).
    """
    roots = _root_counts(p)
    count, rows = 0, min(p, BLOCK_CELLS)
    if e == 1:
        for start in range(0, p, rows):
            a = np.arange(start, min(start + rows, p), dtype=np.int64)
            value = horner(coeffs[: deg + 1], a, p)
            count += int(np.bincount(value, minlength=p) @ roots)
    else:
        powers_a, powers_w = _fp2_powers(p)
        h = (_norm_form(tuple(coeffs[: deg + 1])) % p).astype(powers_a.dtype)
        step = max(1, BLOCK_CELLS // rows)
        for start in range(0, p, rows):
            m = _reduce(np.einsum("ij,ia->ja", h, powers_a[:, start : start + rows]), p)
            for b0 in range(0, powers_w.shape[1], step):
                norm = _reduce(np.einsum("ja,jb->ba", m, powers_w[:, b0 : b0 + step]), p)
                count += 2 * int(np.bincount(norm.ravel(), minlength=p) @ roots)
                # x = a in F_p (b = 0) is its own conjugate: count it once.  f(a)
                # is in F_p, so a square in F_{p^2}: x adds 2, or 1 where
                # N = f(a)^2 is 0.
                if b0 == 0:
                    count -= norm.shape[1] + int(np.count_nonzero(norm[0]))
    # At infinity: one for odd deg; for even deg two when lc(f) is a square in F_q, N(lc) = lc^e.
    return count + (1 if deg % 2 else int(roots[coeffs[deg] ** e % p]))


def l_poly_coeffs(curve: HyperCurve, p: int):
    """(c1, c2) with L(T) = 1 + c1 T + c2 T^2 + p c1 T^3 + p^2 T^4.  The
    F_{p^2} count is the larger, so it is checked before either count runs."""
    _checked_prime_power(p * p)
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

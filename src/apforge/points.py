"""Point layer: rational points of bounded height and local (p-adic and
real) solvability on the curve models of `apforge.curves`.

The point search runs on the denominator-cleared model as a binary sextic
in (r, s), x = r/s, behind the sound residue pre-filter of `apforge.sieve`,
and confirms every survivor with exact integer square roots.  Local
solvability at p lifts residues of y^2 = c*g(x) through Z_p with a bounded
depth and raises Undecided when the budget runs out.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .curves import EllipticModel, _disc, _integral_model_any, _rat_is_square
from .exactmath import UniPoly, poly_divmod
from .numfield import Undecided
from .sieve import CRT_FACTORS, form_square_tables

_EXTRA_PRIMES = (17, 19, 23, 29, 31, 37)


def _homogeneous_square_hits(coeffs6, height: int):
    """(r, s, value) with value = sum coeffs6[i] r^i s^(6-i) a perfect square,
    s in [1, height], r in [-height, height].  Sound modular pre-filter,
    exact big-integer confirmation."""
    moduli = CRT_FACTORS + _EXTRA_PRIMES
    tables = form_square_tables(coeffs6, moduli)
    asc = [int(c) for c in coeffs6]
    r_all = np.arange(-height, height + 1, dtype=np.int64)
    r_mod = {m: r_all % m for m in moduli}
    hits = []
    for s in range(1, height + 1):
        # Stage 1: two cheapest moduli over the full row.
        mask = None
        for m in moduli[:2]:
            t = tables[m][s % m][r_mod[m]]
            mask = t if mask is None else (mask & t)
        idx = np.nonzero(mask)[0]
        if len(idx) == 0:
            continue
        # Stage 2: remaining moduli on survivors only.
        for m in moduli[2:]:
            idx = idx[tables[m][s % m][r_mod[m][idx]]]
            if len(idx) == 0:
                break
        for i in idx:
            r = int(r_all[i])
            val = sum(asc[k] * r**k * s ** (6 - k) for k in range(7))
            if val < 0:
                continue
            w = math.isqrt(val)
            if w * w == val:
                hits.append((r, s, val, w))
    return hits


def rational_points_search(curve, height: int):
    """All affine rational points (X, Y) of height up to the bound, plus the
    number of rational points at infinity.

    Returns (sorted list of (Fraction, Fraction), infinity_count).  Accepts
    HyperCurve (deg 5/6) and EllipticModel over Q (deg 3).
    """
    if height < 1:
        raise ValueError("height must be positive")
    if isinstance(curve, EllipticModel):
        if curve.field is not None:
            raise ValueError("point search runs over Q only")
        f = curve.rhs
        infinity = 1
    else:
        f = curve.f
        if f.degree == 5:
            infinity = 1
        else:
            infinity = 2 if _rat_is_square(f.lead()) else 0
    coeffs, v = _integral_model_any(f)
    points = {}
    for r, s, _val, w in _homogeneous_square_hits(coeffs, height):
        x = Fraction(r, s)
        y = Fraction(w, v * s**3)
        if y * y != f.eval(x):
            raise AssertionError("scaled-model bookkeeping is broken")
        points[(x, y)] = True
        points[(x, -y)] = True
    return sorted(points), infinity


def locally_solvable(curve, p: int) -> bool:
    """True iff y^2 = f(x) has a Q_p point (affine charts and infinity)."""
    f = curve.rhs if isinstance(curve, EllipticModel) else curve.f
    if isinstance(curve, EllipticModel) or f.degree == 5:
        return True  # a rational point at infinity always exists
    if _rat_is_square(f.lead()):
        return True  # rational points at infinity
    coeffs, _v = _integral_model_any(f)
    content = math.gcd(*coeffs)
    g = [c // content for c in coeffs]
    c0 = _squarefree_part(content)
    disc = int(_disc(tuple(g)))
    depth = 2 * _valuation(disc, p) + 3
    if _zp_solvable(g, p, c0, depth):
        return True
    rev = list(reversed(g))
    return _zp_branch(rev, p, c0, 0, depth)


def locally_solvable_real(curve) -> bool:
    """True iff the curve has a real point."""
    f = curve.rhs if isinstance(curve, EllipticModel) else curve.f
    if isinstance(curve, EllipticModel) or f.degree % 2 == 1:
        return True
    if f.lead() > 0:
        return True
    if f.eval(Fraction(0)) >= 0:
        return True
    return _sturm_real_root_count(f) > 0


def _valuation(n: int, p: int) -> int:
    if n == 0:
        return 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _squarefree_part(n: int) -> int:
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = sign
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2 == 1:
            out *= d
        d += 1
    return out * n


def _is_square_in_qp(v: int, p: int) -> bool:
    if v == 0:
        return True
    w = _valuation(v, p)
    if w % 2 == 1:
        return False
    u = v // p**w
    if p == 2:
        return u % 8 == 1
    return pow(u % p, (p - 1) // 2, p) == 1


def _zp_solvable(g, p: int, c: int, depth: int) -> bool:
    """Does y^2 = c*g(x) have a point with x in Z_p?  g integral, primitive."""
    if depth < 0:
        raise Undecided(f"local solvability lifting budget exhausted at {p}")
    span = 8 if p == 2 else p
    for x in range(span):
        if _is_square_in_qp(c * _int_eval(g, x), p):
            return True
    for z in range(p):
        if _int_eval(g, z) % p == 0:
            if _zp_branch(g, p, c, z, depth - 1):
                return True
    return False


def _zp_branch(g, p: int, c: int, z: int, depth: int) -> bool:
    """Restrict to x = z + p*t and recurse on t in Z_p."""
    if depth < 0:
        raise Undecided(f"local solvability lifting budget exhausted at {p}")
    g1 = _shift_scale(g, z, p)
    content = math.gcd(*g1)
    if content == 0:
        return True  # identically zero: y = 0 works
    g1 = [cc // content for cc in g1]
    c1 = _squarefree_part(c * content)
    return _zp_solvable(g1, p, c1, depth)


def _int_eval(g, x: int) -> int:
    acc = 0
    for c in reversed(g):
        acc = acc * x + c
    return acc


def _shift_scale(g, z: int, p: int):
    """Coefficients of g(z + p*t) as a polynomial in t."""
    n = len(g) - 1
    out = [0] * (n + 1)
    for k, c in enumerate(g):
        if c == 0:
            continue
        # c * (z + p t)^k
        term = c
        binom = 1
        for j in range(k + 1):
            out[j] += term * binom * z ** (k - j) * p**j
            binom = binom * (k - j) // (j + 1)
    return out


def _sturm_real_root_count(f: UniPoly) -> int:
    chain = [f, f.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        _q, r = poly_divmod(chain[-2], chain[-1])
        if r.is_zero:
            break
        chain.append(-r)

    def signs_at_inf(sign):
        out = []
        for poly in chain:
            if poly.is_zero:
                continue
            lc = poly.lead()
            s = lc if sign > 0 else lc * (-1) ** poly.degree
            out.append(1 if s > 0 else -1 if s < 0 else 0)
        return out

    def variations(seq):
        seq = [s for s in seq if s != 0]
        return sum(1 for a, b in zip(seq, seq[1:]) if a != b)

    return variations(signs_at_inf(-1)) - variations(signs_at_inf(1))

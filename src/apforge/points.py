"""Point layer: rational points of bounded height and local (p-adic and
real) solvability on the curve models of `apforge.curves`.

The point search runs on the denominator-cleared model as a binary sextic
in (r, s), x = r/s.  Per block of rows, `sieve.SquareRows` gives the cells
(s, r) where the sextic may be a square (its moduli stay in `apforge.sieve`);
one `np.gcd` keeps the cells with gcd(r, s) = 1, each x once in lowest terms,
and each of those is confirmed with exact integer square roots.  Local
solvability at p lifts residues of y^2 = c*g(x) through Z_p with a bounded
depth and raises Undecided when the budget runs out.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .curves import EllipticModel, integral_model
from .exactmath import UniPoly, discriminant, horner, poly_divmod, rat_kth_root, square_split
from .numfield import Undecided
from .sieve import SquareRows


def _homogeneous_square_hits(coeffs6, height: int):
    """(r, s, value, root) with value = sum coeffs6[i] r^i s^(6-i) a perfect
    square, gcd(r, s) = 1, s in [1, height], r in [-height, height], in
    row-major order.  Sound modular pre-filter, exact big-integer
    confirmation of the coprime cells only: F(r, s) = g^6 F(r/g, s/g), and
    (r/g, s/g) is a cell of the same box with the same x = r/s."""
    asc = [int(c) for c in coeffs6]
    hits, row = [], None
    for s_cells, r_cells in SquareRows(coeffs6, height).cells():
        coprime = np.gcd(s_cells, r_cells) == 1
        for s, r in zip(s_cells[coprime].tolist(), r_cells[coprime].tolist()):
            if s != row:  # Horner in r over c_i s^(6-i), once per row
                row = s
                c0, c1, c2, c3, c4, c5, c6 = (c * s ** (6 - i) for i, c in enumerate(asc))
            val = (((((c6 * r + c5) * r + c4) * r + c3) * r + c2) * r + c1) * r + c0
            if val < 0:
                continue
            w = math.isqrt(val)
            if w * w == val:
                hits.append((r, s, val, w))
    return hits


def rational_points_search(curve, height: int):
    """All affine rational points (X, Y) of height up to the bound, plus the
    number of rational points at infinity: one for odd deg f, and for even
    deg f two when lc(f) is a rational square, else none.

    Returns (sorted list of (Fraction, Fraction), infinity_count).  Accepts
    any y^2 = f(x) model over Q with deg f <= 6: a HyperCurve, or an
    EllipticModel without a number field.
    """
    if height < 1:
        raise ValueError("height must be positive")
    if isinstance(curve, EllipticModel) and curve.field is not None:
        raise ValueError("point search runs over Q only")
    f = curve.f
    infinity = 1 if f.degree % 2 else 2 if rat_kth_root(f.lead(), 2) is not None else 0
    coeffs, v = integral_model(f)
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
    f = curve.f
    if f.degree % 2 or rat_kth_root(f.lead(), 2) is not None:
        return True  # rational points at infinity
    coeffs, _v = integral_model(f)
    content = math.gcd(*coeffs)
    g = [c // content for c in coeffs]
    c0 = _squarefree_part(content)
    disc = int(discriminant(tuple(g)))
    depth = 2 * _valuation(disc, p) + 3
    if _zp_solvable(g, p, c0, depth):
        return True
    rev = list(reversed(g))
    return _zp_branch(rev, p, c0, 0, depth)


def locally_solvable_real(curve) -> bool:
    """True iff the curve has a real point."""
    f = curve.f
    if f.degree % 2 or f.lead() > 0 or f.eval(Fraction(0)) >= 0:
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
    """The squarefree s, sign included, with n = s * t^2; n != 0."""
    return square_split(n)[0] if n > 0 else -square_split(-n)[0]


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
        if _is_square_in_qp(c * horner(g, x), p):
            return True
    for z in range(p):
        if horner(g, z, p) == 0:
            if _zp_branch(g, p, c, z, depth - 1):
                return True
    return False


def _zp_branch(g, p: int, c: int, z: int, depth: int) -> bool:
    """Restrict to x = z + p*t and recurse on t in Z_p."""
    if depth < 0:
        raise Undecided(f"local solvability lifting budget exhausted at {p}")
    # The coefficients of g(z + p*t) as a polynomial in t.
    g1 = [int(cc) for cc in horner([UniPoly([cc]) for cc in g], UniPoly([z, p])).coeffs]
    content = math.gcd(*g1)
    if content == 0:
        return True  # identically zero: y = 0 works
    g1 = [cc // content for cc in g1]
    c1 = _squarefree_part(c * content)
    return _zp_solvable(g1, p, c1, depth)


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

"""Point layer: rational points of bounded height and local (p-adic and
real) solvability on y^2 = f(x), genus 1 or 2: a `curves.HyperCurve` over Q.

The point search runs on the denominator-cleared model as a binary sextic
in (r, s), x = r/s: `sieve.SquareRows` is its box, whose `hits` are the
cells (s, r) with gcd(r, s) = 1, each x once in lowest terms, where the
sextic is exactly a square (the moduli and the confirmation stay in
`apforge.sieve`).  Local solvability at p asks `padic.zp_solvable` on
y^2 = c*g(x) and on the chart at infinity, with a lifting depth set by the
discriminant; the Sturm chain decides the real place.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .curves import integral_model
from .exactmath import UniPoly, discriminant, poly_divmod, rat_kth_root
from .padic import squarefree_part, substitute, valuation, zp_solvable
from .sieve import SquareRows


def rational_points_search(curve, height: int):
    """All affine rational points (X, Y) of height up to the bound, plus the
    number of rational points at infinity: one for odd deg f, and for even
    deg f two when lc(f) is a rational square, else none.

    Returns (sorted list of (Fraction, Fraction), infinity_count).  Reads
    only f and field (None: over Q), so f of degree <= 6 need not be squarefree.
    """
    if height < 1:
        raise ValueError("height must be positive")
    if curve.field is not None:
        raise ValueError("point search runs over Q only")
    f = curve.f
    infinity = 1 if f.degree % 2 else 2 if rat_kth_root(f.lead(), 2) is not None else 0
    coeffs, v = integral_model(f)
    points = {}
    # Only the coprime cells: F(r, s) = g^6 F(r/g, s/g), and (r/g, s/g) is a
    # cell of the same box with the same x = r/s.
    for s, r, w in SquareRows(coeffs, height).hits(coprime=True):
        x = Fraction(r, s)
        y = Fraction(w, v * s**3)
        if y * y != f.eval(x):
            raise AssertionError("scaled-model bookkeeping is broken")
        points[(x, y)] = True
        points[(x, -y)] = True
    return sorted(points), infinity


def locally_solvable(curve, p: int) -> bool:
    """True iff y^2 = f(x) has a Q_p point (affine charts and infinity)."""
    coeffs, _v, _disc = curve.model  # refuses a curve over a number field
    f = curve.f
    if f.degree % 2 or rat_kth_root(f.lead(), 2) is not None:
        return True  # rational points at infinity
    content = math.gcd(*coeffs)
    g = [c // content for c in coeffs]
    c0 = squarefree_part(content)
    depth = 2 * valuation(int(discriminant(tuple(g))), p) + 3
    # x in Z_p, or x = 1/(p*t) on the chart at infinity
    return (zp_solvable(g, c0, p, depth)
            or zp_solvable(*substitute(g[::-1], c0, p, 0), p, depth))


def locally_solvable_real(curve) -> bool:
    """True iff the curve has a real point."""
    f = curve.f
    if f.degree % 2 or f.lead() > 0 or f.eval(Fraction(0)) >= 0:
        return True
    return _sturm_real_root_count(f) > 0


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

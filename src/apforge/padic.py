"""P-adic layer: valuations, square classes in Q_p, Z_p-solvability of
y^2 = c*g(x), Hensel lifting of a simple root and rational reconstruction.

`points` decides local solvability with `zp_solvable` and `substitute`;
`numfield` refutes squareness with `is_square_qp` and builds square roots
with `hensel_lift`, `frac_mod` and `rational_reconstruct`.  Every value is
`exactmath.horner`, exact or mod p^n.  A question that runs out of its
budget raises `Undecided`, never a guess.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactmath import UniPoly, horner, square_split


class Undecided(Exception):
    """A question could not be verified or refuted within configured bounds."""


def valuation(n: int, p: int) -> int:
    """The exponent of p in n; 0 for n == 0.  A p below 2 is a ValueError."""
    if p < 2:
        raise ValueError(f"valuation at p = {p}: p must be at least 2")
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def squarefree_part(n: int) -> int:
    """The squarefree s, sign included, with n = s * t^2; n != 0."""
    return square_split(n)[0] if n > 0 else -square_split(-n)[0]


def is_square_qp(v: int, p: int) -> bool:
    """True iff the integer v is a square in Q_p: an even valuation and a
    unit part that is 1 mod 8 at p = 2, a quadratic residue at odd p."""
    if v == 0:
        return True
    w = valuation(v, p)
    u = v // p**w
    return w % 2 == 0 and (u % 8 == 1 if p == 2 else pow(u % p, (p - 1) // 2, p) == 1)


def substitute(g, c: int, p: int, z: int):
    """(g1, c1) with c1*g1(t) = c*g(z + p*t) up to a square, g1 primitive:
    the coefficients of g(z + p*t) in t, their content moved into c."""
    g1 = [int(cc) for cc in horner([UniPoly([cc]) for cc in g], UniPoly([z, p])).coeffs]
    content = math.gcd(*g1)  # g != 0, so g1 != 0
    return [cc // content for cc in g1], squarefree_part(c * content)


def zp_solvable(g, c: int, p: int, depth: int) -> bool:
    """Does y^2 = c*g(x) have a point with x in Z_p?  g integral, primitive.
    A value that is a square in Q_p at x mod p (mod 8 at 2) decides; a root z
    of g mod p recurses on x = z + p*t, up to depth lifts."""
    if depth < 0:
        raise Undecided(f"local solvability lifting budget exhausted at {p}")
    if any(is_square_qp(c * horner(g, x), p) for x in range(8 if p == 2 else p)):
        return True
    return any(horner(g, z, p) == 0 and zp_solvable(*substitute(g, c, p, z), p, depth - 1)
               for z in range(p))


def hensel_lift(coeffs_ascending, x: int, p: int, n: int) -> int:
    """Lift a simple root x mod p of the polynomial to its root mod p^n;
    each Newton step doubles the p-adic digits."""
    mod = p**n
    deriv = [i * c for i, c in enumerate(coeffs_ascending)][1:]
    for _ in range(n.bit_length()):
        fx = horner(coeffs_ascending, x, mod)
        x = (x - fx * pow(horner(deriv, x, mod), -1, mod)) % mod
    return x


def rational_reconstruct(c: int, mod: int):
    """The fraction u/v == c mod `mod` with |u|, v <= sqrt(mod/2), or None."""
    bound = math.isqrt(mod // 2)
    r0, r1, t0, t1 = mod, c, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not t1 or abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None  # a common factor means r1/t1 is not c mod `mod`
    return Fraction(r1, t1)


def frac_mod(q: Fraction, mod: int) -> int:
    """q mod `mod`; ZeroDivisionError when the denominator is not a unit."""
    den = q.denominator % mod
    if math.gcd(den, mod) != 1:
        raise ZeroDivisionError
    return (q.numerator % mod) * pow(den, -1, mod) % mod

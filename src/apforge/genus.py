"""Genus layer: classification of the fibre-product covers by the chi
trichotomy (k = 3) and Riemann-Hurwitz ramification bookkeeping (k = 3, 4, 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class GenusZero:
    """chi > 1: genus-0 cover of degree 2/(chi - 1), chi - 1 being
    Darmon-Granville's 1/r + 1/s + 1/t - 1.  The degree is the order of the
    spherical triangle group: 2n for (2, 2, n), and 12, 24 and 60 for
    (2, 3, 3), (2, 3, 4) and (2, 3, 5)."""

    cover_degree: int


GENUS_ONE = "GenusOne"
GENUS_GT1 = "GenusGT1"


def chi_classify(r: int, s: int, t: int):
    """Trichotomy on chi = 1/r + 1/s + 1/t for three-term towers."""
    if min(r, s, t) < 2:
        raise ValueError("exponents must be at least 2")
    chi = Fraction(1, r) + Fraction(1, s) + Fraction(1, t)
    if chi > 1:
        return GenusZero(cover_degree=int(2 / (chi - 1)))
    if chi == 1:
        return GENUS_ONE
    return GENUS_GT1


ALL_GENUS_LE1_POSSIBLE = "AllGenusLE1Possible"
GENUS_AT_LEAST_2 = "GenusAtLeast2"


def rh_genus_bound(k: int, lvec: Sequence[int]) -> str:
    """Ramification bookkeeping for the fibre-product covers.

    The cover genus satisfies 2g - 2 >= d*(k - 2 - sum 1/l_i), so a positive
    deficiency forces genus >= 2.  At k = 3 the deficiency is 1 - chi.
    """
    if k not in (3, 4, 5):
        raise ValueError("k must be 3, 4, or 5")
    if len(lvec) != k or any(l < 2 for l in lvec):
        raise ValueError("bad exponent vector")
    deficiency = Fraction(k - 2) - sum((Fraction(1, l) for l in lvec), Fraction(0))
    return GENUS_AT_LEAST_2 if deficiency > 0 else ALL_GENUS_LE1_POSSIBLE

"""Residue tables: the sound pre-filter of the progression and point searches
and of the parametrization cover check.

A table marks the residues a value can have mod m, so it rejects only
values that cannot occur; callers confirm survivors exactly.  Tables are
built on first use.  Power tables are indexed by h % 720720 and mark
eta * x^l modulo each CRT factor 16, 9, 5, 7, 11, 13 at once.  Row tables of
a sextic F(r, s) = sum c_i r^i s^(6-i) hold, per modulus m, an m x m table
whose entry [s % m, r % m] marks F(r, s) being a square mod m.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

CRT_FACTORS = (16, 9, 5, 7, 11, 13)
CRT_MODULUS = 720720


@lru_cache(maxsize=None)
def _factor_table(l: int, m: int, etas: tuple) -> np.ndarray:
    table = np.zeros(m, dtype=bool)
    powers = {pow(x, l, m) for x in range(m)}
    table[[(eta * t) % m for eta in etas for t in powers]] = True
    return table


@lru_cache(maxsize=None)
def power_table(l: int, etas: tuple = (1,)) -> np.ndarray:
    """Bool table over Z/720720: the AND of the CRT factor tables."""
    table = np.ones(CRT_MODULUS, dtype=bool)
    for f in CRT_FACTORS:
        # AND the factor table into each row of an (720720/f, f) view of the
        # table, so no index or tiled temporary is allocated.
        rows = table.reshape(-1, f)
        rows &= _factor_table(l, f, etas)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def form_square_tables(coeffs6: Sequence[int], moduli: Sequence[int]) -> dict:
    """{m: row table} for the sextic with ascending integer coefficients."""
    tables = {}
    for m in moduli:
        grid = np.arange(m, dtype=np.int64)
        r, s = grid[None, :], grid[:, None]
        acc, s_pow = np.zeros((m, m), dtype=np.int64), np.ones_like(s)
        for c in reversed(coeffs6):  # homogeneous Horner in r
            acc = (acc * r + (int(c) % m) * s_pow) % m
            s_pow = s_pow * s % m
        tables[m] = _factor_table(2, m, (1,))[acc]
    return tables

"""Residue tables: the sound pre-filter of the progression and point searches
and of the parametrization cover check.

A table marks the residues a value can have mod m, so it rejects only
values that cannot occur; callers confirm survivors exactly.  Tables are
built on first use.  Power tables are indexed by h % 720720 and mark
eta * x^l modulo each CRT factor 16, 9, 5, 7, 11, 13 at once.  Row tables of
a sextic F(r, s) = sum c_i r^i s^(6-i) hold, per modulus m, an m x m table
whose entry [s % m, r % m] marks F(r, s) being a square mod m; the point
search packs each one's columns over its r range into 64-bit row patterns.

Callers never see the modulus.  `maybe_power` tests values (the Lemma's
cover grid), `ClassRows` runs the rows of the sieved progression scan, the
cubic twin's included, and `SquareRows` the point search's box, a block of
rows at a time.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

CRT_FACTORS = (16, 9, 5, 7, 11, 13)
CRT_MODULUS = 720720
INT64_SAFE = 1 << 62  # int64 kernels keep every value below this in absolute value


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


def maybe_power(v, l: int, etas: tuple = (1,)):
    """Whether v (an int or an int64 array) may be eta * x^l, eta in etas:
    the power table at v % 720720, and v >= 0 for even l when every eta is
    positive.  False only where no such x exists."""
    ok = power_table(l, etas)[v % CRT_MODULUS]
    if l % 2 == 0 and min(etas) > 0:
        ok &= v >= 0
    return ok


class ClassRows:
    """Stage 1 of the progression scan: the pairs (h, w), w in a sorted inner
    array, whose derived terms h_m = h + e_m * (w - h) / |d| all pass
    `maybe_power`, for each (e_m, l_m, etas_m) in derived.

    A pair with d not dividing w - h is no progression, so a row h scans only
    the class w = h (mod |d|).  There (w - h) / |d| = q - h // |d| with
    q = w // |d|, so h_m % 720720 is a precomputed e_m * q % 720720 plus one
    scalar per row: one int32 add and one table gather per cell, and each
    later position runs only on the cells still alive.  The sign rule of
    `maybe_power` (h_m >= 0 for even l_m and positive etas_m) and the half
    scan's (w - h) / d >= 0 are bounds on q, so they cut the class's sorted
    slice before any cell is touched.  Precondition: every |h_m| < INT64_SAFE.
    """

    def __init__(self, inner, d: int, derived):
        self.step, self.sign = abs(d), (1 if d > 0 else -1)
        inner = np.asarray(inner, dtype=np.int64)
        # Stable by class, so each class is one sorted slice.
        self.w = inner if self.step == 1 else inner[np.argsort(inner % self.step, kind="stable")]
        self.starts = np.searchsorted(self.w % self.step, np.arange(self.step + 1)).tolist()
        signed = [e for e, l, etas in derived if l % 2 == 0 and min(etas) > 0]
        self.rising, self.falling = [e for e in signed if e > 0], [-e for e in signed if e < 0]
        q = self.w // self.step
        self.positions = [(e, ((e * q) % CRT_MODULUS).astype(np.int32),
                           power_table(l, etas)) for e, l, etas in derived]

    def survivors(self, h: int, half: bool = False) -> np.ndarray:
        """The w of row h that pass, ascending; with half, only those with
        (w - h) / d >= 0."""
        qh, c = divmod(h, self.step)
        lo, hi = self.starts[c], self.starts[c + 1]
        # In the class, w = step * q + c, and h + e * (q - qh) >= 0 is
        # q >= qh - h // e for e > 0 and q <= qh + h // -e for e < 0.
        floors = [qh - h // e for e in self.rising]
        ceils = [qh + h // f for f in self.falling]
        if half:
            (floors if self.sign > 0 else ceils).append(qh)
        if floors:
            lo += int(self.w[lo:hi].searchsorted(self.step * max(floors) + c, "left"))
        if ceils:
            hi = lo + int(self.w[lo:hi].searchsorted(self.step * min(ceils) + c, "right"))
        cells = None
        for e, residues, table in self.positions:
            shift = (h - e * qh) % CRT_MODULUS
            if cells is None:
                cells = lo + table.take(residues[lo:hi] + shift, mode="wrap").nonzero()[0]
            elif cells.size:
                cells = cells[table.take(residues[cells] + shift, mode="wrap")]
        return self.w[cells]




_ROW_PRIMES = (17, 19, 23, 29, 31, 37)  # the point search's moduli after CRT_FACTORS
ROW_BLOCK = 64  # rows per AND of the point search's row patterns


def _form_square_table(coeffs6: Sequence[int], m: int) -> np.ndarray:
    """The row table mod m of the sextic with ascending integer coefficients."""
    grid = np.arange(m, dtype=np.int64)
    r, s = grid[None, :], grid[:, None]
    acc, s_pow = np.zeros((m, m), dtype=np.int64), np.ones_like(s)
    for c in reversed(coeffs6):  # homogeneous Horner in r
        acc = (acc * r + (int(c) % m) * s_pow) % m
        s_pow = s_pow * s % m
    return _factor_table(2, m, (1,))[acc]


class SquareRows:
    """The point search's sieve over the box s in [1, height], r in
    [-height, height]: the cells where F(r, s) = sum coeffs6[i] r^i s^(6-i)
    may be a square.

    The moduli are the CRT factors and then the primes 17..37.  Each one's
    row table is packed once into m row patterns of 64-bit words: bit j of
    word k of pattern s % m is its entry at r = -height + 64 k + j, and the
    bits past r = height are zero.  A block of ROW_BLOCK rows is the AND of
    one row gather per modulus, and only its nonzero words are unpacked.
    """

    def __init__(self, coeffs6: Sequence[int], height: int):
        self.height = height
        self.r = np.arange(-height, height + 1, dtype=np.int64)
        width = self.r.size + -self.r.size % 64  # whole words, zero padded
        self.patterns = []
        for m in CRT_FACTORS + _ROW_PRIMES:
            table = np.zeros((m, width), dtype=bool)
            table[:, : self.r.size] = _form_square_table(coeffs6, m)[:, self.r % m]
            self.patterns.append((m, np.packbits(table, axis=1, bitorder="little").view("<u8")))

    def cells(self):
        """Per block of ROW_BLOCK rows, the (s, r) int64 arrays of the cells
        that pass every modulus, in row-major order: s, then r, ascending."""
        for start in range(1, self.height + 1, ROW_BLOCK):
            s = np.arange(start, min(start + ROW_BLOCK, self.height + 1), dtype=np.int64)
            (m, pattern), *rest = self.patterns
            words = pattern[s % m]
            for m, pattern in rest:
                words &= pattern[s % m]
            live = np.flatnonzero(words)
            bit = np.flatnonzero(np.unpackbits(words.ravel()[live].view(np.uint8), bitorder="little"))
            row, col = np.divmod(64 * live[bit >> 6] + (bit & 63), 64 * words.shape[1])
            yield s[row], self.r[col]

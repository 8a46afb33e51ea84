"""Residue tables: the sound pre-filter of the progression and point searches
and of the parametrization cover check.

A table marks the residues a value can have mod m, so it rejects only
values that cannot occur; callers confirm survivors exactly.  Tables are
built on first use.  A factor table marks the residues of eta * x^l modulo
one CRT factor 16, 9, 5, 7, 11 or 13 (which multiply to 720720).  Row tables of
a sextic F(r, s) = sum c_i r^i s^(6-i) hold, per modulus m (the CRT factors,
then the primes 17..53), an m x m table whose entry [s % m, r % m] marks
F(r, s) being a square mod m.

Callers never see the modulus.  `maybe_power` tests values (the Lemma's
cover grid).  Two kernels pack their tables into 64-bit row patterns and
run a block of rows at a time, unpacking only the nonzero words: `ClassRows`
the sieved progression scan, the cubic twin's included, over a block of
outer values, and `SquareRows` the point search's box over a block of s.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .exactmath import form_value

CRT_FACTORS = (16, 9, 5, 7, 11, 13)
INT64_SAFE = 1 << 62  # int64 kernels keep every value below this in absolute value


@lru_cache(maxsize=None)
def _factor_table(l: int, m: int, etas: tuple) -> np.ndarray:
    table = np.zeros(m, dtype=bool)
    powers = {pow(x, l, m) for x in range(m)}
    table[[(eta * t) % m for eta in etas for t in powers]] = True
    return table


def maybe_power(v, l: int, etas: tuple = (1,)):
    """Whether v (an int or an int64 array) may be eta * x^l, eta in etas:
    every CRT factor table at v, and v >= 0 for even l when every eta is
    positive.  False only where no such x exists."""
    f, *rest = CRT_FACTORS
    ok = _factor_table(l, f, etas)[v % f]  # a new array (or scalar), so &= is safe
    for f in rest:
        ok &= _factor_table(l, f, etas)[v % f]
    if l % 2 == 0 and min(etas) > 0:
        ok &= v >= 0
    return ok


ROW_BLOCK = 192  # rows per AND of row patterns: outer values of ClassRows, s of SquareRows


def _packed_rows(table: np.ndarray) -> np.ndarray:
    """The rows of a 2-d bool table as little-endian 64-bit words: bit j of
    word k of a row is its column 64 k + j, and the padding bits are zero."""
    padded = np.zeros((table.shape[0], table.shape[1] + -table.shape[1] % 64), dtype=bool)
    padded[:, : table.shape[1]] = table
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _set_cells(words: np.ndarray):
    """The (row, column) int64 arrays of the set bits of a block of packed
    rows, in row-major order; only the nonzero words are unpacked."""
    live = np.flatnonzero(words)
    bit = np.flatnonzero(np.unpackbits(words.ravel()[live].view(np.uint8), bitorder="little"))
    return np.divmod(64 * live[bit >> 6] + (bit & 63), 64 * words.shape[1])


class ClassRows:
    """Stage 1 of the progression scan: the pairs (h, w), h an outer value
    and w in a sorted inner array, whose derived terms
    h_m = h + e_m * (w - h) / |d| all pass `maybe_power`, for each
    (e_m, l_m, etas_m) in derived.

    A pair with d not dividing w - h is no progression, so a row h scans only
    the class w = h (mod |d|).  There (w - h) / |d| = q - h // |d| with
    q = w // |d|, so h_m modulo a CRT factor f is e_m * q + r, where
    r = (h - e_m * (h // |d|)) % f depends on the row alone.  Each (position,
    factor) therefore packs f row patterns, one per r, over the inner array
    sorted by class, and the rows of one class in a block of ROW_BLOCK are
    the AND of one pattern gather per (position, factor); a factor table
    that marks every residue is left out.  The sign rule of `maybe_power`
    (h_m >= 0 for even l_m and positive etas_m) and the half scan's
    (w - h) / d >= 0 are bounds on q: the block's widest bounds cut the
    class's columns before the gathers, and each row's own bounds cut the
    unpacked cells.  Precondition: every |h_m| < INT64_SAFE.
    """

    def __init__(self, inner, d: int, derived):
        self.step, self.sign = abs(d), (1 if d > 0 else -1)
        inner = np.asarray(inner, dtype=np.int64)
        # Stable by class, so each class is one sorted run of columns.
        self.w = inner[np.argsort(inner % self.step, kind="stable")]
        self.q = self.w // self.step
        self.starts = np.searchsorted(self.w % self.step, np.arange(self.step + 1)).tolist()
        signed = [e for e, l, etas in derived if l % 2 == 0 and min(etas) > 0]
        self.rising, self.falling = [e for e in signed if e > 0], [-e for e in signed if e < 0]
        self.positions = []
        for e, l, etas in derived:
            factors = []
            for f in CRT_FACTORS:
                table = _factor_table(l, f, etas)
                if not table.all():
                    # Row r of the patterns is table[(e * q + r) % f] per column.
                    shifted = table[(np.arange(f)[:, None] + np.arange(f)) % f]
                    factors.append((f, _packed_rows(shifted[:, e * (self.q % f) % f])))
            if factors:
                self.positions.append((e, factors))
        if not self.positions:  # every table marks every residue: one row of ones
            self.positions.append((0, [(1, _packed_rows(np.ones((1, self.w.size), dtype=bool)))]))

    def cells(self, outer, half: bool = False):
        """Per block of ROW_BLOCK outer values h, the (h, w) int64 arrays of
        the pairs that pass, in row-major order: h in the order given, then w
        ascending; with half, only those with (w - h) / d >= 0."""
        outer = np.asarray(outer, dtype=np.int64)
        for start in range(0, outer.size, ROW_BLOCK):
            h = outer[start:start + ROW_BLOCK]
            qh, c = np.divmod(h, self.step)
            # Per row, floor <= q <= ceil: h + e * (q - qh) >= 0 is
            # q >= qh - h // e for e > 0 and q <= qh + h // -e for e < 0.
            floor, ceil = np.full(h.size, -INT64_SAFE), np.full(h.size, INT64_SAFE)
            for e in self.rising:
                np.maximum(floor, qh - h // e, out=floor)
            for f in self.falling:
                np.minimum(ceil, qh + h // f, out=ceil)
            if half and self.sign > 0:
                np.maximum(floor, qh, out=floor)
            elif half:
                np.minimum(ceil, qh, out=ceil)
            rows, cols = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
            for cls in range(self.step):
                at = np.flatnonzero(c == cls)
                if not at.size:
                    continue
                # The words holding the class's columns that some row admits.
                lo, hi = self.starts[cls], self.starts[cls + 1]
                first = lo + int(self.q[lo:hi].searchsorted(floor[at].min(), "left"))
                last = lo + int(self.q[lo:hi].searchsorted(ceil[at].max(), "right"))
                if first >= last:
                    continue
                span, words = slice(first // 64, -(-last // 64)), None
                for e, factors in self.positions:
                    shift = h[at] - e * qh[at]
                    for f, patterns in factors:
                        if words is None:
                            words = patterns[shift % f, span]
                        else:
                            words &= patterns[shift % f, span]
                row, col = _set_cells(words)
                row, col = at[row], col + 64 * span.start
                q = self.q[col]
                keep = (col >= lo) & (col < hi) & (q >= floor[row]) & (q <= ceil[row])
                rows.append(row[keep])
                cols.append(col[keep])
            row = np.concatenate(rows)
            order = np.argsort(row, kind="stable")
            yield h[row[order]], self.w[np.concatenate(cols)[order]]


# the point search's moduli after CRT_FACTORS
_ROW_PRIMES = (17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _form_square_table(coeffs6: Sequence[int], m: int) -> np.ndarray:
    """The row table mod m of the sextic with ascending integer coefficients;
    F(r, s) = sum c_i r^i s^(6-i) is `form_value` of the reversed ones."""
    grid = np.arange(m, dtype=np.int64)
    values = form_value(coeffs6[::-1], grid[None, :], grid[:, None], m)  # [s, r]
    return _factor_table(2, m, (1,))[values]


class SquareRows:
    """The point search's sieve over the box s in [1, height], r in
    [-height, height]: the cells where F(r, s) = sum coeffs6[i] r^i s^(6-i)
    may be a square.

    The moduli are the CRT factors and then the primes 17..53.  Each one's
    row table is packed once into m row patterns of 64-bit words: bit j of
    word k of pattern s % m is its entry at r = -height + 64 k + j, and the
    bits past r = height are zero.  A block of ROW_BLOCK rows is the AND of
    one row gather per modulus, and only its nonzero words are unpacked.
    """

    def __init__(self, coeffs6: Sequence[int], height: int):
        self.height = height
        self.r = np.arange(-height, height + 1, dtype=np.int64)
        self.patterns = [(m, _packed_rows(_form_square_table(coeffs6, m)[:, self.r % m]))
                         for m in CRT_FACTORS + _ROW_PRIMES]

    def cells(self):
        """Per block of ROW_BLOCK rows, the (s, r) int64 arrays of the cells
        that pass every modulus, in row-major order: s, then r, ascending."""
        for start in range(1, self.height + 1, ROW_BLOCK):
            s = np.arange(start, min(start + ROW_BLOCK, self.height + 1), dtype=np.int64)
            (m, pattern), *rest = self.patterns
            words = pattern[s % m]
            for m, pattern in rest:
                words &= pattern[s % m]
            row, col = _set_cells(words)
            yield s[row], self.r[col]

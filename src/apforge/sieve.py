"""Residue tables: the sound pre-filter of the progression and point searches
and of the parametrization cover check.

A table marks the residues a value can have mod m, so it rejects only
values that cannot occur; callers confirm survivors exactly.  Tables are
built on first use.  A factor table marks the residues of eta * x^l modulo
one power modulus: a CRT factor 16, 9, 5, 7, 11 or 13 (which multiply to
720720), or the prime 17 or 19.  The box tables are m x m, entry
[row % m, col % m]: for a sextic F(r, s) = sum c_i r^i s^(6-i), per modulus
m (the CRT factors, then the primes 17..53), F(r, s) being a square mod m
at [s % m, r % m]; for the Lemma's cover grid cA a^2 + cB b^2 = M c^k, per
power modulus f, modulo M f, M dividing the value with a quotient in the
k-th-power factor table at [a % M f, b % M f].

Callers never see the modulus.  `maybe_power` tests values.  Two kernels
pack their tables into 64-bit row patterns, each an OR of the packed masks
of the columns in one residue class, and run a block of rows at a time,
unpacking only the nonzero bytes of the nonzero words: `ClassRows` the
sieved progression scan, the cubic twin's included, over a block of outer
values, and `BoxRows` a 2-D box over a block of rows, with column masks
cached per column range and modulus; it runs as `SquareRows`, the point
search's box, and `TernaryRows`, the cover grid.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .exactmath import form_value

CRT_FACTORS = (16, 9, 5, 7, 11, 13)
_POWER_PRIMES = (17, 19)  # the power moduli after CRT_FACTORS
_POWER_MODULI = CRT_FACTORS + _POWER_PRIMES  # of maybe_power, ClassRows and TernaryRows
INT64_SAFE = 1 << 62  # int64 kernels keep every value below this in absolute value


@lru_cache(maxsize=None)
def _factor_table(l: int, m: int, etas: tuple) -> np.ndarray:
    table = np.zeros(m, dtype=bool)
    powers = {pow(x, l, m) for x in range(m)}
    table[[(eta * t) % m for eta in etas for t in powers]] = True
    return table


def maybe_power(v, l: int, etas: tuple = (1,)):
    """Whether v (an int or an int64 array) may be eta * x^l, eta in etas:
    every power modulus's factor table at v, and v >= 0 for even l when
    every eta is positive.  False only where no such x exists."""
    f, *rest = _POWER_MODULI
    ok = _factor_table(l, f, etas)[v % f]  # a new array (or scalar), so &= is safe
    for f in rest:
        ok &= _factor_table(l, f, etas)[v % f]
    if l % 2 == 0 and min(etas) > 0:
        ok &= v >= 0
    return ok


ROW_BLOCK = 192  # rows per AND of row patterns: outer values of ClassRows, rows of BoxRows


def _class_masks(cls: np.ndarray, m: int) -> np.ndarray:
    """Row u of the result packs, as little-endian 64-bit words, the columns
    c with cls[c] == u, for u in range(m): bit j of word k is column
    64 k + j, and the padding bits are zero."""
    bits = np.zeros((m, -(-cls.size // 64) * 64), dtype=bool)
    bits[cls, np.arange(cls.size)] = True
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _class_patterns(table: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The packed row patterns whose row r has column c set when
    table[r, u] holds for the class u of c: per row, the OR of the class
    masks that the table marks.  The masks are disjoint, so that OR is
    their sum, one small integer matrix product."""
    return table.astype(np.uint64) @ masks


def _set_cells(words: np.ndarray):
    """The (row, column) int64 arrays of the set bits of a block of packed
    rows, in row-major order; only the nonzero bytes of the nonzero words
    are unpacked."""
    live = np.flatnonzero(words)
    data = words.ravel()[live].view(np.uint8)  # little-endian: byte b holds bits 8 b..8 b + 7
    byte = np.flatnonzero(data)
    bit = np.flatnonzero(np.unpackbits(data[byte], bitorder="little"))
    at = byte[bit >> 3]
    return np.divmod(64 * live[at >> 3] + 8 * (at & 7) + (bit & 7), 64 * words.shape[1])


class ClassRows:
    """Stage 1 of the progression scan: the pairs (h, w), h an outer value
    and w in a sorted inner array, whose derived terms
    h_m = h + e_m * (w - h) / |d| all pass `maybe_power`, for each
    (e_m, l_m, etas_m) in derived.

    A pair with d not dividing w - h is no progression, so a row h scans only
    the class w = h (mod |d|).  There (w - h) / |d| = q - h // |d| with
    q = w // |d|, so h_m modulo a power modulus f is e_m * q + r, where
    r = (h - e_m * (h // |d|)) % f depends on the row alone.  Each (position,
    modulus) therefore packs f row patterns, one per r, over the inner array
    sorted by class, each the OR of the masks of the columns with q = u
    (mod f) for the u that the factor table admits; the rows of one class
    in a block of ROW_BLOCK are the AND of one pattern gather per (position,
    modulus), and a factor table that marks every residue is left out.  The
    sign rule of `maybe_power` (h_m >= 0 for even l_m and positive etas_m)
    and the half scan's (w - h) / d >= 0 are bounds on q: the block's
    widest bounds cut the class's columns before the gathers, and each
    row's own bounds cut the unpacked cells.  Precondition: every
    |h_m| < INT64_SAFE.
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
        masks = {f: _class_masks(self.q % f, f) for f in _POWER_MODULI}
        self.positions = []
        for e, l, etas in derived:
            factors = []
            for f in _POWER_MODULI:
                table = _factor_table(l, f, etas)
                if not table.all():
                    # Row r of the patterns marks the columns with q = u (mod f)
                    # where table[(e * u + r) % f] holds.
                    u = np.arange(f)
                    factors.append((f, _class_patterns(table[(e * u + u[:, None]) % f], masks[f])))
            if factors:
                self.positions.append((e, factors))
        if not self.positions:  # every table marks every residue: one row of ones
            self.positions.append((0, [(1, _class_masks(self.q % 1, 1))]))

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


@lru_cache(maxsize=128)
def _column_masks(lo: int, hi: int, m: int) -> np.ndarray:
    """`_class_masks` of the columns lo..hi - 1 by residue mod m, read-only:
    every box kernel over that column range shares them."""
    masks = _class_masks(np.arange(lo, hi, dtype=np.int64) % m, m)
    masks.flags.writeable = False
    return masks


class BoxRows:
    """The packed row kernel over a 2-D box, rows and cols ranges of step 1:
    the cells (row, col) where every table (m, table) marks
    [row % m, col % m].

    Each table is packed once into m row patterns of 64-bit words, from the
    masks of the columns with col = u (mod m): bit j of word k of pattern
    row % m is its entry at col = cols[64 k + j], and the padding bits are
    zero.  A block of ROW_BLOCK rows is the AND of one row gather per
    modulus, and only the nonzero bytes of its nonzero words are unpacked.
    With no table every cell passes.
    """

    def __init__(self, tables, rows: range, cols: range):
        self.rows, self.lo = rows, cols.start
        self.patterns = [(m, _class_patterns(table, _column_masks(cols.start, cols.stop, m)))
                         for m, table in tables] or [(1, _column_masks(cols.start, cols.stop, 1))]

    def cells(self):
        """Per block of ROW_BLOCK rows, the (row, col) int64 arrays of the
        cells that pass every modulus, in row-major order: row, then col,
        ascending."""
        for start in range(self.rows.start, self.rows.stop, ROW_BLOCK):
            row = np.arange(start, min(start + ROW_BLOCK, self.rows.stop), dtype=np.int64)
            (m, pattern), *rest = self.patterns
            words = pattern[row % m]  # a gather, so a new array
            for m, pattern in rest:
                words &= pattern[row % m]
            at, col = _set_cells(words)
            yield row[at], col + self.lo


# the point search's moduli after CRT_FACTORS
_ROW_PRIMES = (17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _form_square_table(coeffs6: Sequence[int], m: int) -> np.ndarray:
    """The row table mod m of the sextic with ascending integer coefficients;
    F(r, s) = sum c_i r^i s^(6-i) is `form_value` of the reversed ones."""
    grid = np.arange(m, dtype=np.int64)
    values = form_value(coeffs6[::-1], grid[None, :], grid[:, None], m)  # [s, r]
    return _factor_table(2, m, (1,))[values]


class SquareRows(BoxRows):
    """The point search's sieve over the box s in [1, height], r in
    [-height, height]: the cells (s, r) where
    F(r, s) = sum coeffs6[i] r^i s^(6-i) may be a square modulo the CRT
    factors and then the primes 17..53, each one's row table an m x m table
    whose entry [s % m, r % m] marks F(r, s) being a square mod m."""

    def __init__(self, coeffs6: Sequence[int], height: int):
        super().__init__([(m, _form_square_table(coeffs6, m)) for m in CRT_FACTORS + _ROW_PRIMES],
                         range(1, height + 1), range(-height, height + 1))


_TERNARY_CAP = 512  # the largest modulus M * f that TernaryRows tabulates


def _ternary_power_table(ca: int, cb: int, m: int, k: int, f: int) -> np.ndarray:
    """The cover grid's table mod F = m * f: entry [a % F, b % F] is set iff
    m divides ca a^2 + cb b^2 and the quotient's residue mod f is in the
    k-th-power factor table (every residue when f = 1)."""
    mf = m * f
    squares = np.arange(mf, dtype=np.int64) ** 2 % mf
    v = ((ca % mf) * squares[:, None] + (cb % mf) * squares) % mf
    return (v % m == 0) & _factor_table(k, f, (1,))[v // m]


class TernaryRows(BoxRows):
    """The Lemma's cover grid over a, b in [0, bound]: the cells (a, b)
    where m may divide ca a^2 + cb b^2 with a quotient that may be a k-th
    power, by one table mod m * f per power modulus f.  A factor table
    that marks every residue leaves only the divisibility, so it becomes
    the one table mod m; a table that marks every cell, or one past
    _TERNARY_CAP, is left out.  The sign of the quotient is not sieved."""

    def __init__(self, ca: int, cb: int, m: int, k: int, bound: int):
        tables = {}
        for f in _POWER_MODULI:
            mf = m * f if not _factor_table(k, f, (1,)).all() else m
            if mf <= _TERNARY_CAP and mf not in tables:
                tables[mf] = _ternary_power_table(ca, cb, m, k, mf // m)
        super().__init__([(mf, t) for mf, t in tables.items() if not t.all()],
                         range(bound + 1), range(bound + 1))

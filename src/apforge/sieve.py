"""Residue tables: the sound pre-filter of the progression and point searches
and of the parametrization cover check, and the box search that confirms its
own cells.

A table marks the residues a value can have mod m, so it rejects only
values that cannot occur; survivors are confirmed exactly.  Tables are
built on first use.  A factor table marks the residues of eta * x^l modulo
one power modulus: a CRT factor 16, 9, 5, 7, 11 or 13 (which multiply to
720720), or the prime 17 or 19.  A box asks where a binary form F(col, row)
is M times a k-th power: the point search asks it of the sextic with M = 1
and k = 2, the Lemma's cover grid of cA a^2 + cB b^2 = M c^k, and the
descent scan of x3^3 + x1^3 with M = 2 and k = 2.  Its tables follow one
rule (`_form_table`): per power modulus f, entry [row % M f, col % M f]
marks M dividing F with a quotient in the k-th-power factor table mod f.
F mod M f on the whole M f x M f grid is one int64 matrix product of two
power tables, x^j and the coefficient-scaled reversed powers, mod M f.

Callers never see the modulus.  Two kernels pack their tables into 64-bit
row patterns, each an OR of the packed masks of the columns in one residue
class, and run a block of rows at a time, unpacking only the nonzero bytes
of the nonzero words: `ClassRows` the sieved progression scan, the cubic
twin's included, over a block of outer values, with the CRT factors packed
in coprime pairs (16 * 9, 5 * 7, 11 * 13) so a pair is one gather, and
`BoxRows` a 2-D box over a block of rows, with column masks cached per
column range and modulus, whose `hits` confirm each surviving cell on Python
ints; it runs as `SquareRows`, the point search's box, `TernaryRows`, the
cover grid, and `CubeSumRows`, the descent scan.  A block takes ROW_BLOCK
rows, or more while its patterns stay within the kernel's word cap
(CLASS_BLOCK_WORDS, BLOCK_WORDS) and it keeps about BLOCK_CELLS cells
(`_block_rows`, from the share of residues the tables admit), so a narrow
sparse scan loops over few blocks, and a wide or a dense one keeps its
arrays small.
BLOCK_CELLS is also the cell budget of every other numpy block: `searcher`'s
exact-stage slices, `parametrize`'s parameter box, `curves`' point counts and
`numfield`'s root tables.  WORK_CEILING bounds the pairs of a progression
search, the cells of a box and the cells of a point count.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .exactmath import form_value, int_kth_root

CRT_FACTORS = (16, 9, 5, 7, 11, 13)
_POWER_PRIMES = (17, 19)  # the power moduli after CRT_FACTORS
_POWER_MODULI = CRT_FACTORS + _POWER_PRIMES  # of TernaryRows, CubeSumRows and the tests' rule
# ClassRows' pattern groups: the CRT factors in coprime pairs, whose f1 * f2
# rows are the AND of the two factors' rows, then the primes alone (17 * 19
# would add 323 rows a pattern and save no time).
_CLASS_GROUPS = tuple(zip(CRT_FACTORS[::2], CRT_FACTORS[1::2])) + tuple((p,) for p in _POWER_PRIMES)
INT64_SAFE = 1 << 62  # int64 kernels keep every value below this in absolute value
WORK_CEILING = 2_000_000_000  # the pairs a search, or the cells a box or a count, may take


class ResourceLimitError(Exception):
    """A request past a resource ceiling, refused before any work is done."""


@lru_cache(maxsize=None)
def _factor_table(l: int, m: int, etas: tuple) -> np.ndarray:
    table = np.zeros(m, dtype=bool)
    powers = {pow(x, l, m) for x in range(m)}
    table[[(eta * t) % m for eta in etas for t in powers]] = True
    return table


ROW_BLOCK = 192  # the fewest rows in a block: outer values of ClassRows, rows of BoxRows
# A block takes more rows while its patterns stay within the kernel's word cap
# and it keeps about BLOCK_CELLS cells.  Large blocks cut the per-block loop
# of a sparse scan but cost a dense one more per cell: the rows of
# search_general(4, 2, 1000, S=(73,)) keep about 460 cells each, and in
# blocks of 260 rows instead of 192 its sieve stage took 95 ms against 83.
# A ClassRows block also loops over the classes and feeds the exact stage,
# so the Theorem-3 grid ran 8% faster at 49 152 words than at 16 384; a
# BoxRows block is one gather per modulus, and at 49 152 words the point
# search only raised the peak memory of `cases --height 1000` by 0.3 MB
# (2-vCPU x86-64 VM, numpy 2.4).
BLOCK_WORDS = 1 << 14  # BoxRows
CLASS_BLOCK_WORDS = 3 << 14  # ClassRows
BLOCK_CELLS = 1 << 16  # the cell budget of a numpy block, in every module


def _block_rows(width: int, cells: int, words: int) -> int:
    """Rows per block of a kernel whose rows are width words wide and keep
    about `cells` cells each: ROW_BLOCK, or more while the block stays
    within `words` words and BLOCK_CELLS cells."""
    return max(ROW_BLOCK, min(words // max(width, 1), BLOCK_CELLS // max(cells, 1)))


def _kept_cells(cols: int, tables) -> int:
    """About how many of cols cells every table marks, were the tables
    independent: cols times the product of each table's share."""
    kept, total = cols, 1
    for table in tables:
        kept *= int(np.count_nonzero(table))
        total *= table.size
    return kept // total


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
    h_m = h + e_m * (w - h) / |d| may each be eta * x^l_m, eta in etas_m,
    for each (e_m, l_m, etas_m) in derived: by the factor table of every
    power modulus, and by the sign rule, h_m >= 0 for even l_m and positive
    etas_m.

    A pair with d not dividing w - h is no progression, so a row h scans only
    the class w = h (mod |d|).  There (w - h) / |d| = q - h // |d| with
    q = w // |d|, so h_m modulo a power modulus f is e_m * q + r, where
    r = (h - e_m * (h // |d|)) % f depends on the row alone.  Each (position,
    modulus) therefore has f row patterns, one per r, over the inner array
    sorted by class, each the OR of the masks of the columns with q = u
    (mod f) for the u that the factor table admits.  A factor table that
    marks every residue is left out; the others are packed by group of
    _CLASS_GROUPS, a coprime pair f1, f2 as f1 * f2 patterns whose row r is
    the AND of row r % f1 and row r % f2 of its factors'.  The rows of one
    class in a block are the AND of one pattern gather per (position,
    group).  The sign rule and the half scan's (w - h) / d >= 0 are bounds
    on q: the block's widest bounds cut the class's columns before the
    gathers, and each row's own bounds cut the unpacked cells.
    Precondition: every |h_m| < INT64_SAFE.
    """

    def __init__(self, inner, d: int, derived):
        self.step, self.sign = abs(d), (1 if d > 0 else -1)
        inner = np.asarray(inner, dtype=np.int64)
        # Stable by class, so each class is one sorted run of columns.
        self.w = inner[np.argsort(inner % self.step, kind="stable")]
        self.q = self.w // self.step
        self.starts = np.searchsorted(self.w % self.step, np.arange(self.step + 1)).tolist()
        # A row scans its class's columns and keeps those every factor table admits.
        cells = _kept_cells(self.w.size // self.step, (
            _factor_table(l, f, etas) for _, l, etas in derived for g in _CLASS_GROUPS for f in g))
        self.block = _block_rows(-(-self.w.size // 64), cells, CLASS_BLOCK_WORDS)
        signed = [e for e, l, etas in derived if l % 2 == 0 and min(etas) > 0]
        self.rising, self.falling = [e for e in signed if e > 0], [-e for e in signed if e < 0]
        masks = {f: _class_masks(self.q % f, f) for group in _CLASS_GROUPS for f in group}
        self.positions = []
        for e, l, etas in derived:
            groups = []
            for group in _CLASS_GROUPS:
                live = [f for f in group if not _factor_table(l, f, etas).all()]
                if not live:
                    continue
                r, patterns = np.arange(math.prod(live)), None
                for f in live:
                    # Row r of f's patterns marks the columns with q = u (mod f)
                    # where the table holds at (e * u + r) % f.
                    u = np.arange(f)
                    table = _factor_table(l, f, etas)[(e * u + u[:, None]) % f]
                    part = _class_patterns(table, masks[f])[r % f]  # a gather, so a new array
                    if patterns is None:
                        patterns = part
                    else:
                        patterns &= part
                groups.append((r.size, patterns))
            if groups:
                self.positions.append((e, groups))
        if not self.positions:  # every table marks every residue: one row of ones
            self.positions.append((0, [(1, _class_masks(self.q % 1, 1))]))

    def cells(self, outer, half: bool = False):
        """Per block of self.block outer values h, (h, w, n): the int64
        arrays of the pairs that pass, in row-major order (h in the order
        given, then w ascending; with half, only those with (w - h) / d >= 0),
        and the number n of outer values the block took."""
        outer = np.asarray(outer, dtype=np.int64)
        for start in range(0, outer.size, self.block):
            h = outer[start:start + self.block]
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
                for e, groups in self.positions:
                    shift = h[at] - e * qh[at]
                    for m, patterns in groups:
                        if words is None:
                            words = patterns[shift % m, span]
                        else:
                            words &= patterns[shift % m, span]
                row, col = _set_cells(words)
                row, col = at[row], col + 64 * span.start
                q = self.q[col]
                keep = (col >= lo) & (col < hi) & (q >= floor[row]) & (q <= ceil[row])
                rows.append(row[keep])
                cols.append(col[keep])
            row = np.concatenate(rows)
            order = np.argsort(row, kind="stable")
            yield h[row[order]], self.w[np.concatenate(cols)[order]], h.size


@lru_cache(maxsize=128)
def _column_masks(lo: int, hi: int, m: int) -> np.ndarray:
    """`_class_masks` of the columns lo..hi - 1 by residue mod m, read-only:
    every box kernel over that column range shares them."""
    masks = _class_masks(np.arange(lo, hi, dtype=np.int64) % m, m)
    masks.flags.writeable = False
    return masks


_TABLE_CAP = 512  # the largest modulus m * f that BoxRows tabulates


@lru_cache(maxsize=128)
def _power_table(mf: int, n: int) -> np.ndarray:
    """The int64 table P[x, j] = x^j mod mf, x < mf and j <= n, read-only:
    every box table mod mf of a form of degree n shares it."""
    grid, powers = np.arange(mf, dtype=np.int64), np.ones((mf, n + 1), dtype=np.int64)
    for j in range(1, n + 1):
        powers[:, j] = powers[:, j - 1] * grid % mf
    powers.flags.writeable = False
    return powers


def _form_table(coeffs: Sequence[int], m: int, k: int, f: int) -> np.ndarray:
    """The box table mod m * f of F(col, row) = `form_value`(coeffs, col,
    row): entry [row % (m f), col % (m f)] is set iff m divides F and the
    quotient's residue mod f is in the k-th-power factor table (every
    residue when f = 1).

    F(col, row) mod m f is one int64 matrix product, P S, of the power
    table P[x, j] = x^j mod m f (x < m f, j <= n; `_power_table`, cached)
    and the reversed power table S[j, col] = P[col, n - j], row j scaled by
    coeffs[j] mod m f.  Each of its n + 1 terms is below (m f - 1)^3, so
    every sum stays under (n + 1) (m f - 1)^3 < 2^31 for m f <= _TABLE_CAP
    and n <= 6."""
    mf, n = m * f, len(coeffs) - 1
    admitted = np.zeros(mf, dtype=bool)
    admitted[::m] = _factor_table(k, f, (1,))  # the residues m t mod m f, t a k-th power mod f
    powers = _power_table(mf, n)
    scaled = powers[:, ::-1].T * np.array([c % mf for c in coeffs], dtype=np.int64)[:, None]
    return admitted[powers @ scaled % mf]  # [row, col]


class BoxRows:
    """The box search over rows x cols, ranges of step 1: the cells
    (row, col) where F(col, row) = sum coeffs[j] col^(n - j) row^j may be
    m * (a k-th power), and `hits`, those where it is.

    One table per power modulus f in moduli, mod m f, or mod m when the
    k-th-power table mod f marks every residue (`_form_table`); a repeated
    modulus, one past _TABLE_CAP and a table that marks every cell are left
    out.  The sign of F / m is not sieved.  A box of more than WORK_CEILING
    cells is refused before any table is built.

    Each table is packed once into m f row patterns of 64-bit words, from
    the masks of the columns with col = u (mod m f): bit j of word k of
    pattern row % (m f) is its entry at col = cols[64 k + j], and the
    padding bits are zero.  A block of self.block rows (`_block_rows` of the
    pattern width and the cells a row keeps, its columns times the share of
    cells every table marks) is the AND of one row gather per modulus, and
    only the nonzero bytes of its nonzero words are unpacked.  With no table
    every cell passes.
    """

    def __init__(self, coeffs: Sequence[int], m: int, k: int, moduli, rows: range, cols: range):
        if len(rows) * len(cols) > WORK_CEILING:
            raise ResourceLimitError(f"box of {len(rows) * len(cols)} cells exceeds ceiling")
        self.coeffs, self.m, self.k = coeffs, m, k
        self.rows, self.lo = rows, cols.start
        tables = {}
        for f in moduli:
            f = 1 if _factor_table(k, f, (1,)).all() else f
            if m * f <= _TABLE_CAP and m * f not in tables:
                tables[m * f] = _form_table(self.coeffs, m, k, f)
        tables = [(mf, table) for mf, table in tables.items() if not table.all()]
        cells = _kept_cells(len(cols), (table for _, table in tables))
        self.block = _block_rows(-(-len(cols) // 64), cells, BLOCK_WORDS)
        self.patterns = [(mf, _class_patterns(table, _column_masks(cols.start, cols.stop, mf)))
                         for mf, table in tables] or [(1, _column_masks(cols.start, cols.stop, 1))]

    def cells(self):
        """Per block of self.block rows, the (row, col) int64 arrays of the
        cells that pass every modulus, in row-major order: row, then col,
        ascending."""
        for start in range(self.rows.start, self.rows.stop, self.block):
            row = np.arange(start, min(start + self.block, self.rows.stop), dtype=np.int64)
            (m, pattern), *rest = self.patterns
            words = pattern[row % m]  # a gather, so a new array
            for m, pattern in rest:
                words &= pattern[row % m]
            at, col = _set_cells(words)
            yield row[at], col + self.lo

    def hits(self, coprime: bool = False):
        """The (row, col, root) with F(col, row) = m * root^k, in row-major
        order, each cell confirmed exactly on Python ints (`int_kth_root`'s
        root); with coprime, only the cells with gcd(row, col) = 1, cut by
        one `np.gcd` per block."""
        for row, col in self.cells():
            if coprime:
                keep = np.gcd(row, col) == 1
                row, col = row[keep], col[keep]
            for r, c in zip(row.tolist(), col.tolist()):
                q, rem = divmod(form_value(self.coeffs, c, r), self.m)
                root = None if rem else int_kth_root(q, self.k)
                if root is not None:
                    yield r, c, root


# the point search's moduli after CRT_FACTORS
_ROW_PRIMES = (17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


class SquareRows(BoxRows):
    """The point search's box s in [1, height], r in [-height, height]:
    F(r, s) = sum coeffs6[i] r^i s^(6-i) a square, sieved modulo the CRT
    factors and then the primes 17..53."""

    def __init__(self, coeffs6: Sequence[int], height: int):
        super().__init__(coeffs6[::-1], 1, 2, CRT_FACTORS + _ROW_PRIMES,
                         range(1, height + 1), range(-height, height + 1))


class TernaryRows(BoxRows):
    """The Lemma's cover grid a, b in [0, bound]: ca a^2 + cb b^2 = m c^k,
    sieved modulo m f for the power moduli f."""

    def __init__(self, ca: int, cb: int, m: int, k: int, bound: int):
        super().__init__((cb, 0, ca), m, k, _POWER_MODULI, range(bound + 1), range(bound + 1))


class CubeSumRows(BoxRows):
    """The descent scan's box x1, x3 in [-scan, scan]: x3^3 + x1^3 = 2 x2^2,
    rows x1 and columns x3, sieved modulo 2 f for the power moduli f."""

    def __init__(self, scan: int):
        box = range(-scan, scan + 1)
        super().__init__((1, 0, 0, 1), 2, 2, _POWER_MODULI, box, box)

"""Residue tables: the reference rule `maybe_power` (power_rule.py) against
the AND of independently built factor tables and against exact twisted
powers, the packed row patterns and the set-bit unpacking against plain
references, and the row kernels of the progression scan and the point
search against plain references."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from apforge import sieve
from apforge.exactmath import int_kth_root
from apforge.searcher import _eta_candidates
from apforge.sieve import CRT_FACTORS, ROW_BLOCK, ClassRows, SquareRows, _block_rows, _set_cells
import box_rule
from power_rule import maybe_power

# The moduli maybe_power and ClassRows test a power against: the CRT factors
# of 720720, then 17 and 19; ClassRows packs the factors in coprime pairs.
POWER_MODULI = (16, 9, 5, 7, 11, 13, 17, 19)
CLASS_GROUPS = ((16, 9), (5, 7), (11, 13), (17,), (19,))


@contextlib.contextmanager
def _floor_blocks():
    """Every packed kernel built inside takes ROW_BLOCK rows a block, the
    floor of `_block_rows`: the block edges of a wide box at real
    constants are past what a Python-int reference can afford."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sieve, "BLOCK_WORDS", 0)
        patch.setattr(sieve, "CLASS_BLOCK_WORDS", 0)
        yield


def _factor_residues(l, f, etas):
    """The residues mod f of eta * x^l, eta in etas, as a bool table."""
    factor = np.zeros(f, dtype=bool)
    for eta in etas:
        for x in range(f):
            factor[(eta * pow(x, l, f)) % f] = True
    return factor


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_power_table_is_and_of_factor_tables(l):
    # maybe_power on 0..720719: every residue mod 16 * 9 * 5 * 7 * 11 * 13,
    # and every residue mod 17 and mod 19 many times, where the sign rule
    # passes every value.
    r = np.arange(math.prod(CRT_FACTORS))
    for etas in (_eta_candidates((73,), l, 10**6), (1,)):
        want = np.ones(r.size, dtype=bool)
        for f in POWER_MODULI:
            want &= _factor_residues(l, f, etas)[r % f]
        assert np.array_equal(maybe_power(r, l, etas), want)


def test_power_moduli_are_one_tuple(monkeypatch):
    # CRT_FACTORS stays the six coprime factors of 720720; maybe_power reads
    # the one tuple that follows them with 17 and 19, ClassRows the same
    # moduli in coprime groups, and the point search lists each of its 16
    # moduli once.  A table that marks every cell is left out: x^6 + y^6
    # is 0, 1 or 2 mod 7, all squares, so its box drops the modulus 7.
    assert math.prod(CRT_FACTORS) == 720720 and math.lcm(*CRT_FACTORS) == 720720
    assert sieve._POWER_MODULI == POWER_MODULI
    assert sieve._CLASS_GROUPS == CLASS_GROUPS
    assert all(math.prod(g) == math.lcm(*g) for g in CLASS_GROUPS)
    point_moduli = [16, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    assert [m for m, _ in SquareRows([3, 0, 0, 0, 0, 0, 1], 1).patterns] == point_moduli
    point_moduli.remove(7)
    assert [m for m, _ in SquareRows([1, 0, 0, 0, 0, 0, 1], 1).patterns] == point_moduli

    def class_rows_moduli():
        # Squares miss some residue of every modulus, so none is left out.
        (_, groups), = ClassRows(np.arange(50), 1, [(1, 2, (1,))]).positions
        return [m for m, _ in groups]

    r = np.arange(5 * 17 * 19)
    assert class_rows_moduli() == [144, 35, 143, 17, 19]
    for moduli in ((17,), (19, 16)):
        monkeypatch.setattr(sieve, "_CLASS_GROUPS", (moduli,))
        assert class_rows_moduli() == [math.prod(moduli)]
        monkeypatch.setattr(sieve, "_POWER_MODULI", moduli)
        want = np.logical_and.reduce([_factor_residues(2, f, (1,))[r % f] for f in moduli])
        assert np.array_equal(maybe_power(r, 2), want)


def _is_twisted_power(q, l, etas):
    return any(q % eta == 0 and int_kth_root(q // eta, l) is not None for eta in etas)


@st.composite
def _twist_combo(draw):
    """(alpha, beta, delta, l, etas): the value alpha*h + beta*w over delta,
    tested for eta * x^l with up to four S-units of S = (73,)."""
    l = draw(st.integers(2, 5))
    cands = _eta_candidates((73,), l, 10**6)
    etas = draw(st.lists(st.sampled_from(cands), min_size=1, max_size=min(4, len(cands)),
                         unique=True))
    delta = draw(st.sampled_from((1, 2, 3, 4))) * draw(st.sampled_from((1, -1)))
    return draw(st.integers(-4, 4)), draw(st.integers(-4, 4)), delta, l, tuple(etas)


TWIST_DRAWS = 6


@settings(max_examples=120 // TWIST_DRAWS, deadline=None)
@given(st.lists(_twist_combo(), min_size=TWIST_DRAWS, max_size=TWIST_DRAWS))
def test_maybe_power_passes_every_twisted_power(combos):
    # Soundness: on a grid of v = alpha*h + beta*w, every quotient v / delta
    # that is exactly eta * x^l, eta in etas, passes, as an int64 array and
    # as a Python int.
    vals = sorted({s * x**l for x in range(-6, 7) for l in (2, 3) for s in (1, -1, 2, 73)})
    h, w = np.array(vals, dtype=np.int64)[:, None], np.array(vals, dtype=np.int64)
    for alpha, beta, delta, l, etas in combos:
        v = alpha * h + beta * w
        whole = v % delta == 0
        passed = maybe_power(v // delta, l, etas)
        exact = [q for q in np.unique(v[whole] // delta).tolist()
                 if _is_twisted_power(q, l, etas)]
        assert exact
        for q in exact:
            assert passed[whole & (v // delta == q)].all() and maybe_power(q, l, etas)


# ClassRows against a plain reference: the derived terms
# h + e * (w - h) / |d| on int64 arrays, each checked with maybe_power.
_ETAS = [(1,), (2, 3), (-1,), (1, -1), (1, -1, 73, -73), (-2, 5)]


def _class_rows_want_pairs(inner, d, derived, rows, half=False):
    """The (h, w) pairs the reference keeps, row-major: h in the order given,
    then w ascending (inner is sorted); 1024 rows at a time."""
    pairs = []
    for start in range(0, len(rows), 1024):
        h = np.array(rows[start:start + 1024], dtype=np.int64).reshape(-1, 1)
        keep = (inner - h) % d == 0
        n = (inner - h) // abs(d)  # exact on every cell keep holds
        for e, l, etas in derived:
            keep &= maybe_power(h + e * n, l, etas)
        if half:
            keep &= (inner - h) // d >= 0
        at, col = np.nonzero(keep)
        pairs += zip(h[at, 0].tolist(), inner[col].tolist())
    return pairs


@st.composite
def _class_rows_case(draw):
    power = st.builds(lambda x, l, c: c * x**l, st.integers(-30, 30), st.integers(2, 4),
                      st.sampled_from((1, -1, 2, 3, 73)))
    values = st.lists(st.one_of(power, st.integers(-10**5, 10**5)), max_size=80)
    inner = np.array(sorted(set(draw(values))), dtype=np.int64)
    d = draw(st.sampled_from((1, -1, 2, -2, 3, -3)))
    derived = draw(st.lists(st.tuples(st.integers(-4, 4).filter(bool), st.integers(2, 5),
                                      st.sampled_from(_ETAS)), min_size=1, max_size=3))
    rows = draw(st.lists(st.one_of(power, st.sampled_from(inner.tolist() or [0])),
                         min_size=1, max_size=6))
    return inner, d, derived, rows


def _class_rows_pairs(kernel, rows, half=False):
    """kernel.cells(rows, half) as one row-major list of (h, w) pairs; each
    block takes the next kernel.block rows (fewer at the end), is int64,
    reports the number of rows it took and holds only pairs of its own
    rows."""
    blocks = list(kernel.cells(np.array(rows, dtype=np.int64), half=half))
    block = kernel.block
    assert len(blocks) == -(-len(rows) // block)
    got = []
    for b, (hs, ws, n) in enumerate(blocks):
        own = rows[b * block:(b + 1) * block]
        assert hs.dtype == ws.dtype == np.int64 and n == len(own)
        assert np.isin(hs, own).all()
        got += zip(hs.tolist(), ws.tolist())
    return got


# Explicit cases: inner sizes 63, 64, 65 and 129 end a row of patterns one
# bit short of a word edge, on one, and one bit past the first and the
# second.  The outer sizes, unsorted and with repeats, end one row short of
# one block, one past it and three past two blocks, on each bound of
# `_block_rows`: the cell cap (about 64, 65 and 7 cells a row: blocks of
# 1024, 1008 and 9362 rows), the word cap (2 and 3 words a row: 24 576 and
# 16 384 rows) and the ROW_BLOCK floor (400 cells a row).  The twists of
# S = {2, 3} mark every residue, so their position keeps every cell of the
# class; the twists (1, -1, 73, -73) of squares mark every residue mod 5, so
# 7 is left alone in its pair, as 7 and 13 are for every cube.
_EVERY_RESIDUE = _eta_candidates((2, 3), 2, 10**6)
_PLUS_MINUS_73 = (1, -1, 73, -73)


def _edge_case(inner_size, outer_size, d, derived):
    """The case's outer size is an int, or (k, t) for k blocks of the
    kernel's plus t."""
    inner = np.arange(inner_size, dtype=np.int64) * 7 - 200
    if isinstance(outer_size, tuple):
        k, t = outer_size
        outer_size = k * ClassRows(inner, d, derived).block + t
    rows = [(37 * t) % 101 * 5 - 250 for t in range(outer_size)]
    return inner, d, derived, rows


@settings(max_examples=300, deadline=None)
@given(_class_rows_case(), st.booleans())
@example(_edge_case(63, 5, 1, [(2, 2, _EVERY_RESIDUE)]), False)
@example(_edge_case(64, 7, -2, [(1, 2, _PLUS_MINUS_73), (-1, 2, _EVERY_RESIDUE)]), True)
@example(_edge_case(65, 9, 3, [(-1, 3, (1,)), (2, 2, _EVERY_RESIDUE)]), False)
@example(_edge_case(129, 11, -3, [(2, 2, _EVERY_RESIDUE), (1, 3, (1, -1))]), True)
@example(_edge_case(129, (1, -1), 2, [(1, 2, _EVERY_RESIDUE)]), False)
@example(_edge_case(65, (1, 1), -1, [(-2, 2, _EVERY_RESIDUE)]), True)
@example(_edge_case(64, (2, 3), 3, [(1, 2, _PLUS_MINUS_73)]), False)
@example(_edge_case(65, (1, 1), 1, [(1, 2, (1,)), (2, 3, (1,))]), True)
@example(_edge_case(129, (1, -1), -2, [(1, 3, (1, -1))]), False)
@example(_edge_case(400, (1, 1), 1, [(2, 2, _EVERY_RESIDUE)]), True)
@example(_edge_case(400, (2, 3), -1, [(1, 2, _EVERY_RESIDUE)]), False)
def test_class_rows_survivors_match_reference(case, half):
    inner, d, derived, rows = case
    got = _class_rows_pairs(ClassRows(inner, d, derived), rows, half)
    assert got == _class_rows_want_pairs(inner, d, derived, rows, half)


def test_class_rows_empty_classes_and_half_cut():
    inner = np.array([x * x for x in range(0, 40)], dtype=np.int64)
    # Squares are 0 or 1 mod 3, so the class 2 mod 3 is empty.
    kernel = ClassRows(inner, 3, [(1, 2, (1,)), (2, 2, (1,))])
    assert _class_rows_pairs(kernel, [2, -1, 5]) == _class_rows_pairs(kernel, [-1], half=True) == []
    assert _class_rows_pairs(ClassRows(inner[:0], -2, [(1, 3, (1,))]), [5, 4]) == []
    assert _class_rows_pairs(kernel, []) == []
    for d in (3, -3):
        # e = sign(d) is the term h + n, n = (w - h) / d; the twist -1 keeps
        # the sign rule off, so only the half scan cuts the row.
        derived, rows = [(1 if d > 0 else -1, 2, (1, -1))], [1, 49, 625]
        kernel = ClassRows(inner, d, derived)
        full, half = _class_rows_pairs(kernel, rows), _class_rows_pairs(kernel, rows, half=True)
        assert full == _class_rows_want_pairs(inner, d, derived, rows)
        assert half == [(h, w) for h, w in full if (w - h) // d >= 0]
        assert {(h, h) for h in rows} <= set(half) and len(half) < len(full)


def test_class_rows_sign_cut_edges():
    # Every integer as inner value puts derived terms on -3..1, the edges of
    # the sign rule's cut, in every class and both directions.  The positive
    # twists P - t, P the product of the power moduli, put -t in the power
    # table, so only the cut rejects it.
    inner = np.arange(-60, 61, dtype=np.int64)
    below_zero = tuple(math.prod(POWER_MODULI) - t for t in (1, 2, 3))
    rows = list(range(-20, 21))
    for d in (1, -1, 2, -2, 3, -3):
        for e in (-3, -2, -1, 1, 2, 3):
            for derived in ([(e, 2, (1,))], [(e, 2, below_zero)],
                            [(e, 4, (2, 3)), (-e, 2, (1,))]):
                kernel = ClassRows(inner, d, derived)
                for half in (False, True):
                    want = _class_rows_want_pairs(inner, d, derived, rows, half)
                    assert _class_rows_pairs(kernel, rows, half) == want, (d, derived)


# ClassRows' row patterns against a column gather: row r of the patterns of
# (position e, group g) has column c set when the factor table of every
# modulus f of g holds at (e * q_c + r) % f, q_c = w_c // |d|, packed
# little-endian with zero padding, for r below the product of g's moduli; a
# modulus whose table marks every residue is left out of its group, a group
# with none left and a position with no group are left out, and with none
# left one all-ones row stands in.
def _packed(bits):
    padded = np.zeros((bits.shape[0], -(-bits.shape[1] // 64) * 64), dtype=bool)
    padded[:, :bits.shape[1]] = bits
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _gathered_patterns(q, derived):
    positions = []
    for e, l, etas in derived:
        groups = []
        for group in CLASS_GROUPS:
            live = [f for f in group if not _factor_residues(l, f, etas).all()]
            if live:
                r = np.arange(math.prod(live))[:, None]
                bits = np.logical_and.reduce([_factor_residues(l, f, etas)[(e * q + r) % f]
                                              for f in live])
                groups.append((r.size, _packed(bits)))
        if groups:
            positions.append((e, groups))
    return positions or [(0, [(1, _packed(np.ones((1, q.size), dtype=bool)))])]


def _assert_patterns_match(inner, d, derived):
    kernel = ClassRows(inner, d, derived)
    want = _gathered_patterns(kernel.q, derived)
    assert [(e, [m for m, _ in gs]) for e, gs in kernel.positions] == \
        [(e, [m for m, _ in gs]) for e, gs in want]
    for (_, got_groups), (_, want_groups) in zip(kernel.positions, want):
        for (_, got), (_, bits) in zip(got_groups, want_groups):
            assert got.dtype == np.dtype("<u8") and np.array_equal(got, bits)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), unique=True, max_size=200),
       st.sampled_from((1, -1, 2, -2, 3, -3)),
       st.lists(st.tuples(st.integers(-4, 4).filter(bool), st.integers(2, 5),
                          st.sampled_from(_ETAS + [_EVERY_RESIDUE])), min_size=1, max_size=3))
def test_class_rows_patterns_match_column_gather(inner, d, derived):
    _assert_patterns_match(np.array(sorted(inner), dtype=np.int64), d, derived)


@pytest.mark.parametrize("size", [63, 64, 65, 129])
@pytest.mark.parametrize("d", [1, -2, 3])
def test_class_rows_patterns_at_word_edges(size, d):
    # e = 2 against f = 16 and e = 3 against f = 9 share a factor with the
    # modulus, so e * u mod f misses residues; the twists (1, -1, 73, -73)
    # leave 7 alone in its pair, for squares and cubes, and 13 for cubes;
    # the twists of S = {2, 3} mark every residue, alone and beside a
    # position that keeps its tables.
    inner = np.arange(size, dtype=np.int64) * 7 - 200
    for derived in ([(2, 2, (1,))], [(3, 3, (1,))], [(2, 4, (1, -1)), (-3, 3, (2, 3))],
                    [(1, 2, _PLUS_MINUS_73), (2, 3, _PLUS_MINUS_73)],
                    [(1, 2, _EVERY_RESIDUE)], [(2, 2, _EVERY_RESIDUE), (3, 3, (1,))]):
        _assert_patterns_match(inner, d, derived)


# _set_cells against np.unpackbits of every word, in row-major order.
def _set_cells_want(words):
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return np.nonzero(bits)


_WORDS = st.sampled_from([0, (1 << 64) - 1, 1 << 63, 1, 0x8000_0001_0080_0100]) | \
    st.integers(0, (1 << 64) - 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(_WORDS, min_size=n, max_size=n),
                                                    min_size=1, max_size=6)))
@example([[0]])
@example([[0, 0, 0], [0, 0, 0]])
@example([[(1 << 64) - 1] * 3] * 2)
@example([[1 << 63], [1 << 63]])
@example([[1 << 63, 0, 1 << 63]])
@example([[5], [0], [1 << 63]])
def test_set_cells_matches_unpackbits(rows):
    words = np.array(rows, dtype="<u8")
    got, want = _set_cells(words), _set_cells_want(words)
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and np.array_equal(g, w)


@pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
def test_set_cells_of_an_empty_block(shape):
    row, col = _set_cells(np.zeros(shape, dtype="<u8"))
    assert row.size == col.size == 0


def _square_of_cubic(g):
    return [sum(g[i] * g[k - i] for i in range(4) if 0 <= k - i < 4) for k in range(7)]


# Explicit heights: a row of r spans 2 height + 1 bits, never whole words,
# and 31 and 32 leave 1 and 63 padding bits; with blocks at the ROW_BLOCK
# floor, ROW_BLOCK + 1 and 2 ROW_BLOCK + 3 span two and three blocks.  With
# F = G^2 every cell is kept, so a stray padding bit would show.
_EXAMPLE_SEXTIC = [-7, 11, 0, 5, -9344, 2, 13]
_EXAMPLE_SQUARE = _square_of_cubic([3, -1, 0, 2])


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.lists(st.integers(-10**4, 10**4), min_size=7, max_size=7),
                 st.lists(st.integers(-30, 30), min_size=4, max_size=4).map(_square_of_cubic)),
       st.integers(1, 40))
@example(_EXAMPLE_SEXTIC, 31)
@example(_EXAMPLE_SQUARE, 32)
@example(_EXAMPLE_SEXTIC, ROW_BLOCK + 1)
@example(_EXAMPLE_SQUARE, ROW_BLOCK + 1)
@example(_EXAMPLE_SEXTIC, 2 * ROW_BLOCK + 3)
@example(_EXAMPLE_SQUARE, 2 * ROW_BLOCK + 3)
def test_square_rows_survivors_match_reference(coeffs6, height):
    # The cells (s, r), row-major, where F(r, s) is a square modulo every one
    # of the point search's moduli, from F evaluated with Python ints; every
    # square F(r, s) is kept (F = G^2 makes every value one).
    moduli = (16, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    squares = {m: {x * x % m for x in range(m)} for m in moduli}
    with _floor_blocks():
        kernel = SquareRows(coeffs6, height)
    blocks, block = list(kernel.cells()), kernel.block
    assert block == ROW_BLOCK and len(blocks) == -(-height // block)
    got = []
    for b, (s_cells, r_cells) in enumerate(blocks):
        assert s_cells.dtype == r_cells.dtype == np.int64
        assert all(b * block < s <= (b + 1) * block for s in s_cells.tolist())
        got += zip(s_cells.tolist(), r_cells.tolist())
    values = {(s, r): sum(c * r**i * s ** (6 - i) for i, c in enumerate(coeffs6))
              for s in range(1, height + 1) for r in range(-height, height + 1)}
    want = [cell for cell, v in values.items() if all(v % m in squares[m] for m in moduli)]
    assert got == want
    kept = set(want)
    assert all(cell in kept for cell, v in values.items() if v >= 0 and int_kth_root(v, 2) is not None)


# TernaryRows, the Lemma's cover grid a, b in [0, bound], against the rule
# of the int64 grid it replaced: M | v and maybe_power(v // M, k) for
# v = cA a^2 + cB b^2.  Tables are built mod M f, so for M up to 12 every
# power modulus f is kept and the cells are exactly those where M | v and
# the quotient's residues pass (its sign is not sieved: q mod the product of
# the moduli has q's residues and is non-negative).  Explicit bounds: 62, 63
# and 64 end the columns one bit short of a word, on it and one past it;
# with blocks at the ROW_BLOCK floor, 190, 191 and 192 end the rows one
# short of a block, on it and one past.
def _ternary_cells(kernel, bound):
    """kernel.cells() as one list of (a, b) pairs; each block is int64 and
    holds only cells of its own kernel.block rows."""
    blocks, block = list(kernel.cells()), kernel.block
    assert len(blocks) == -(-(bound + 1) // block)
    got = []
    for n, (a, b) in enumerate(blocks):
        assert a.dtype == b.dtype == np.int64
        assert all(n * block <= x < (n + 1) * block for x in a.tolist())
        got += zip(a.tolist(), b.tolist())
    return got


def _old_grid_rule(ca, cb, m, k, bound):
    """(v, M | v and maybe_power(v // M, k)) over the box, as [a, b] arrays."""
    x = np.arange(bound + 1, dtype=np.int64) ** 2
    v = ca * x[:, None] + cb * x
    return v, (v % m == 0) & maybe_power(v // m, k)


_TERNARY = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 12),
                     st.sampled_from((2, 3, 4)))


@settings(max_examples=60, deadline=None)
@given(_TERNARY, st.sampled_from((0, 1, 5, 62, 63, 64, 127, 128, 190, 191, 192)))
@example((1, 1, 2, 3), 191)
@example((-1, 2, 1, 3), 64)
@example((1, 1, 8, 3), 63)
@example((-7, 3, 12, 4), 192)
def test_ternary_rows_drop_only_cells_the_old_grid_drops(equation, bound):
    ca, cb, m, k = equation
    with _floor_blocks():
        kernel = sieve.TernaryRows(ca, cb, m, k, bound)
    got = _ternary_cells(kernel, bound)
    assert got == sorted(got) and len(set(got)) == len(got)  # row-major, each cell once
    v, old = _old_grid_rule(ca, cb, m, k, bound)
    kept = np.zeros(v.shape, dtype=bool)
    kept[tuple(np.array(got, dtype=np.int64).reshape(-1, 2).T)] = True
    assert not (old & ~kept).any()
    residues = (v // m) % math.prod(POWER_MODULI)
    assert np.array_equal(kept, (v % m == 0) & maybe_power(residues, k))


@pytest.mark.parametrize("m", [600, 10**6 + 3])
def test_ternary_rows_past_the_table_cap_keep_every_cell(m):
    # Every M f (and M itself) is past the largest tabulated modulus, so no
    # table is built and every cell of the box is kept.
    assert m > sieve._TABLE_CAP
    got = _ternary_cells(sieve.TernaryRows(3, -5, m, 2, 64), 64)
    assert got == [(a, b) for a in range(65) for b in range(65)]


# Every modulus f a box may tabulate (1 when the k-th-power table marks every
# residue), with an m that keeps m f within the cap.
_TABLE_MODULI = st.sampled_from((1, *POWER_MODULI, 23, 29, 31, 37, 41, 43, 47, 53)).flatmap(
    lambda f: st.tuples(st.integers(1, sieve._TABLE_CAP // f), st.just(f)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.integers(-10**12, 10**12) | st.just(0),
                                                    min_size=n + 1, max_size=n + 1)),
       _TABLE_MODULI, st.integers(1, 6))
@example([-1] * 7, (32, 16), 2)  # m f at the cap, every term at its largest, (m f - 1)^3
@example([0, 0, 0, 0, 0, 0, 0], (512, 1), 3)
@example([5, 0, -7], (1, 1), 2)
@example([1, 0, 0, 1], (2, 19), 2)  # a table of the descent scan
def test_form_table_matches_the_per_cell_table(coeffs, mf, k):
    m, f = mf
    got = sieve._form_table(coeffs, m, k, f)
    assert got.dtype == bool and got.shape == (m * f, m * f)
    assert np.array_equal(got, box_rule.form_table(coeffs, m, k, f))


def test_power_tables_are_cached_and_read_only():
    # Every box table mod m f of a degree-n form reads one power table
    # x^j mod m f, cached, so no caller may write to it.
    sieve._power_table.cache_clear()
    SquareRows([1, 0, 0, 0, 0, 0, 1], 10)
    SquareRows([1, 2, 0, 0, 0, 3, 1], 12)
    info = sieve._power_table.cache_info()
    assert (info.misses, info.hits) == (16, 16)
    table = sieve._power_table(16, 6)
    assert table is sieve._power_table(16, 6) and not table.flags.writeable
    grid = np.arange(16, dtype=np.int64)[:, None]
    assert np.array_equal(table, grid ** np.arange(7) % 16)
    with pytest.raises(ValueError, match="read-only"):
        table[1, 1] = 0
    with pytest.raises(ValueError, match="read-only"):
        table += 1


def test_box_past_the_work_ceiling_is_refused_before_any_table(monkeypatch):
    # Boxes of WORK_CEILING cells are searched; one cell more is refused
    # before a table is built.  The point search at height h has h (2 h + 1)
    # cells, the cover grid at bound b (b + 1)^2.
    monkeypatch.setattr(sieve, "WORK_CEILING", 15**2)
    assert list(sieve.TernaryRows(1, 1, 2, 3, 14).hits(True)) == [(1, 1, 1), (9, 13, 5), (13, 9, 5)]
    assert list(SquareRows([1, 0, 0, 0, 0, 0, 1], 10).hits(True)) == [(1, 0, 1)]

    def no_table(*args):
        raise AssertionError("a refused box built a table")

    monkeypatch.setattr(sieve, "_form_table", no_table)
    for build, cells in ((lambda: sieve.TernaryRows(1, 1, 2, 3, 15), 256),
                         (lambda: SquareRows([1, 0, 0, 0, 0, 0, 1], 11), 253)):
        with pytest.raises(sieve.ResourceLimitError,
                           match=f"^box of {cells} cells exceeds ceiling$"):
            build()


def test_blocks_grow_to_the_word_and_cell_caps():
    # A block takes ROW_BLOCK rows, or more while it stays within its
    # kernel's word cap and BLOCK_CELLS cells, a row keeping its columns
    # times the share of residues every table admits.  In ClassRows 2001
    # cubes (a cube position at bound 1000, 32 words a row) take 1536 rows,
    # so 2 blocks, and 10 001 squares (157 words) 313.  The 4001 values of a
    # square position with the twists of S = {73} at bound 1000 are 63
    # words, but a row keeps about 463 cells of them: ROW_BLOCK.  The point
    # search at height 1000 (2001 columns) runs in 2 blocks of BoxRows, and
    # the cover grid at bound 200 in 1.
    assert (ROW_BLOCK, sieve.BLOCK_WORDS, sieve.CLASS_BLOCK_WORDS, sieve.BLOCK_CELLS) == \
        (192, 16384, 49152, 65536)
    assert [_block_rows(w, 0, 16384) for w in (0, 1, 2, 3, 32, 85, 86, 157)] == \
        [16384, 16384, 8192, 5461, 512, 192, 192, 192]
    assert [_block_rows(1, c, 16384) for c in (0, 1, 4, 5, 300, 1000)] == \
        [16384, 16384, 16384, 13107, 218, 192]
    cubes = np.arange(-1000, 1001, dtype=np.int64) ** 3
    kernel = ClassRows(cubes, 1, [(1, 3, (1,)), (2, 3, (1,))])
    assert kernel.block == 1536
    assert [n for _, _, n in kernel.cells(cubes)] == [1536, 465]
    assert ClassRows(np.arange(10001) ** 2, 1, [(1, 2, (1,))]).block == 313
    eta73 = _eta_candidates((73,), 2, 10**6)
    twisted = np.unique(np.multiply.outer(eta73, np.arange(1001) ** 2))
    assert twisted.size == 4001
    assert ClassRows(twisted, 1, [(2, 2, eta73), (3, 2, eta73)]).block == ROW_BLOCK
    sextic = [1, 0, -3, 2, 0, 5, 1]
    assert SquareRows(sextic, 1000).block == 512
    assert len(list(SquareRows(sextic, 1000).cells())) == 2
    assert len(list(sieve.TernaryRows(1, 1, 2, 3, 200).cells())) == 1


@pytest.mark.parametrize("build", [
    lambda: SquareRows([1, 0, -3, 2, 0, 5, 1], 1000),
    lambda: sieve.TernaryRows(1, 1, 2, 3, 1024),  # 1025 rows of 17 words: 963 rows a block
    lambda: sieve.TernaryRows(-7, 3, 12, 4, 1499),  # 1500 rows of 24 words: 682 rows a block
], ids=["points-1000", "cover-1024", "cover-1499"])
def test_box_cells_do_not_depend_on_the_block(build):
    # Blocks at the caps and at the ROW_BLOCK floor give the same cells.
    kernel = build()
    with _floor_blocks():
        floor = build()
    assert floor.block == ROW_BLOCK < kernel.block
    assert len(list(kernel.cells())) > 1
    for got, want in zip(map(np.concatenate, zip(*kernel.cells())),
                         map(np.concatenate, zip(*floor.cells()))):
        assert np.array_equal(got, want)

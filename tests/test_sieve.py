"""Residue tables: the CRT power table against its factor definition,
`maybe_power` against exact twisted powers, and the row kernels of the
progression scan and the point search against plain references."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from apforge.exactmath import int_kth_root
from apforge.searcher import _eta_candidates
from apforge.sieve import (CRT_FACTORS, CRT_MODULUS, ROW_BLOCK, ClassRows, SquareRows,
                           maybe_power, power_table)


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_power_table_is_and_of_factor_tables(l):
    r = np.arange(CRT_MODULUS)
    for etas in (_eta_candidates((73,), l, 10**6), (1,)):
        want = np.ones(CRT_MODULUS, dtype=bool)
        for f in CRT_FACTORS:
            factor = np.zeros(f, dtype=bool)
            for eta in etas:
                for x in range(f):
                    factor[(eta * pow(x, l, f)) % f] = True
            want &= factor[r % f]
        assert np.array_equal(power_table(l, etas), want)


def _is_twisted_power(q, l, etas):
    return any(q % eta == 0 and int_kth_root(q // eta, l) is not None for eta in etas)


def test_maybe_power_passes_every_twisted_power():
    # Soundness: on a grid of v = alpha*h + beta*w, every quotient v / delta
    # that is exactly eta * x^l, eta in etas, passes, as an int64 array and
    # as a Python int.
    rng = random.Random(8)
    vals = sorted({s * x**l for x in range(-6, 7) for l in (2, 3) for s in (1, -1, 2, 73)})
    h, w = np.array(vals, dtype=np.int64)[:, None], np.array(vals, dtype=np.int64)
    exact_cells = 0
    for _ in range(60):
        combos = []
        for _ in range(rng.randint(1, 3)):
            l = rng.randint(2, 5)
            cands = _eta_candidates((73,), l, 10**6)
            etas = tuple(rng.sample(cands, rng.randint(1, min(4, len(cands)))))
            delta = rng.choice((1, 2, 3, 4)) * rng.choice((1, -1))
            combos.append((rng.randint(-4, 4), rng.randint(-4, 4), delta, l, etas))
        for alpha, beta, delta, l, etas in combos:
            passed = maybe_power((alpha * h + beta * w) // delta, l, etas)
            for r, hv in enumerate(vals):
                for c, wv in enumerate(vals):
                    v = alpha * hv + beta * wv
                    if v % delta == 0 and _is_twisted_power(v // delta, l, etas):
                        assert passed[r, c] and maybe_power(v // delta, l, etas)
                        exact_cells += 1
    assert exact_cells > 0


# ClassRows against a plain reference: the derived terms
# h + e * (w - h) / |d| on int64 arrays, each checked with maybe_power.
_ETAS = [(1,), (2, 3), (-1,), (1, -1), (1, -1, 73, -73), (-2, 5)]


def _class_rows_want(inner, d, derived, h, half):
    keep = (inner - h) % d == 0
    n = (inner - h) // abs(d)  # exact on every cell keep holds
    for e, l, etas in derived:
        keep &= maybe_power(h + e * n, l, etas)
    if half:
        keep &= (inner - h) // d >= 0
    return inner[keep]


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


@settings(max_examples=300, deadline=None)
@given(_class_rows_case(), st.booleans())
def test_class_rows_survivors_match_reference(case, half):
    inner, d, derived, rows = case
    kernel = ClassRows(inner, d, derived)
    for h in rows:
        got = kernel.survivors(h, half=half)
        assert got.dtype == np.int64
        assert np.array_equal(got, _class_rows_want(inner, d, derived, h, half)), h


def test_class_rows_empty_classes_and_half_cut():
    inner = np.array([x * x for x in range(0, 40)], dtype=np.int64)
    # Squares are 0 or 1 mod 3, so the class 2 mod 3 is empty.
    kernel = ClassRows(inner, 3, [(1, 2, (1,)), (2, 2, (1,))])
    assert kernel.survivors(2).size == 0 and kernel.survivors(-1, half=True).size == 0
    assert ClassRows(inner[:0], -2, [(1, 3, (1,))]).survivors(5).size == 0
    for d in (3, -3):
        # e = sign(d) is the term h + n, n = (w - h) / d; the twist -1 keeps
        # the sign rule off, so only the half scan cuts the row.
        derived = [(1 if d > 0 else -1, 2, (1, -1))]
        kernel, cut = ClassRows(inner, d, derived), 0
        for h in (1, 49, 625):
            full, half = kernel.survivors(h), kernel.survivors(h, half=True)
            assert np.array_equal(full, _class_rows_want(inner, d, derived, h, False))
            assert np.array_equal(half, full[(full - h) // d >= 0]) and h in half
            cut += full.size - half.size
        assert cut > 0


def test_class_rows_sign_cut_edges():
    # Every integer as inner value puts derived terms on -3..1, the edges of
    # the sign rule's cut, in every class and both directions.  The positive
    # twists 720720 - t put -t in the power table, so only the cut rejects it.
    inner = np.arange(-60, 61, dtype=np.int64)
    below_zero = (720719, 720718, 720717)
    for d in (1, -1, 2, -2, 3, -3):
        for e in (-3, -2, -1, 1, 2, 3):
            for derived in ([(e, 2, (1,))], [(e, 2, below_zero)],
                            [(e, 4, (2, 3)), (-e, 2, (1,))]):
                kernel = ClassRows(inner, d, derived)
                for h in range(-20, 21):
                    for half in (False, True):
                        want = _class_rows_want(inner, d, derived, h, half)
                        assert np.array_equal(kernel.survivors(h, half=half), want), (d, derived, h)


def _square_of_cubic(g):
    return [sum(g[i] * g[k - i] for i in range(4) if 0 <= k - i < 4) for k in range(7)]


# Explicit heights: a row of r spans 2 height + 1 bits, never whole words,
# and 31 and 32 leave 1 and 63 padding bits; ROW_BLOCK + 1 and
# 2 ROW_BLOCK + 3 span two and three row blocks.  With F = G^2 every cell
# is kept, so a stray padding bit would show.
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
    moduli = (16, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    squares = {m: {x * x % m for x in range(m)} for m in moduli}
    blocks = list(SquareRows(coeffs6, height).cells())
    assert len(blocks) == -(-height // ROW_BLOCK)
    got = []
    for b, (s_cells, r_cells) in enumerate(blocks):
        assert s_cells.dtype == r_cells.dtype == np.int64
        assert all(b * ROW_BLOCK < s <= (b + 1) * ROW_BLOCK for s in s_cells.tolist())
        got += zip(s_cells.tolist(), r_cells.tolist())
    values = {(s, r): sum(c * r**i * s ** (6 - i) for i, c in enumerate(coeffs6))
              for s in range(1, height + 1) for r in range(-height, height + 1)}
    want = [cell for cell, v in values.items() if all(v % m in squares[m] for m in moduli)]
    assert got == want
    kept = set(want)
    assert all(cell in kept for cell, v in values.items() if v >= 0 and int_kth_root(v, 2) is not None)

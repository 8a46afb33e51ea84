"""Curve laboratory: counts vs oracles, pinned orders, searches, local tests."""

import json
import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from apforge import curves, sieve
from apforge.corpus import corpus_path, load_corpus
from apforge.curvelab import (CheckResult, DerivationMismatch, NoRepresentation,
                              derive_case, descent_sample_pairs,
                              ec_point_check, eq7_descent_step, involution_check,
                              mod4_progression_impossible, run_case)
from apforge.curves import (BadReduction, HyperCurve, SuperellipticForm,
                            count_points, good_reduction_data,
                            integral_model, jacobian_order, l_poly_coeffs,
                            torsion_gcd_bound)
from apforge.genus import (ALL_GENUS_LE1_POSSIBLE, GENUS_AT_LEAST_2, GENUS_GT1,
                           GENUS_ONE, GenusZero, chi_classify, rh_genus_bound)
from apforge.points import locally_solvable, locally_solvable_real, rational_points_search
from apforge.exactmath import BinaryForm, UniPoly, discriminant, primes_upto, uni_resultant
from apforge.numfield import field_by_name
from apforge.sieve import ROW_BLOCK

import box_rule


CORPUS = load_corpus()
CASES = {c.id: c for c in CORPUS.cases}

C1 = HyperCurve("g2_2223", UniPoly([28, 72, 120, 120, 75, 18, 1]))
C2 = HyperCurve("g2_2232", UniPoly([12, -24, 0, 40, 15, -6, 1]))
C3 = HyperCurve("g2_3232", UniPoly([3, 0, 0, 2, 0, 0, -1]))
C4 = HyperCurve("g2_3223_even", UniPoly([1, 0, 39, 0, Fraction(57, 4), 0, 1]))
QUINTIC = HyperCurve("g2_3223_disc", UniPoly([68, 216, 384, 360, 213, 54, 5]))
ALL_GENUS2 = [
    C1, C2, C3, C4, QUINTIC,
    HyperCurve("g2_3223_prod", UniPoly([2, 0, 0, 5, 0, 0, 2])),
    HyperCurve("g2_2233", UniPoly([2, 0, 0, -7, 0, 0, 6])),
    HyperCurve("g2_2332", UniPoly([-2, 0, 0, 5, 0, 0, -2])),
]
X5P1 = HyperCurve("t_x5p1", UniPoly([1, 0, 0, 0, 0, 1]))


def oracle_count(curve: HyperCurve, p: int, e: int) -> int:
    """Independent oracle: enumerate (x, y) pairs over F_q directly."""
    coeffs, _v = integral_model(curve.f)
    deg = curve.f.degree
    desc = list(reversed(coeffs[: deg + 1]))
    if e == 1:
        count = 0
        for x in range(p):
            v = 0
            for c in desc:
                v = (v * x + c) % p
            count += sum(1 for y in range(p) if (y * y - v) % p == 0)
        lc = desc[0] % p
        if deg % 2:
            return count + 1
        return count + 2 * (1 if any((y * y - lc) % p == 0 for y in range(p)) else 0)
    nu = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)

    def mul(a, b):
        return ((a[0] * b[0] + nu * a[1] * b[1]) % p,
                (a[0] * b[1] + a[1] * b[0]) % p)

    els = [(a, b) for a in range(p) for b in range(p)]
    count = 0
    for x in els:
        v = (0, 0)
        for c in desc:
            v = mul(v, x)
            v = ((v[0] + c) % p, v[1])
        count += sum(1 for y in els if mul(y, y) == v)
    lc = (desc[0] % p, 0)
    if deg % 2:
        return count + 1
    return count + 2 * (1 if any(mul(y, y) == lc for y in els) else 0)


def loop_count(coeffs, deg: int, p: int, e: int) -> int:
    """Reference: the element-by-element loops the numpy kernel replaced,
    squareness in F_{p^2} read from an explicit set of squares."""
    if e == 1:
        sq = [False] * p
        for y in range(p):
            sq[y * y % p] = True
        cs = [c % p for c in coeffs[: deg + 1]][::-1]
        count = 0
        for x in range(p):
            v = 0
            for c in cs:
                v = (v * x + c) % p
            count += 1 if v == 0 else 2 if sq[v] else 0
        return count + (1 if deg % 2 else 2 if sq[coeffs[deg] % p] else 0)
    nu = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    elements = [(a, b) for a in range(p) for b in range(p)]
    squares = {((a * a + nu * b * b) % p, 2 * a * b % p) for a, b in elements}
    cs = [c % p for c in coeffs[: deg + 1]][::-1]
    count = 0
    for xa, xb in elements:
        va, vb = 0, 0
        for c in cs:
            va, vb = (va * xa + vb * xb * nu + c) % p, (va * xb + vb * xa) % p
        count += 1 if (va, vb) == (0, 0) else 2 if (va, vb) in squares else 0
    lc_square = (coeffs[deg] % p, 0) in squares
    return count + (1 if deg % 2 else 2 if lc_square else 0)


def test_count_points_vs_loop_reference(monkeypatch):
    default_block = curves.BLOCK_CELLS
    checked = 0
    for curve in ALL_GENUS2 + [X5P1]:
        for p in primes_upto(61)[1:]:
            try:
                coeffs, deg = good_reduction_data(curve, p)
            except BadReduction:
                continue
            want = (loop_count(coeffs, deg, p, 1), loop_count(coeffs, deg, p, 2))
            # The default block holds all of F_{61^2}; 37 splits both fields.
            for block in (default_block, 37):
                monkeypatch.setattr(curves, "BLOCK_CELLS", block)
                got = (count_points(curve, p), count_points(curve, p * p))
                assert got == want, (curve.label, p, block)
            checked += 1
    assert checked >= 120


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((3, 5, 6)), st.lists(st.integers(-40, 40), min_size=7, max_size=7),
       st.sampled_from(primes_upto(60)[1:]))
def test_count_fq_vs_loop_reference_random(deg, coeffs, p):
    """Random integer cubics, quintics and sextics at odd primes of good
    reduction; a cubic has one point at infinity, as a quintic does."""
    coeffs = coeffs[: deg + 1] + [0] * (6 - deg)
    assume(coeffs[deg] % p != 0 and discriminant(tuple(coeffs)) % p != 0)
    for e in (1, 2):
        assert curves._count_fq(coeffs, deg, p, e) == loop_count(coeffs, deg, p, e), e


@pytest.mark.parametrize("curve", [QUINTIC, C1], ids=lambda c: c.label)
@pytest.mark.parametrize("p", [211, 307])
def test_count_points_vs_loop_reference_larger_primes(curve, p, monkeypatch):
    coeffs, deg = good_reduction_data(curve, p)
    want = (loop_count(coeffs, deg, p, 1), loop_count(coeffs, deg, p, 2))
    for block in (curves.BLOCK_CELLS, 37):  # 37 splits both fields
        monkeypatch.setattr(curves, "BLOCK_CELLS", block)
        assert (count_points(curve, p), count_points(curve, p * p)) == want, block


def test_count_points_quintic_at_3(monkeypatch):
    """The smallest odd prime, where b = 1 gives each a its only pair a +- s;
    a block of 2 splits both fields."""
    coeffs, deg = good_reduction_data(X5P1, 3)
    assert deg == 5
    for block in (curves.BLOCK_CELLS, 2):
        monkeypatch.setattr(curves, "BLOCK_CELLS", block)
        for e in (1, 2):
            assert count_points(X5P1, 3**e) == loop_count(coeffs, deg, 3, e) \
                == oracle_count(X5P1, 3, e), (block, e)


@pytest.fixture
def cold_count_tables():
    """Empty the per-prime count tables before and after a test that patches
    what they are built from."""
    for table in (curves._root_counts, curves._fp2_powers):
        table.cache_clear()
    yield
    for table in (curves._root_counts, curves._fp2_powers):
        table.cache_clear()


def test_int32_bound_is_the_largest_exact_prime():
    # The F_{p^2} products sum at most 13 (p - 1)^2.
    bound = curves.INT32_MAX_PRIME
    assert 13 * (bound - 1) ** 2 < 2**31 <= 13 * bound**2
    assert bound >= 200  # every corpus and benchmark prime counts in int32


def test_count_points_on_both_sides_of_the_int32_bound(monkeypatch, cold_count_tables):
    """With the int32 bound at 31, 29 and 31 count in int32 and 37 and 41 in
    int64; every count still equals the loop reference."""
    monkeypatch.setattr(curves, "INT32_MAX_PRIME", 31)
    for p in (29, 31, 37, 41):
        dtype = np.int32 if p <= 31 else np.int64
        tables = curves._fp2_powers(p)
        assert [t.dtype for t in tables] == [dtype, dtype], p
        assert not any(t.flags.writeable for t in tables), p
        for curve in (C1, QUINTIC):
            coeffs, deg = good_reduction_data(curve, p)
            want = (loop_count(coeffs, deg, p, 1), loop_count(coeffs, deg, p, 2))
            assert (count_points(curve, p), count_points(curve, p * p)) == want, (curve.label, p)


def test_count_points_refused_past_the_work_ceiling(monkeypatch, cold_count_tables):
    """A count takes p cells over F_p and p (p + 1) / 2 over F_{p^2}; at
    sieve.WORK_CEILING cells it runs, one cell more is refused before any
    table is built."""
    p = 13
    coeffs, deg = good_reduction_data(C1, p)
    for e, cells in ((1, p), (2, p * (p + 1) // 2)):
        monkeypatch.setattr(sieve, "WORK_CEILING", cells)
        assert count_points(C1, p**e) == loop_count(coeffs, deg, p, e)
        monkeypatch.setattr(sieve, "WORK_CEILING", cells - 1)
        for table in (curves._root_counts, curves._fp2_powers):
            table.cache_clear()
        with pytest.raises(sieve.ResourceLimitError, match=r"^point count over F_13(\^2)? of "
                                                           f"{cells} cells exceeds ceiling$"):
            count_points(C1, p**e)
        assert curves._root_counts.cache_info().currsize == 0
        assert curves._fp2_powers.cache_info().currsize == 0


def test_jacobian_orders_count_at_p_then_p_squared(monkeypatch):
    """The traced work counts of count_points pin this call shape: one count
    over F_p, then one over F_{p^2}, per prime."""
    calls = []

    def spy(curve, q):
        calls.append((curve.label, q))
        return count_points(curve, q)

    monkeypatch.setattr(curves, "count_points", spy)
    jacobian_order(C1, 7)
    assert calls == [("g2_2223", 7), ("g2_2223", 49)]
    calls.clear()
    torsion_gcd_bound(C3, [5, 7, 11, 13])
    assert calls == [("g2_3232", q) for p in (5, 7, 11, 13) for q in (p, p * p)]


def test_jacobian_order_past_the_ceiling_counts_nothing(monkeypatch, cold_count_tables):
    """A Jacobian order whose F_{p^2} count is past sieve.WORK_CEILING is
    refused, with count_points' message, before either count runs: no
    count_points call and no _root_counts table.  At the ceiling both counts
    run, F_p first."""
    want = jacobian_order(C1, 13)
    curves._root_counts.cache_clear()
    calls = []

    def spy(curve, q):
        calls.append(q)
        return count_points(curve, q)

    monkeypatch.setattr(curves, "count_points", spy)
    for p in (1_000_003, 13):
        cells = p * (p + 1) // 2
        monkeypatch.setattr(sieve, "WORK_CEILING", min(sieve.WORK_CEILING, cells - 1))
        with pytest.raises(sieve.ResourceLimitError,
                           match=rf"^point count over F_{p}\^2 of {cells} cells exceeds ceiling$"):
            jacobian_order(C1, p)
        assert calls == [] and curves._root_counts.cache_info().currsize == 0
    monkeypatch.setattr(sieve, "WORK_CEILING", 13 * 14 // 2)
    assert jacobian_order(C1, 13) == want and calls == [13, 169]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((5, 6)), st.lists(st.integers(-10**6, 10**6), min_size=7, max_size=7),
       st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
def test_norm_form_identity(deg, coeffs, x, s):
    """f(x + s) f(x - s) = sum h_ij x^i (s^2)^j, exactly, for integer f, x, s."""
    coeffs = coeffs[: deg + 1]
    assume(coeffs[deg] != 0)
    h = curves._norm_form(tuple(coeffs))
    assert h.shape == (13, 7)
    f = UniPoly(coeffs)
    want = f.eval(x + s) * f.eval(x - s)
    assert sum(int(h[i, j]) * x**i * s ** (2 * j) for i in range(13) for j in range(7)) == want


def test_fp2_squares_are_norm_squares():
    """z != 0 in F_p[t]/(t^2 - nu) is a square iff a^2 - nu b^2 is one mod p."""
    for p in primes_upto(31)[1:]:
        nu = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        elements = [(a, b) for a in range(p) for b in range(p)]
        norm = {(a, b): (a * a - nu * b * b) % p for a, b in elements}
        assert [z for z in elements if norm[z] == 0] == [(0, 0)]
        squares = {((a * a + nu * b * b) % p, 2 * a * b % p) for a, b in elements}
        residues = {y * y % p for y in range(1, p)}
        assert squares - {(0, 0)} == {z for z in elements if norm[z] in residues}


def test_count_points_vs_oracle():
    assert count_points(X5P1, 3) == oracle_count(X5P1, 3, 1) == 4
    for curve, p in [(C1, 5), (C1, 7), (C2, 11), (C3, 5), (C4, 7)]:
        assert count_points(curve, p) == oracle_count(curve, p, 1)
        assert count_points(curve, p * p) == oracle_count(curve, p, 2)


def test_count_points_genus_one():
    # Corpus case 2223a's curve y^2 = -4X^3 + 60X^2 + 15X + 2, genus 1.
    ell = CASES["2223a"].curve
    counts = {q: count_points(ell, q) for q in (5, 7, 11, 13, 25, 49)}
    assert counts == {5: 6, 7: 7, 11: 6, 13: 13, 25: 36, 49: 63}
    for p in (5, 7, 11, 13):
        assert counts[p] == oracle_count(ell, p, 1)
    for p in (5, 7):
        assert counts[p * p] == oracle_count(ell, p, 2)
        a = p + 1 - counts[p]  # the trace of Frobenius: N(p^2) = p^2 + 1 - (a^2 - 2p)
        assert counts[p * p] == p * p + 1 - (a * a - 2 * p)


def test_jacobian_orders_pinned():
    assert jacobian_order(C1, 5) == 21
    assert jacobian_order(C1, 7) == 52
    assert torsion_gcd_bound(C1, [5, 7]) == math.gcd(21, 52) == 1
    assert jacobian_order(C2, 11) == 108
    assert torsion_gcd_bound(C3, [5, 7, 11, 13]) == 4
    assert torsion_gcd_bound(C3, [5, 7, 11, 13]) % 2 == 0
    assert torsion_gcd_bound(C1, [5]) == jacobian_order(C1, 5)


def test_point_counts_are_python_ints():
    curve = CASES["2223b"].curve
    assert type(count_points(curve, 5)) is int and type(count_points(curve, 25)) is int
    assert all(type(c) is int for c in l_poly_coeffs(curve, 5))
    assert type(jacobian_order(curve, 5)) is int
    assert type(torsion_gcd_bound(curve, [5, 7])) is int


def test_weil_bounds_all_corpus_curves():
    checked = 0
    for curve in ALL_GENUS2:
        for p in [5, 7, 11, 13, 17, 19, 23, 29, 31]:
            try:
                order = jacobian_order(curve, p)
            except BadReduction:
                continue
            c1, c2 = l_poly_coeffs(curve, p)
            assert 1 <= order <= (math.isqrt(p) + 1) ** 4 * 2
            assert order <= (p**0.5 + 1) ** 4
            assert abs(c1) <= 4 * math.isqrt(16 * p) / 4 + 1
            n1 = count_points(curve, p)
            n2 = count_points(curve, p * p)
            assert n2 >= n1  # field inclusion
            assert abs(n1 - (p + 1)) <= 4 * p**0.5 + 1e-9
            checked += 1
    assert checked >= 60


def in_hasse_weil(n: int, p: int) -> bool:
    """(sqrt(p) - 1)^4 <= n <= (sqrt(p) + 1)^4 in integers: the ends are
    A -+ B sqrt(p) with A = p^2 + 6p + 1, B = 4p + 4."""
    a, b = p * p + 6 * p + 1, 4 * p + 4
    return all(d <= 0 or d * d <= b * b * p for d in (n - a, a - n))


def test_jacobian_orders_in_hasse_weil_interval():
    # (sqrt(5) -+ 1)^4 = 2.33..., 109.66...
    assert [n for n in (2, 3, 109, 110) if in_hasse_weil(n, 5)] == [3, 109]
    checked = 0
    for curve in ALL_GENUS2:
        for p in primes_upto(200)[1:]:
            try:
                order = jacobian_order(curve, p)
            except BadReduction:
                continue
            assert in_hasse_weil(order, p), (curve.label, p, order)
            checked += 1
    assert checked >= 300


def test_bad_reduction_raises():
    with pytest.raises(BadReduction):
        count_points(C1, 2)
    with pytest.raises(BadReduction):
        count_points(C1, 3)
    with pytest.raises(ValueError):
        count_points(C1, 1000)  # not p or p^2


def test_reduction_refuses_a_curve_over_a_number_field():
    # Every entry that reads the integral model refuses it by its label, as
    # the point search does.
    ec = next(f["rhs"] for f in CASES["3223d2"].facts if f["kind"] == "ec_two_torsion")
    for entry in (count_points, good_reduction_data, locally_solvable):
        with pytest.raises(ValueError, match=r"^ec_two_torsion is over Q\[x\]/\(.*\): "
                                             "reduction mod p runs over Q only$"):
            entry(ec, 5)


def test_rational_points_pinned_inventories():
    assert rational_points_search(C1, 1000) == ([], 2)
    assert rational_points_search(C2, 1000) == ([], 2)
    pts, inf = rational_points_search(C3, 1000)
    assert pts == [(Fraction(-1), Fraction(0)), (Fraction(1), Fraction(-2)),
                   (Fraction(1), Fraction(2))]
    assert inf == 0
    pts, inf = rational_points_search(C4, 1000)
    assert pts == [(Fraction(0), Fraction(-1)), (Fraction(0), Fraction(1))]
    assert inf == 2
    ell = HyperCurve("ell_2223", UniPoly([2, 15, 60, -4]))
    assert rational_points_search(ell, 1000) == ([], 1)


def test_point_sieve_matches_unfiltered_scan(monkeypatch):
    curves = [c.curve for c in CORPUS.cases]
    curves = [c for c in curves if isinstance(c, HyperCurve)]
    assert any(c.f.degree == 3 for c in curves)
    # Blocks at the ROW_BLOCK floor of the block rule, so the second height
    # spans two blocks (at the word cap the box would need height 725).
    monkeypatch.setattr(sieve, "BLOCK_WORDS", 0)
    for height in (40, ROW_BLOCK + 9):
        for curve in curves:
            coeffs, _v = integral_model(curve.f)
            want = []
            for s in range(1, height + 1):
                for r in range(-height, height + 1):
                    val = sum(coeffs[k] * r**k * s ** (6 - k) for k in range(7))
                    if math.gcd(r, s) == 1 and val >= 0 and math.isqrt(val) ** 2 == val:
                        want.append((s, r, math.isqrt(val)))
            assert list(sieve.SquareRows(coeffs, height).hits(True)) == want, (curve.label, height)


def _cubic_squared(c, g):
    return [c * sum(g[i] * g[k - i] for i in range(4) if 0 <= k - i < 4) for k in range(7)]


@st.composite
def _quintic_or_sextic(draw):
    """Ascending integer coefficients of f, degree 5 or 6.  Some are c G^2,
    G a cubic, so a square c makes every cell (r, s) a hit at every scale
    g (r, s); some have f(0) a square, so F(0, s) = f(0) s^6 is a square down
    the whole r = 0 column."""
    shape = draw(st.sampled_from(("plain", "c_g_squared", "square_at_zero")))
    if shape == "c_g_squared":
        g = draw(st.lists(st.integers(-6, 6), min_size=4, max_size=4).filter(lambda g: g[3]))
        return _cubic_squared(draw(st.sampled_from((1, 4, 9, -1, 2, 3))), g)
    coeffs = draw(st.lists(st.integers(-60, 60), min_size=6, max_size=7).filter(lambda c: c[-1]))
    if shape == "square_at_zero":
        coeffs[0] = draw(st.integers(0, 9)) ** 2
    return coeffs


def _points_by_fractions(f: UniPoly, height: int):
    """Reference: every (x, y) on y^2 = f(x) with x = r/s, gcd(r, s) = 1,
    s in [1, height] and |r| <= height, from f(x) as a Fraction."""
    points = set()
    for s in range(1, height + 1):
        for r in range(-height, height + 1):
            if math.gcd(r, s) != 1:
                continue
            x = Fraction(r, s)
            v = f.eval(x)
            if v >= 0:
                y = Fraction(math.isqrt(v.numerator), math.isqrt(v.denominator))
                if y * y == v:
                    points |= {(x, y), (x, -y)}
    return sorted(points)


@settings(max_examples=60, deadline=None)
@given(_quintic_or_sextic(), st.integers(1, 40))
@example(_cubic_squared(2, [0, -3, 1, 2]), ROW_BLOCK + 1)
def test_point_search_matches_coprime_fraction_scan(coeffs, height):
    # The search reads only the model's f, so f = c G^2, which no HyperCurve
    # admits, goes in as a bare model.  With blocks at the ROW_BLOCK floor of
    # the block rule, the explicit example spans two blocks: 2 G^2 with
    # G = x (x - 1) (2x + 3) is zero down the r = 0 column and at every
    # multiple of (1, 1) and (-3, 2), and nowhere else a square.
    f = UniPoly(coeffs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sieve, "BLOCK_WORDS", 0)
        pts, infinity = rational_points_search(SimpleNamespace(f=f, field=None), height)
    assert pts == _points_by_fractions(f, height)
    lead = int(f.lead())
    assert infinity == (1 if f.degree % 2 else 2 if lead > 0 and math.isqrt(lead) ** 2 == lead
                        else 0)


def brute_model_scale(f: UniPoly) -> int:
    """Reference: the least v with v^2 f integral, counting v = 1, 2, ..."""
    v = 1
    while any((c * v * v).denominator != 1 for c in f.coeffs):
        v += 1
    return v


def test_integral_model_scale_vs_brute_force():
    polys = [UniPoly([Fraction(1, d), 0, 0, 0, 0, 1]) for d in range(1, 501)]
    polys += [UniPoly([Fraction(1, 12), Fraction(5, 18), 0, Fraction(7, 8), 1]),
              UniPoly([Fraction(3, 4), 0, Fraction(1, 9), 0, 0, 0, Fraction(1, 50)]),
              UniPoly([Fraction(2, 49), 1, Fraction(1, 343), Fraction(5, 6), 0, 1])]
    for f in polys:
        coeffs, v = integral_model(f)
        assert v == brute_model_scale(f), f
        padded = [c * v * v for c in f.coeffs] + [0] * (6 - f.degree)
        assert list(coeffs) == padded, f
    t0 = time.perf_counter()
    coeffs, v = integral_model(UniPoly([Fraction(1, 1000003), 0, 0, 0, 0, 1]))
    assert time.perf_counter() - t0 < 0.5
    assert v == 1000003 and coeffs == (1000003, 0, 0, 0, 0, 1000003**2, 0)


def test_reduction_reads_one_integral_model_per_curve(monkeypatch):
    # Every prime's reduction check reads the curve's model, built on the
    # first: the integral model of f and the discriminant of its integer
    # coefficients.
    built = []
    monkeypatch.setattr(curves, "integral_model", lambda f: built.append(f) or integral_model(f))
    curve = HyperCurve("fresh", UniPoly([Fraction(1, 12), 0, 3, 0, 0, Fraction(5, 4)]))
    for p in (7, 11, 13, 17):
        coeffs, deg = good_reduction_data(curve, p)
        assert count_points(curve, p) > 0
    with pytest.raises(BadReduction):
        good_reduction_data(curve, 5)  # 5 divides the discriminant
    assert built == [curve.f]
    assert curve.model == (coeffs, 6, discriminant(coeffs).numerator) and deg == 5


def test_rational_points_monotone_in_height():
    small = set(rational_points_search(C3, 10)[0])
    mid = set(rational_points_search(C3, 100)[0])
    big = set(rational_points_search(C3, 500)[0])
    assert small <= mid <= big
    for x, y in big:
        assert y * y == C3.f.eval(x)


def test_local_solvability_quintic():
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97]:
        assert locally_solvable(QUINTIC, p), p
    assert locally_solvable_real(QUINTIC)


def test_local_solvability_negative_definite():
    neg = HyperCurve("t_negdef", UniPoly([-1, 0, 0, 0, 0, 0, -1]))
    assert not locally_solvable_real(neg)
    # -x^6 - 1 does have 3-adic points (-2 is a square in Q_3).
    assert locally_solvable(neg, 3)


def test_local_solvability_odd_valuation_obstruction():
    # y^2 = 3(x^6 + 1): the value always has 3-adic valuation exactly one.
    crv = HyperCurve("t_val3", UniPoly([3, 0, 0, 0, 0, 0, 3]))
    assert not locally_solvable(crv, 3)
    assert locally_solvable(crv, 5)
    assert locally_solvable_real(crv)


def test_local_solvability_square_lead_shortcut():
    assert locally_solvable(C1, 2)
    assert locally_solvable(C1, 97)


def test_genus_classifiers():
    assert rh_genus_bound(4, (2, 2, 2, 2)) == ALL_GENUS_LE1_POSSIBLE
    assert rh_genus_bound(4, (2, 2, 2, 3)) == GENUS_AT_LEAST_2
    assert rh_genus_bound(5, (2, 2, 2, 2, 2)) == GENUS_AT_LEAST_2
    got = chi_classify(2, 2, 2)
    assert isinstance(got, GenusZero) and got.cover_degree == 4
    assert chi_classify(2, 3, 6) == GENUS_ONE
    assert chi_classify(2, 3, 7) == GENUS_GT1


def test_genus_k3_agreement():
    for r in range(2, 7):
        for s in range(2, 7):
            for t in range(2, 7):
                rh = rh_genus_bound(3, (r, s, t))
                chi = chi_classify(r, s, t)
                assert (rh == GENUS_AT_LEAST_2) == (chi == GENUS_GT1)


def test_genus_k4_scan():
    for vec in [(a, b, c, d) for a in range(2, 6) for b in range(2, 6)
                for c in range(2, 6) for d in range(2, 6)]:
        want = ALL_GENUS_LE1_POSSIBLE if vec == (2, 2, 2, 2) else GENUS_AT_LEAST_2
        assert rh_genus_bound(4, vec) == want


def test_derive_all_cases():
    for case in CORPUS.cases:
        target = derive_case(case)
        assert target is case.curve


def test_derivation_mismatch_detected():
    case = CASES["2232"]
    broken = case._replace(derivation={
        **case.derivation,
        "expected_sextic": [Fraction(c) for c in (1, -6, 15, 40, 1, -24, 12)]})
    with pytest.raises(DerivationMismatch):
        derive_case(broken)


def test_factorization_checks():
    for cid in ["2233", "2332", "3223d2", "3323"]:
        records = [r for r in run_case(CASES[cid]) if ":factorization:" in r.id]
        assert records and all(r.status == "pass" for r in records), (cid, records)


@pytest.mark.parametrize("scale, status", [(["12", "6", "3"], "pass"),
                                           (["24", "12", "6"], "fail")])
def test_form_factorization_scale_claim(tmp_path, scale, status):
    """2332's factorization as binary forms: the scale claim reads the
    resultant of the dehomogenized factors, so it can pass or fail."""
    with open(corpus_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    case = next(c for c in raw["cases"] if c["id"] == "2332")
    fact = next(f for f in case["facts"] if f["kind"] == "factorization")
    fact.update(shape="form", resultant={"equals_one_with_scale": scale})
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    case = next(c for c in load_corpus(str(path)).cases if c.id == "2332")
    [rec] = [r for r in run_case(case) if ":factorization:" in r.id]
    assert rec.status == status, rec
    if status == "fail":
        assert rec.actual.startswith("scale^2 != resultant (") and "None" not in rec.actual


def test_form_value_reads_the_z_relation(tmp_path):
    """3323's values -128 = 2*(-4)^3 and 3456 = 2*12^3 fit F = z_mult * z^3
    with z_mult 2; with z_mult 3 neither is 3 times a cube, so both fail."""
    with open(corpus_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    next(c for c in raw["cases"] if c["id"] == "3323")["curve"]["z_mult"] = 3
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    case = next(c for c in load_corpus(str(path)).cases if c.id == "3323")
    records = [r for r in run_case(case) if ":form_value:" in r.id]
    assert [r.status for r in records] == ["fail", "fail"], records
    assert [r.actual for r in records] == ["-128", "3456"]
    assert [r.status for r in run_case(CASES["3323"]) if ":form_value:" in r.id] == ["pass"] * 2


def test_involution_of_sextic_form():
    form = BinaryForm([3, 18, 9, -148, -27, 162, -81])
    assert involution_check(form, 0, -3, 1, 0, -27)
    assert not involution_check(form, 0, -3, 1, 0, 27)


def test_ec_point_check_over_cbrt2():
    K = field_by_name("cbrt2")
    a = K.alpha
    rhs = UniPoly([504 * a**2 + 630 * a + 798, -72 * a**2 - 90 * a - 108,
                   K.zero, K.one])
    model = HyperCurve("t_ec", rhs, K)
    x = -a**2 - 1
    y = 12 * a**2 + 15 * a + 19
    assert ec_point_check(model, x, y)
    assert not ec_point_check(model, x, y + 1)
    assert ec_point_check(model, x)  # squareness route


def test_ec_point_check_at_a_root_of_f_over_a_field():
    # f(x) = 0 is a square, through nf_is_square's zero test.
    ec = next(f["rhs"] for f in CASES["3223d2"].facts if f["kind"] == "ec_two_torsion")
    assert not ec.f.eval(ec.field.zero)
    assert ec_point_check(ec, ec.field.zero)


def test_eq7_descent_step():
    assert eq7_descent_step(1, 1) == (1, 1, 1)
    with pytest.raises(NoRepresentation):
        eq7_descent_step(2, 0)
    with pytest.raises(NoRepresentation):
        eq7_descent_step(2, 1)  # 9 odd
    pairs = descent_sample_pairs(40)
    assert (1, 1) in pairs
    for x1, x3 in pairs:
        s, u, v = eq7_descent_step(x1, x3)
        assert s == 1
        assert x1 + x3 == 2 * s * u * u
        assert x1 * x1 - x1 * x3 + x3 * x3 == s * v * v


def test_eq7_s3_pairs_cannot_extend():
    # (23, 1) satisfies the bare hypothesis with s = 3, and no progression
    # of the sample contains it.
    assert eq7_descent_step(23, 1) == (3, 2, 13)
    assert (23, 1) not in descent_sample_pairs(40)


@pytest.mark.parametrize("scan", [*range(61), 200])
def test_descent_scan_matches_the_double_loop(scan):
    assert descent_sample_pairs(scan) == box_rule.descent_pairs(scan)


def test_mod4_progression_impossible():
    assert mod4_progression_impossible()


def test_run_case_all_green():
    for cid in ["2223a", "2223b", "2232", "3232", "3223", "2233", "2332", "3323"]:
        results = run_case(CASES[cid])
        bad = [r for r in results if r.status == "fail"]
        assert not bad, bad


def test_run_case_3223d2_green():
    results = run_case(CASES["3223d2"])
    assert not [r for r in results if r.status == "fail"]


# Every pass can fail: each leaf of every checked corpus fact, changed alone,
# must make the fact's record read fail or the corpus be refused at load.
# Budgets (height, primes_upto, scan) and the kind and field names are not
# statements and stay as they are; mod4_progression and descent_s1 carry no
# data.  A number or a decimal string goes up by one, a boolean flips and a
# factorization's shape swaps.  Each mutated corpus holds the families and
# the fact's case with that fact alone, so only its check and the derivation
# run.  Each case's curve data (CURVE_DATA: the coefficients rhs or form, and
# the form's z_mult and z_power) is changed the same way, with every fact of
# the case kept; some record of the case must then read fail.  The
# mutations below still read pass because they leave a true statement (no
# curve leaf is among them):
STAYS_TRUE = (
    # (0, 0) is on y^2 = a x^3 + b x^2 + c x for every a, b, c: only the
    # constant coefficient rhs[0] decides the ec_point fact at the origin.
    {("3223d2", 3, ("rhs", i, j)) for i in (1, 2, 3) for j in range(3)}
    # The product of coefficient lists is one convolution whether they are
    # read as polynomials or as forms of full degree, and reversing two
    # factors of degrees m and n multiplies their resultant by (-1)^(m n):
    # still an S-unit, and unchanged for 2332's even m n = 8.
    | {(cid, i, ("shape",)) for cid, i in (("3223d2", 0), ("2233", 0), ("2332", 0), ("3323", 3))}
)
_NOT_STATEMENTS = {"height", "primes_upto", "scan", "kind", "field"}
CURVE_DATA = ("rhs", "form", "z_mult", "z_power")


def _leaf_paths(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in _NOT_STATEMENTS:
                yield from _leaf_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaf_paths(item, path + (i,))
    else:
        yield path


def _mutated(leaf):
    if isinstance(leaf, bool):
        return not leaf
    if isinstance(leaf, int):
        return leaf + 1
    if leaf in ("unipoly", "form"):
        return "form" if leaf == "unipoly" else "unipoly"
    return str(Fraction(leaf) + 1)


def _mutant_records(raw, case, path):
    """{record id: status} of the corpus holding the families and this case
    alone, or None when the loader refuses it."""
    path.write_text(json.dumps(dict(raw, cases=[case])), encoding="utf-8")
    try:
        (loaded,) = load_corpus(str(path)).cases
    except (ValueError, KeyError):
        return None
    return {r.id: r.status for r in run_case(loaded)}


def _with_leaf_mutated(record, leaf_path):
    mutant = json.loads(json.dumps(record))
    node = mutant
    for key in leaf_path[:-1]:
        node = node[key]
    node[leaf_path[-1]] = _mutated(node[leaf_path[-1]])
    return mutant


def test_every_checked_fact_leaf_can_fail(tmp_path):
    with open(corpus_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    outcomes, path = {}, tmp_path / "corpus.json"
    for case in raw["cases"]:
        for idx, fact in enumerate(case["facts"]):
            if fact["kind"] == "unchecked_claim":
                continue
            for leaf_path in _leaf_paths(fact):
                mutant = _with_leaf_mutated(fact, leaf_path)
                records = _mutant_records(raw, dict(case, facts=[mutant]), path)
                outcomes[case["id"], idx, leaf_path] = (
                    "refused" if records is None else records[f"{case['id']}:{fact['kind']}:0"])
        data = {key: value for key, value in case["curve"].items() if key in CURVE_DATA}
        for leaf_path in _leaf_paths(data):
            curve = _with_leaf_mutated(case["curve"], leaf_path)
            records = _mutant_records(raw, dict(case, curve=curve), path)
            outcomes[case["id"], "curve", leaf_path] = (
                "refused" if records is None else
                "fail" if "fail" in records.values() else
                "pass" if set(records.values()) <= {"pass", "unchecked-claim"} else "undecided")
    assert len(outcomes) >= 300
    assert len([key for key in outcomes if key[1] == "curve"]) >= 60
    assert set(outcomes.values()) <= {"fail", "refused", "pass"}
    assert {key for key, status in outcomes.items() if status == "pass"} == STAYS_TRUE


def test_build_curve_kinds():
    assert isinstance(CASES["2223a"].curve, HyperCurve) and CASES["2223a"].curve.f.degree == 3
    assert isinstance(CASES["2223b"].curve, HyperCurve)
    form_case = CASES["3323"].curve
    assert isinstance(form_case, SuperellipticForm)
    assert form_case.z_mult == 2 and form_case.z_power == 3


def test_cubic_discriminant_is_scaled_resultant():
    """The closed form for a cubic is Res(f, f'), over Q and over the corpus fields."""
    models = [f["rhs"] for c in CORPUS.cases for f in c.facts
              if f["kind"] in ("ec_point", "ec_two_torsion", "ec_square_x")]
    models += [c.curve for c in CORPUS.cases
               if isinstance(c.curve, HyperCurve) and c.curve.f.degree == 3]
    assert len(models) == 5
    for model in models:
        f = model.f
        assert discriminant(f.coeffs) == uni_resultant(f, f.derivative())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(-100, 100, max_denominator=50), min_size=4, max_size=4))
def test_cubic_discriminant_random_rational(coeffs):
    assume(coeffs[3] != 0)
    rhs = UniPoly(coeffs)
    assert discriminant(tuple(coeffs)) == uni_resultant(rhs, rhs.derivative())


def test_squarefree_enforced():
    with pytest.raises(ValueError):
        HyperCurve("t_bad", UniPoly([0, 0, 1, 0, 0, 0, 1]))  # x^2(x^4+1)

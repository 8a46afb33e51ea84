"""Curve laboratory: counts vs oracles, pinned orders, searches, local tests."""

import dataclasses
import math
import time
from fractions import Fraction

import pytest

from apforge import curves
from apforge.corpus import load_corpus
from apforge.curvelab import (CheckResult, DerivationMismatch, NoRepresentation,
                              build_curve, derive_case, descent_sample_pairs,
                              ec_point_check, eq7_descent_step,
                              eq7_s3_blocks_progression, involution_check,
                              mod4_progression_impossible, run_case)
from apforge.curves import (BadReduction, EllipticModel, HyperCurve,
                            SuperellipticForm, count_points, jacobian_order,
                            l_poly_coeffs, torsion_gcd_bound)
from apforge.curves import _good_reduction_data, _integral_model_any
from apforge.genus import (ALL_GENUS_LE1_POSSIBLE, GENUS_AT_LEAST_2, GENUS_GT1,
                           GENUS_ONE, GenusZero, chi_classify, rh_genus_bound)
from apforge.points import (_homogeneous_square_hits, locally_solvable,
                            locally_solvable_real, rational_points_search)
from apforge.exactmath import BinaryForm, UniPoly, primes_upto
from apforge.numfield import cbrt2_field


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
    coeffs, _v = curve.integral_model()
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
        if deg == 5:
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
    if deg == 5:
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
        return count + (1 if deg == 5 else 2 if sq[coeffs[deg] % p] else 0)
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
    return count + (1 if deg == 5 else 2 if lc_square else 0)


def test_count_points_vs_loop_reference(monkeypatch):
    default_block = curves._BLOCK
    checked = 0
    for curve in ALL_GENUS2 + [X5P1]:
        for p in primes_upto(61)[1:]:
            try:
                coeffs, deg = _good_reduction_data(curve, p)
            except BadReduction:
                continue
            want = (loop_count(coeffs, deg, p, 1), loop_count(coeffs, deg, p, 2))
            # The default block holds all of F_{61^2}; 37 splits both fields.
            for block in (default_block, 37):
                monkeypatch.setattr(curves, "_BLOCK", block)
                got = (count_points(curve, p), count_points(curve, p * p))
                assert got == want, (curve.label, p, block)
            checked += 1
    assert checked >= 120


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


def test_jacobian_orders_pinned():
    assert jacobian_order(C1, 5) == 21
    assert jacobian_order(C1, 7) == 52
    assert torsion_gcd_bound(C1, [5, 7]) == math.gcd(21, 52) == 1
    assert jacobian_order(C2, 11) == 108
    assert torsion_gcd_bound(C3, [5, 7, 11, 13]) == 4
    assert torsion_gcd_bound(C3, [5, 7, 11, 13]) % 2 == 0
    assert torsion_gcd_bound(C1, [5]) == jacobian_order(C1, 5)


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
    ell = EllipticModel("ell_2223", UniPoly([2, 15, 60, -4]))
    assert rational_points_search(ell, 1000) == ([], 1)


def test_point_sieve_matches_unfiltered_scan():
    height = 40
    curves = [build_curve(c) for c in CORPUS.cases]
    curves = [c for c in curves if isinstance(c, (HyperCurve, EllipticModel))]
    assert any(isinstance(c, EllipticModel) for c in curves)
    for curve in curves:
        f = curve.rhs if isinstance(curve, EllipticModel) else curve.f
        coeffs, _v = _integral_model_any(f)
        want = []
        for s in range(1, height + 1):
            for r in range(-height, height + 1):
                val = sum(coeffs[k] * r**k * s ** (6 - k) for k in range(7))
                if val >= 0 and math.isqrt(val) ** 2 == val:
                    want.append((r, s, val, math.isqrt(val)))
        assert _homogeneous_square_hits(coeffs, height) == want, curve.label


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
        coeffs, v = _integral_model_any(f)
        assert v == brute_model_scale(f), f
        padded = [c * v * v for c in f.coeffs] + [0] * (6 - f.degree)
        assert list(coeffs) == padded, f
    t0 = time.perf_counter()
    coeffs, v = _integral_model_any(UniPoly([Fraction(1, 1000003), 0, 0, 0, 0, 1]))
    assert time.perf_counter() - t0 < 0.5
    assert v == 1000003 and coeffs == (1000003, 0, 0, 0, 0, 1000003**2, 0)


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
    assert isinstance(got, GenusZero) and got.cover_degree == Fraction(4, 3)
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
        assert target.label == case.curve["label"]


def test_derivation_mismatch_detected():
    case = CASES["2232"]
    broken = dataclasses.replace(
        case, derivation={**case.derivation,
                          "expected_sextic": ["1", "-6", "15", "40", "1", "-24", "12"]})
    with pytest.raises(DerivationMismatch):
        derive_case(broken)


def test_factorization_checks():
    for cid in ["2233", "2332", "3223d2", "3323"]:
        records = [r for r in run_case(CASES[cid]) if ":factorization:" in r.id]
        assert records and all(r.status == "pass" for r in records), (cid, records)


def test_involution_of_sextic_form():
    form = BinaryForm([3, 18, 9, -148, -27, 162, -81])
    assert involution_check(form, 0, -3, 1, 0, -27)
    assert not involution_check(form, 0, -3, 1, 0, 27)


def test_ec_point_check_over_cbrt2():
    K = cbrt2_field()
    a = K.alpha
    rhs = UniPoly([504 * a**2 + 630 * a + 798, -72 * a**2 - 90 * a - 108,
                   K.zero, K.one])
    model = EllipticModel("t_ec", rhs, K)
    x = -a**2 - 1
    y = 12 * a**2 + 15 * a + 19
    assert ec_point_check(model, x, y)
    assert not ec_point_check(model, x, y + 1)
    assert ec_point_check(model, x)  # squareness route


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
    # (23, 1) satisfies the bare hypothesis with s = 3; the mod-9 criterion
    # shows no progression contains it.
    s, u, v = eq7_descent_step(23, 1)
    assert (s, u, v) == (3, 2, 13)
    assert eq7_s3_blocks_progression(23, 1, u, v)
    assert (23, 1) not in descent_sample_pairs(40)


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


def test_build_curve_kinds():
    assert isinstance(build_curve(CASES["2223a"]), EllipticModel)
    assert isinstance(build_curve(CASES["2223b"]), HyperCurve)
    form_case = build_curve(CASES["3323"])
    assert isinstance(form_case, SuperellipticForm)
    assert form_case.z_mult == 2 and form_case.z_power == 3


def test_squarefree_enforced():
    with pytest.raises(ValueError):
        HyperCurve("t_bad", UniPoly([0, 0, 1, 0, 0, 0, 1]))  # x^2(x^4+1)

"""Acceptance criteria: one test per criterion, one printed line each.

Every expected value below is either carried by the corpus (and re-derived
by the code under test) or frozen from an independent oracle; tolerances
are exact equality and the stated runtime budgets.
"""

import math
import random
import time
from fractions import Fraction

from apforge.corpus import load_corpus
from apforge.curvelab import derive_case
from apforge.curves import (BadReduction, HyperCurve, count_points,
                            jacobian_order, l_poly_coeffs, torsion_gcd_bound)
from apforge.genus import (ALL_GENUS_LE1_POSSIBLE, GENUS_AT_LEAST_2, GENUS_GT1,
                           GENUS_ONE, GenusZero, chi_classify, rh_genus_bound)
from apforge.points import (locally_solvable, locally_solvable_real,
                            rational_points_search)
from apforge.exactmath import (BinaryForm, UniPoly, form_eval,
                               form_exact_root, int_kth_root, uni_resultant)
from apforge.numfield import field_by_name, nf_is_s_unit, nf_norm
from apforge.parametrize import param_cover_check, param_verify_identity
from apforge.searcher import search_cubic_twin, search_theorem3, verify_remark_families
from apforge.sieve import maybe_power

CORPUS = load_corpus()
CASES = {c.id: c for c in CORPUS.cases}


def report(n, name, ok, detail, t0):
    line = (f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}, t={time.monotonic() - t0:.1f}s)")
    print(line, flush=True)
    assert ok, line


def test_criterion_1_lemma_identities_and_cover():
    t0 = time.monotonic()
    fams = CORPUS.families
    branch_instances = 0
    identity_ok = True
    for fam in fams:
        for b in range(len(fam.branches)):
            branch_instances += 1
            identity_ok = identity_ok and param_verify_identity(fam, b)
    unmatched_total = 0
    for fam in fams:
        rep = param_cover_check(fam, 200)
        unmatched_total += len(rep.unmatched)
    elapsed = time.monotonic() - t0
    ok = (len(fams) == 8 and branch_instances == 11 and identity_ok
          and unmatched_total == 0 and elapsed < 120)
    report(1, "lemma identities + cover(200)", ok,
           f"{branch_instances} branches, {unmatched_total} unmatched", t0)


def test_criterion_2_theorem3_desk_scale():
    t0 = time.monotonic()
    progs = search_theorem3(10**4, 10**3)
    vals = sorted(set(p.values for p in progs))
    elapsed = time.monotonic() - t0
    ok = vals == [(-1, -1, -1, -1), (1, 1, 1, 1)] and elapsed < 600
    report(2, "theorem-3 grid (|x| <= 1e4 squares, 1e3 cubes)", ok,
           f"value tuples {vals}", t0)


def test_criterion_3_jacobian_orders():
    t0 = time.monotonic()
    c1 = CASES["2223b"].curve
    j5 = jacobian_order(c1, 5)
    j7 = jacobian_order(c1, 7)
    gcd_order = torsion_gcd_bound(c1, [5, 7])
    elapsed = time.monotonic() - t0
    ok = (j5, j7, gcd_order) == (21, 52, 1) and elapsed < 60
    report(3, "Jacobian orders 21 and 52, torsion gcd 1", ok,
           f"J(F5)={j5}, J(F7)={j7}, gcd={gcd_order}", t0)


def test_criterion_4_case_derivations():
    t0 = time.monotonic()
    derived = 0
    for case in CORPUS.cases:
        derive_case(case)  # raises DerivationMismatch on any coefficient drift
        derived += 1
    remark_ok = verify_remark_families()
    ok = derived == 10 and remark_ok
    report(4, "all 10 case derivations + infinite families", ok,
           f"{derived} cases re-derived, families AP: {remark_ok}", t0)


def test_criterion_5_rational_point_inventories():
    t0 = time.monotonic()
    checks = []
    for cid, want_aff, want_inf in [
        ("2223b", [], 2),
        ("2232", [], 2),
        ("3232", [("-1", "0"), ("1", "-2"), ("1", "2")], 0),
        ("3223d2", [("0", "-1"), ("0", "1")], 2),
    ]:
        pts, inf = rational_points_search(CASES[cid].curve, 1000)
        want = sorted((Fraction(x), Fraction(y)) for x, y in want_aff)
        checks.append(pts == want and inf == want_inf)
    quintic = CASES["3223d1"].curve
    pts, inf = rational_points_search(quintic, 10000)
    checks.append(pts == [] and inf == 0)
    primes = [p for p in range(2, 101) if all(p % d for d in range(2, p))]
    checks.append(all(locally_solvable(quintic, p) for p in primes))
    checks.append(locally_solvable_real(quintic))
    report(5, "rational point inventories (exact sets)", all(checks),
           f"{sum(checks)}/{len(checks)} inventories exact", t0)


def test_criterion_6_number_field_facts():
    t0 = time.monotonic()
    checks = {}
    K = field_by_name("cbrt2")
    a = K.alpha
    checks["unit-cube identity"] = (a - 1) * (a + 1) ** 3 == 3
    # Res(G, H) = 1 for the square-cube-cube-square case (normalized pair).
    G = UniPoly([a**2, a + 2, a**2 + 2 * a + 1, a + 2, a**2])
    H = UniPoly([-a, a**2 + 1, -a])
    s = K.element([12, 6, 3])
    res = uni_resultant(G, H)
    checks["resultant square scale"] = s * s == res
    checks["resultant one"] = uni_resultant(G * s, H * s.inverse()) == K.one
    # g*h = f over the quartic field.
    M = field_by_name("quartic")
    c = M.alpha
    g = BinaryForm([c**2 + 2 * c + 1, -2 * c**3 - c**2 + 2 * c + 1,
                    3 * c**2 - 26 * c - 13, -6 * c**3 - 3 * c**2 + 6 * c + 3])
    h = BinaryForm([2 * c**3 + 3 * c**2 - 2 * c + 9,
                    12 * c**3 + 17 * c**2 - 10 * c + 53,
                    6 * c**3 + 9 * c**2 - 6 * c + 27,
                    -92 * c**3 - 141 * c**2 + 66 * c - 401])
    f = BinaryForm([3, 18, 9, -148, -27, 162, -81])
    prod = g * h
    checks["quartic split"] = list(prod.coeffs) == [
        M.rational(t) for t in f.coeffs]
    # Res(Q, R) is an S-unit for S = {2, 3}.
    L = field_by_name("cubic57over4")
    b = L.alpha
    Q = UniPoly([-b, L.zero, L.one])
    R = UniPoly([b**2 + Fraction(57, 4) * b + 39, L.zero,
                 b + Fraction(57, 4), L.zero, L.one])
    checks["even-sextic resultant S-unit"] = nf_is_s_unit(uni_resultant(Q, R), [2, 3])
    checks["involution"] = f.substitute_linear(0, -3, 1, 0) == f * Fraction(-27)
    checks["f(1,-1)"] = form_eval(f, 1, -1) == -128
    checks["f(3,1)"] = form_eval(f, 3, 1) == 3456
    bad = [k for k, v in checks.items() if not v]
    report(6, "number-field facts", not bad, f"failing: {bad or 'none'}", t0)


def test_criterion_7_genus_classifier():
    t0 = time.monotonic()
    ok = True
    for vec in [(a, b, c, d) for a in range(2, 6) for b in range(2, 6)
                for c in range(2, 6) for d in range(2, 6)]:
        want = ALL_GENUS_LE1_POSSIBLE if vec == (2, 2, 2, 2) else GENUS_AT_LEAST_2
        ok = ok and rh_genus_bound(4, vec) == want
    for vec in [(a, b, c, d, e) for a in range(2, 5) for b in range(2, 5)
                for c in range(2, 5) for d in range(2, 5) for e in range(2, 5)]:
        ok = ok and rh_genus_bound(5, vec) == GENUS_AT_LEAST_2
    for r in range(2, 8):
        for s in range(2, 8):
            for t in range(2, 8):
                chi = Fraction(1, r) + Fraction(1, s) + Fraction(1, t)
                got = chi_classify(r, s, t)
                if chi > 1:
                    ok = ok and isinstance(got, GenusZero) \
                        and got.cover_degree == 2 / chi
                elif chi == 1:
                    ok = ok and got == GENUS_ONE
                else:
                    ok = ok and got == GENUS_GT1
                ok = ok and ((rh_genus_bound(3, (r, s, t)) == GENUS_AT_LEAST_2)
                             == (chi < 1))
    report(7, "genus classifier grids", ok, "k=4 in [2,5]^4, k=5, k=3 chi", t0)


def test_criterion_8_theorem_b_c_empirics():
    t0 = time.monotonic()
    squares = search_theorem3(10**4, 1, vectors=[(2, 2, 2, 2)])
    sq_ok = [p.values for p in squares] == [(1, 1, 1, 1)]
    twin = search_cubic_twin(500)
    twin_ok = twin == [(-1, -1, -1), (1, 1, 1)]
    report(8, "no 4 distinct squares in AP; cubic twin trivial",
           sq_ok and twin_ok, f"squares {sq_ok}, twin {twin_ok}", t0)


def test_criterion_9_property_suites():
    t0 = time.monotonic()
    trials = 0
    failures = 0

    # Sieve soundness: filtered == unfiltered on bound 200.
    a = search_theorem3(200, 60, use_sieve=True)
    b = search_theorem3(200, 60, use_sieve=False)
    failures += 0 if [(p.exponents, p.values) for p in a] == \
        [(p.exponents, p.values) for p in b] else 1
    trials += 1
    rng = random.Random(60601)
    for _ in range(2000):
        l = rng.randint(2, 7)
        x = rng.randint(0, 60) if l % 2 == 0 else rng.randint(-60, 60)
        h = x**l
        trials += 1
        if not maybe_power(h, l):
            failures += 1

    # Weil / L-polynomial invariants on every corpus genus-2 curve, p <= 31.
    for case in CORPUS.cases:
        curve = case.curve
        if not isinstance(curve, HyperCurve):
            continue
        for p in [5, 7, 11, 13, 17, 19, 23, 29, 31]:
            try:
                order = jacobian_order(curve, p)
            except BadReduction:
                continue
            trials += 1
            c1, _c2 = l_poly_coeffs(curve, p)
            n1, n2 = count_points(curve, p), count_points(curve, p * p)
            good = (1 <= order <= (p**0.5 + 1) ** 4
                    and abs(n1 - (p + 1)) <= 4 * p**0.5 + 1e-9
                    and n2 >= n1 and c1 == n1 - (p + 1))
            failures += 0 if good else 1

    # Exact k-th root round trips.
    for _ in range(3000):
        k = rng.choice([2, 3])
        deg = rng.randint(0, 3)
        coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(deg + 1)]
        if not any(coeffs):
            coeffs[0] = Fraction(1)
        fform = BinaryForm(coeffs)
        got = form_exact_root(fform.pow(k), k)
        trials += 1
        if got is None or got not in (fform, -fform):
            failures += 1

    # Norm multiplicativity over every corpus field.
    from apforge.numfield import FIELDS

    for name in FIELDS:
        K = field_by_name(name)
        n = 900 if K.degree == 2 else 220
        for _ in range(n):
            u = K.element([Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                           for _ in range(K.degree)])
            v = K.element([Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                           for _ in range(K.degree)])
            trials += 1
            if nf_norm(u * v) != nf_norm(u) * nf_norm(v):
                failures += 1

    # Deterministic integer root grid |r| <= 1000, k in 2..7.
    for r in range(-1000, 1001):
        for k in range(2, 8):
            if k % 2 == 0 and r < 0:
                continue
            trials += 1
            got = int_kth_root(r**k, k)
            want = abs(r) if k % 2 == 0 else r
            if got != want:
                failures += 1

    ok = failures == 0 and trials >= 10_000
    report(9, "property suites", ok, f"{trials} trials, {failures} failures", t0)

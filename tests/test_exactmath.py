"""Exact arithmetic layer: pinned examples and randomized properties."""

import random
from fractions import Fraction

import pytest

from apforge.exactmath import (BinaryForm, UniPoly, form_eval, form_exact_root,
                               int_kth_root, is_prime, poly_divmod, primes_upto,
                               square_split, uni_resultant)


def naive_form_mul(a, b):
    """Independent oracle: dict-based convolution."""
    if a.is_zero or b.is_zero:
        return BinaryForm([0])
    out = {}
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] = out.get(i + j, Fraction(0)) + ca * cb
    return BinaryForm([out.get(k, Fraction(0)) for k in range(a.degree + b.degree + 1)])


def test_form_mul_difference_of_squares():
    assert BinaryForm([1, 1]) * BinaryForm([1, -1]) == BinaryForm([1, 0, -1])


def test_form_square_hand_expansion():
    # (3x^2 y + 2y^3)^2 expanded by hand: 9x^4y^2 + 12x^2y^4 + 4y^6
    g = BinaryForm([0, 3, 0, 2])
    assert g.pow(2) == BinaryForm([0, 0, 9, 0, 12, 0, 4])


def test_form_eval_pinned_values():
    f = BinaryForm([1, 8, 2, -8, 1])
    assert form_eval(f, 1, 0) == 1
    sextic = BinaryForm([3, 18, 9, -148, -27, 162, -81])
    assert form_eval(sextic, 1, -1) == -128  # 2 * (-4)^3
    assert form_eval(sextic, 3, 1) == 3456   # 2 * 12^3


def test_form_mul_eval_homomorphism_random():
    rng = random.Random(20240501)
    for _ in range(1000):
        da, db = rng.randint(0, 6), rng.randint(0, 6)
        a = BinaryForm([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(da + 1)])
        b = BinaryForm([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(db + 1)])
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        y = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        prod = a * b
        assert prod == naive_form_mul(a, b)
        assert form_eval(prod, x, y) == form_eval(a, x, y) * form_eval(b, x, y)


def test_substitute_linear_matches_eval_random():
    rng = random.Random(1729)
    rand = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    collapsed = 0
    for i in range(600):
        f = BinaryForm([rand() for _ in range(rng.randint(1, 6))])
        px, qx, py, qy = (rand() for _ in range(4))
        if i % 3 == 0:
            # The rank-one substitution (a l, b l), l = px x + qx y, gives
            # l^n f(a, b): the zero form, as (b x - a y) divides f.
            a, b = rand(), rand()
            f = f * BinaryForm([b, -a])
            px, qx, py, qy = a * px, a * qx, b * px, b * qx
        g = f.substitute_linear(px, qx, py, qy)
        collapsed += g.is_zero
        assert g.degree == (0 if g.is_zero else f.degree)
        for _ in range(3):
            x, y = rand(), rand()
            assert form_eval(g, x, y) == form_eval(f, px * x + qx * y, py * x + qy * y)
    assert collapsed >= 200


def test_form_exact_root_examples():
    c = BinaryForm([-1, 0, 2])  # 2y^2 - x^2
    assert form_exact_root(c.pow(3), 3) == c
    assert form_exact_root(BinaryForm([1, 2, 1]), 2) == BinaryForm([1, 1])
    assert form_exact_root(BinaryForm([1, 0, 0, 0, 0, 0, 1]), 3) is None


def test_form_exact_root_round_trip_random():
    rng = random.Random(987)
    for _ in range(3000):
        k = rng.choice([2, 3])
        deg = rng.randint(0, 3)
        coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(deg + 1)]
        if not any(coeffs):
            coeffs[0] = Fraction(1)
        f = BinaryForm(coeffs)
        g = form_exact_root(f.pow(k), k)
        assert g is not None
        # Sign convention: leading coefficient is the real k-th root.
        assert g in (f, -f)
        assert g.pow(k) == f.pow(k)


def test_form_exact_root_with_y_factor():
    f = BinaryForm([0, 2, -1])  # y(2x - y)
    assert form_exact_root(f.pow(3), 3) == f


def test_int_kth_root_examples():
    assert int_kth_root(389017, 3) == 73  # 73^3 by repeated multiplication
    assert 73 * 73 * 73 == 389017
    assert int_kth_root(0, 5) == 0
    assert int_kth_root(-8, 3) == -2
    assert int_kth_root(-4, 2) is None
    assert int_kth_root(10, 3) is None


def test_int_kth_root_exhaustive_small():
    for r in range(-1000, 1001):
        for k in range(2, 8):
            if k % 2 == 0 and r < 0:
                continue
            n = r**k
            got = int_kth_root(n, k)
            if k % 2 == 0:
                assert got == abs(r)
            else:
                assert got == r


def test_uni_resultant_examples():
    assert uni_resultant(UniPoly([-1, 1]), UniPoly([1, 1])) == 2
    # Zero iff a shared root: (x-2)(x-3) vs (x-3)(x+1)
    p = UniPoly([6, -5, 1])
    q = UniPoly([-3, -2, 1])
    assert uni_resultant(p, q) == 0
    q2 = UniPoly([4, 5, 1])  # roots -1, -4
    assert uni_resultant(p, q2) != 0


def test_uni_resultant_shared_root_random():
    rng = random.Random(5150)
    for _ in range(300):
        a, b, c = [rng.randint(-12, 12) for _ in range(3)]
        p = UniPoly([-a, 1]) * UniPoly([-b, 1])
        q = UniPoly([-b, 1]) * UniPoly([-c, 1])
        assert uni_resultant(p, q) == 0
        q_shift = UniPoly([-b - 1, 1]) * UniPoly([-c, 1])
        shares = (b + 1 in (a, b)) or (c in (a, b))
        assert (uni_resultant(p, q_shift) == 0) == shares


def test_uni_resultant_constant_convention():
    m = UniPoly([-2, 0, 1])
    assert uni_resultant(m, UniPoly([3])) == 9


def test_poly_divmod_round_trip():
    rng = random.Random(77)
    for _ in range(200):
        num = UniPoly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 7))])
        den = UniPoly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 4))])
        if den.is_zero:
            continue
        q, r = poly_divmod(num, den)
        assert q * den + r == num
        assert r.is_zero or r.degree < den.degree


def test_zero_form_conventions():
    z = BinaryForm([0])
    assert z.is_zero and z.degree == 0
    f = BinaryForm([1, 2])
    assert (z * f).is_zero
    assert form_exact_root(z, 3).is_zero


def test_form_exact_root_rejects_bad_degree_or_lead():
    assert form_exact_root(BinaryForm([1, 0, 0]), 3) is None  # degree 2, k=3
    assert form_exact_root(BinaryForm([-1, 0, 0, 0, 1]), 2) is None  # lead < 0


def test_invalid_k_raises():
    with pytest.raises(ValueError):
        int_kth_root(5, 0)
    with pytest.raises(ValueError):
        form_exact_root(BinaryForm([1]), 0)


def trial_square_split(n):
    """Independent oracle: trial division by every d with d^2 <= n."""
    s, t, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            t *= d
        if n % d == 0:
            n //= d
            s *= d
        d += 1
    return s * n, t


def test_square_split_matches_trial_division():
    for n in range(1, 10**4 + 1):
        assert square_split(n) == trial_square_split(n)
    # Primes above 10^4 leave a cofactor p, p*q or p^2 past the cube cutoff.
    big = [p for p in primes_upto(10**4 + 300) if p > 10**4]
    for p, q in zip(big, big[1:]):
        for n in (p, p * q, p * p, 12 * p * p, 18 * p * q):
            assert square_split(n) == trial_square_split(n)


def test_is_prime_matches_sieve():
    assert [n for n in range(-3, 10**4 + 1) if is_prime(n)] == primes_upto(10**4)

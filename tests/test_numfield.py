"""Number field layer: corpus identities, norms, S-units, squareness."""

import random
from fractions import Fraction

import pytest
from sympy import QQ, CRootOf, Poly, Symbol

from apforge.numfield import (FIELDS, NumberField, cbrt2_field,
                              cubic_field_57_4, field_by_name, nf_is_s_unit,
                              nf_is_square, nf_norm, quadratic_field, quartic_field)

ALL_FIELDS = [name for name in FIELDS]


def rand_elem(field, rng, span=9):
    return field.element([Fraction(rng.randint(-span, span), rng.randint(1, 3))
                          for _ in range(field.degree)])


def test_cbrt2_identities():
    K = cbrt2_field()
    a = K.alpha
    assert (a - 1) * (a + 1) ** 3 == 3
    assert a**3 == 2
    assert nf_norm(a + 1) == 3
    assert nf_norm(a - 1) == 1
    assert a.inverse() == a * a * Fraction(1, 2)


def test_sqrt2_identities():
    Q2 = quadratic_field(2)
    u = Q2.element([1, 1])  # 1 + sqrt 2
    assert nf_norm(u) == -1
    assert u * Q2.element([-1, 1]) == 1
    assert u.inverse() == Q2.element([-1, 1])
    assert nf_norm(Q2.rational(3)) == 9


def test_sqrtm2_square_of_root():
    # 2 = -(sqrt(-2))^2 in Q(sqrt(-2))
    K = quadratic_field(-2)
    assert -(K.alpha**2) == 2


def test_identity_and_inverse_random():
    rng = random.Random(31337)
    for name in ALL_FIELDS:
        K = field_by_name(name)
        for _ in range(60):
            a = rand_elem(K, rng)
            if not a:
                continue
            assert K.one * a == a
            assert a * a.inverse() == K.one


def pow_table_product(a, b):
    """Independent oracle: the coordinate convolution, reduced with a table of
    alpha^e for d <= e <= 2d - 2 in the power basis."""
    K = a.field
    d = K.degree
    table = [[-c for c in K.minpoly.coeffs[:-1]]]
    for _ in range(d - 2):
        shifted = [Fraction(0)] + table[-1]
        top = shifted.pop()
        table.append([s + top * t for s, t in zip(shifted, table[0])])
    prod = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a.coords):
        for j, y in enumerate(b.coords):
            prod[i + j] += x * y
    out = prod[:d]
    for e in range(d, 2 * d - 1):
        out = [s + prod[e] * t for s, t in zip(out, table[e - d])]
    return K.element(out)


def test_product_matches_pow_table_oracle():
    rng = random.Random(8675309)
    for name in ALL_FIELDS:
        K = field_by_name(name)
        for _ in range(200):
            a, b = rand_elem(K, rng), rand_elem(K, rng)
            assert a * b == pow_table_product(a, b)


def test_norm_multiplicative_random():
    rng = random.Random(424242)
    trials_per_field = {name: (1500 if field_by_name(name).degree == 2 else 350)
                        for name in ALL_FIELDS}
    total = 0
    for name in ALL_FIELDS:
        K = field_by_name(name)
        for _ in range(trials_per_field[name]):
            a = rand_elem(K, rng, span=6)
            b = rand_elem(K, rng, span=6)
            assert nf_norm(a * b) == nf_norm(a) * nf_norm(b)
            total += 1
    assert total >= 8000


def test_norm_of_rational_is_power():
    for name in ALL_FIELDS:
        K = field_by_name(name)
        assert nf_norm(K.rational(Fraction(3, 5))) == Fraction(3, 5) ** K.degree


def test_s_unit_on_norms():
    Q2 = quadratic_field(2)
    a = Q2.element([4, 2])  # norm 16 - 8 = 8
    assert nf_norm(a) == 8
    assert nf_is_s_unit(a, [2, 3])
    b = Q2.element([3, 2])  # norm 9 - 8 = 1
    assert nf_is_s_unit(b, [])
    c = Q2.element([5, 2])  # norm 25 - 8 = 17
    assert not nf_is_s_unit(c, [2, 3])
    with pytest.raises(ValueError):
        nf_is_s_unit(Q2.zero, [2])


def test_is_square_examples():
    Q2 = quadratic_field(2)
    assert nf_is_square(Q2.rational(4)) == Q2.rational(2)
    u = Q2.element([1, 1])
    root = nf_is_square(u * u)
    assert root in (u, -u)
    Q3 = quadratic_field(3)
    assert nf_is_square(Q3.rational(2)) is None


def test_is_square_round_trip_random():
    rng = random.Random(2718281)
    for name in ALL_FIELDS:
        K = field_by_name(name)
        n = 40 if K.degree <= 3 else 25
        for _ in range(n):
            b = rand_elem(K, rng, span=5)
            if not b:
                continue
            a = b * b
            got = nf_is_square(a)
            assert got is not None
            assert got * got == a
            assert got in (b, -b)


def test_is_square_refutations():
    Qi = quadratic_field(-1)
    assert nf_is_square(Qi.element([0, 2])) == Qi.element([1, 1])  # sqrt(2i)
    K = cbrt2_field()
    assert nf_is_square(K.alpha) is None  # 2^(1/3) is not a square there
    assert nf_is_square(K.rational(-1)) is None


def test_is_square_zero_and_rationals():
    K = quartic_field()
    assert nf_is_square(K.zero) == K.zero
    assert nf_is_square(K.rational(Fraction(9, 4))) == K.rational(Fraction(3, 2))


def test_is_square_matches_sympy_factorization():
    """Differential oracle: a != 0 is a square in K exactly when t^2 - a
    splits over Q(CRootOf(m, 0)) in sympy's algebraic-field factorization."""
    rng = random.Random(161803)
    t, x = Symbol("t"), Symbol("x")
    for name in ALL_FIELDS:
        K = field_by_name(name)
        ascending = [QQ(c.numerator, c.denominator) for c in K.minpoly.coeffs]
        m = Poly(ascending[::-1], x, domain=QQ)
        root = CRootOf(m.as_expr(), 0)
        F = QQ.algebraic_field(root)
        alpha = F.convert(root)
        assert sum((c * alpha**i for i, c in enumerate(ascending)), F.zero) == F.zero
        checked = 0
        for i in range(30):
            b = rand_elem(K, rng, span=7)
            a = b * b if i % 2 == 0 else rand_elem(K, rng, span=7)
            if not a:
                continue
            elem = sum((QQ(c.numerator, c.denominator) * alpha**j
                        for j, c in enumerate(a.coords)), F.zero)
            _, factors = Poly([F.one, F.zero, -elem], t, domain=F).factor_list()
            assert (nf_is_square(a) is None) == (len(factors) == 1), (name, a)
            checked += 1
        assert checked >= 25


def test_field_mismatch_rejected():
    Q2 = quadratic_field(2)
    Q3 = quadratic_field(3)
    with pytest.raises(ValueError):
        Q2.alpha + Q3.alpha


def test_non_monic_cubic_normalizes():
    K = cubic_field_57_4()
    a = K.alpha
    assert a**3 + Fraction(57, 4) * a**2 + 39 * a + 1 == 0
    assert K.minpoly.lead() == 1


def test_quartic_minpoly():
    K = quartic_field()
    a = K.alpha
    assert a**4 + 2 * a**3 + 4 * a + 2 == 0


def test_degree_one_rejected():
    with pytest.raises(ValueError):
        NumberField([1, 1])


def test_division_by_zero():
    K = quadratic_field(2)
    with pytest.raises(ZeroDivisionError):
        K.zero.inverse()

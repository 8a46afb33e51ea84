"""Number field layer: corpus identities, norms, S-units, squareness."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import QQ, CRootOf, Poly, Symbol

from apforge.exactmath import primes_upto
from apforge.numfield import (FIELDS, NumberField, _roots_mod, field_by_name, nf_is_s_unit,
                              nf_is_square, nf_norm)

ALL_FIELDS = [name for name in FIELDS]


@st.composite
def same_field(draw, count, span=9, fields=tuple(ALL_FIELDS)):
    """count elements of one field, drawn from `fields` (a name listed twice
    is drawn twice as often), each coordinate n/d with |n| <= span and
    1 <= d <= 3.  An element is drawn as one integer, whose digits in base
    3 (2 span + 1) are its coordinates: one draw per element keeps the
    thousands of examples below cheap."""
    K = field_by_name(draw(st.sampled_from(fields)))
    base = 3 * (2 * span + 1)
    elems = []
    for _ in range(count):
        code, coords = draw(st.integers(0, base**K.degree - 1)), []
        for _ in range(K.degree):
            code, digit = divmod(code, base)
            coords.append(Fraction(digit // 3 - span, digit % 3 + 1))
        elems.append(K.element(coords))
    return elems


def test_cbrt2_identities():
    K = field_by_name("cbrt2")
    a = K.alpha
    assert (a - 1) * (a + 1) ** 3 == 3
    assert a**3 == 2
    assert nf_norm(a + 1) == 3
    assert nf_norm(a - 1) == 1
    assert a.inverse() == a * a * Fraction(1, 2)


def test_sqrt2_identities():
    Q2 = field_by_name("sqrt2")
    u = Q2.element([1, 1])  # 1 + sqrt 2
    assert nf_norm(u) == -1
    assert u * Q2.element([-1, 1]) == 1
    assert u.inverse() == Q2.element([-1, 1])
    assert nf_norm(Q2.rational(3)) == 9


def test_sqrtm2_square_of_root():
    # 2 = -(sqrt(-2))^2 in Q(sqrt(-2))
    K = field_by_name("sqrt-2")
    assert -(K.alpha**2) == 2


@settings(max_examples=60 * len(ALL_FIELDS), deadline=None)
@given(same_field(1))
def test_identity_and_inverse_random(elems):
    (a,) = elems
    assume(a)
    K = a.field
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


@settings(max_examples=200 * len(ALL_FIELDS), deadline=None)
@given(same_field(2))
def test_product_matches_pow_table_oracle(elems):
    a, b = elems
    assert a * b == pow_table_product(a, b)


# 1500 products per quadratic field and 350 per other field, in expectation:
# the fields are drawn in the ratio 1500 : 350 = 30 : 7.  Each example draws
# NORM_PAIRS pairs of one field, as hypothesis spends more per example than
# one product costs.
NORM_FIELDS = tuple(name for name in ALL_FIELDS
                    for _ in range(30 if field_by_name(name).degree == 2 else 7))
NORM_PAIRS = 30


@settings(max_examples=sum(1500 if field_by_name(name).degree == 2 else 350
                           for name in ALL_FIELDS) // NORM_PAIRS, deadline=None)
@given(same_field(2 * NORM_PAIRS, span=6, fields=NORM_FIELDS))
def test_norm_multiplicative_random(elems):
    for a, b in zip(elems[::2], elems[1::2]):
        assert nf_norm(a * b) == nf_norm(a) * nf_norm(b)


def test_norm_of_rational_is_power():
    for name in ALL_FIELDS:
        K = field_by_name(name)
        assert nf_norm(K.rational(Fraction(3, 5))) == Fraction(3, 5) ** K.degree


def test_s_unit_on_norms():
    Q2 = field_by_name("sqrt2")
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
    Q2 = field_by_name("sqrt2")
    assert nf_is_square(Q2.rational(4)) == Q2.rational(2)
    u = Q2.element([1, 1])
    root = nf_is_square(u * u)
    assert root in (u, -u)
    Q3 = field_by_name("sqrt3")
    assert nf_is_square(Q3.rational(2)) is None


@settings(max_examples=sum(40 if field_by_name(name).degree <= 3 else 25
                           for name in ALL_FIELDS), deadline=None)
@given(same_field(1, span=5))
def test_is_square_round_trip_random(elems):
    (b,) = elems
    assume(b)
    a = b * b
    got = nf_is_square(a)
    assert got is not None
    assert got * got == a
    assert got in (b, -b)


def test_is_square_refutations():
    Qi = field_by_name("i")
    assert nf_is_square(Qi.element([0, 2])) == Qi.element([1, 1])  # sqrt(2i)
    K = field_by_name("cbrt2")
    assert nf_is_square(K.alpha) is None  # 2^(1/3) is not a square there
    assert nf_is_square(K.rational(-1)) is None


def test_is_square_zero_and_rationals():
    K = field_by_name("quartic")
    assert nf_is_square(K.zero) == K.zero
    assert nf_is_square(K.rational(Fraction(9, 4))) == K.rational(Fraction(3, 2))


@lru_cache(maxsize=None)
def sympy_field(K):
    """(F, alpha): sympy's Q(CRootOf(m, 0)) for K's minimal polynomial m and
    the image of K's generator, checked to be a root of m."""
    ascending = [QQ(c.numerator, c.denominator) for c in K.minpoly.coeffs]
    root = CRootOf(Poly(ascending[::-1], Symbol("x"), domain=QQ).as_expr(), 0)
    F = QQ.algebraic_field(root)
    alpha = F.convert(root)
    assert sum((c * alpha**i for i, c in enumerate(ascending)), F.zero) == F.zero
    return F, alpha


@settings(max_examples=30 * len(ALL_FIELDS), deadline=None)
@given(same_field(2, span=7), st.booleans())
def test_is_square_matches_sympy_factorization(elems, square):
    """Differential oracle: a != 0 is a square in K exactly when t^2 - a
    splits over Q(CRootOf(m, 0)) in sympy's algebraic-field factorization.
    Half the examples square an element, so both answers are drawn."""
    b, c = elems
    a = b * b if square else c
    assume(a)
    F, alpha = sympy_field(a.field)
    elem = sum((QQ(q.numerator, q.denominator) * alpha**j
                for j, q in enumerate(a.coords)), F.zero)
    _, factors = Poly([F.one, F.zero, -elem], Symbol("t"), domain=F).factor_list()
    assert (nf_is_square(a) is None) == (len(factors) == 1), a


def _roots_by_scan(field, p):
    """Reference: the residues r with m(r) = 0 mod p, one residue at a time,
    for m the minimal polynomial; None where p divides the discriminant or a
    denominator of m (or of the discriminant)."""
    disc, coeffs = Fraction(field.discriminant), [Fraction(c) for c in field.minpoly.coeffs]
    if disc.numerator % p == 0 or any(q.denominator % p == 0 for q in (disc, *coeffs)):
        return None
    m = [q.numerator * pow(q.denominator, -1, p) % p for q in coeffs]
    return [r for r in range(p) if sum(c * pow(r, i, p) for i, c in enumerate(m)) % p == 0]


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_roots_mod_matches_residue_scan(name):
    K = field_by_name(name)
    primes = primes_upto(699)[1:]
    assert primes[-1] == 691
    got = {p: _roots_mod(K, p) for p in primes}
    assert got == {p: _roots_by_scan(K, p) for p in primes}
    assert any(roots and len(roots) == K.degree for roots in got.values())
    assert all(type(r) is int for roots in got.values() if roots for r in roots)


def test_field_mismatch_rejected():
    Q2 = field_by_name("sqrt2")
    Q3 = field_by_name("sqrt3")
    with pytest.raises(ValueError):
        Q2.alpha + Q3.alpha


def test_non_monic_cubic_normalizes():
    K = field_by_name("cubic57over4")
    a = K.alpha
    assert a**3 + Fraction(57, 4) * a**2 + 39 * a + 1 == 0
    assert K.minpoly.lead() == 1


def test_quartic_minpoly():
    K = field_by_name("quartic")
    a = K.alpha
    assert a**4 + 2 * a**3 + 4 * a + 2 == 0


def test_degree_one_rejected():
    with pytest.raises(ValueError):
        NumberField([1, 1])


def test_division_by_zero():
    K = field_by_name("sqrt2")
    with pytest.raises(ZeroDivisionError):
        K.zero.inverse()

"""Exact arithmetic layer: pinned examples and randomized properties."""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from apforge.corpus import load_corpus
from apforge.curves import HyperCurve, integral_model
from apforge.exactmath import (BinaryForm, UniPoly, discriminant, form_eval, form_exact_root,
                               form_value, horner, int_det, int_kth_root, is_prime, poly_divmod,
                               poly_xgcd, primes_upto, square_split, uni_resultant)
from apforge.numfield import FIELDS, FieldElem, NumberField, field_by_name, nf_norm


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


# Coefficients beyond int64 either way: horner and form_value must reduce
# each one before it meets an array, or numpy refuses the Python int.
BIG_COEFFS = st.lists(st.integers(2**63, 2**80) | st.integers(-2**80, -2**63) | st.just(0),
                      min_size=2, max_size=8)


@st.composite
def residues_mod(draw):
    """(m, xs, ys): a modulus m <= 2^30 and two equal-length lists in [0, m)."""
    m = draw(st.integers(2, 2**30))
    xs = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=16))
    ys = draw(st.lists(st.integers(0, m - 1), min_size=len(xs), max_size=len(xs)))
    return m, xs, ys


@settings(max_examples=200, deadline=None)
@given(BIG_COEFFS, residues_mod())
def test_modular_evaluators_match_python_ints_on_int64_arrays(coeffs, data):
    m, xs, ys = data
    x, y = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    n = len(coeffs) - 1
    value = horner(coeffs, x, m)
    assert value.dtype == np.int64
    assert value.tolist() == [sum(c * a**i for i, c in enumerate(coeffs)) % m for a in xs]
    value = form_value(coeffs, x, y, m)
    assert value.dtype == np.int64
    assert value.tolist() == [sum(c * a ** (n - j) * b**j for j, c in enumerate(coeffs)) % m
                              for a, b in zip(xs, ys)]


class Digits:
    """The numbers of one case, read off a byte string as the digits of an
    integer in mixed radix."""

    def __init__(self, data: bytes):
        self.code = int.from_bytes(data, "little")

    def int(self, lo: int, hi: int) -> int:
        self.code, digit = divmod(self.code, hi - lo + 1)
        return lo + digit

    def fraction(self, span: int, den: int) -> Fraction:
        return Fraction(self.int(-span, span), self.int(1, den))


def batches(count: int, size: int):
    """count cases per example, each a Digits over its own size bytes of one
    drawn byte string: one draw per example keeps thousands of cases cheap."""
    return st.binary(min_size=count * size, max_size=count * size).map(
        lambda data: [Digits(data[i:i + size]) for i in range(0, len(data), size)])


@settings(max_examples=25, deadline=None)
@given(batches(40, 16))
def test_form_mul_eval_homomorphism_random(cases):
    for d in cases:
        a, b = (BinaryForm([d.fraction(9, 4) for _ in range(d.int(1, 7))]) for _ in "ab")
        x, y = d.fraction(20, 7), d.fraction(20, 7)
        prod = a * b
        assert prod == naive_form_mul(a, b)
        assert form_eval(prod, x, y) == form_eval(a, x, y) * form_eval(b, x, y)


@settings(max_examples=20, deadline=None)
@given(batches(30, 16))
def test_substitute_linear_matches_eval_random(cases):
    for i, d in enumerate(cases):
        f = BinaryForm([d.fraction(6, 3) for _ in range(d.int(1, 6))])
        px, qx, py, qy, a, b, *xys = (d.fraction(6, 3) for _ in range(12))
        rank_one = i % 3 == 0
        if rank_one:
            # The rank-one substitution (a l, b l), l = px x + qx y, gives
            # l^n f(a, b): the zero form, as (b x - a y) divides f.
            f = f * BinaryForm([b, -a])
            px, qx, py, qy = a * px, a * qx, b * px, b * qx
        g = f.substitute_linear(px, qx, py, qy)
        assert g.is_zero or not rank_one
        assert g.degree == (0 if g.is_zero else f.degree)
        for x, y in zip(xys[::2], xys[1::2]):
            assert form_eval(g, x, y) == form_eval(f, px * x + qx * y, py * x + qy * y)


def test_form_exact_root_examples():
    c = BinaryForm([-1, 0, 2])  # 2y^2 - x^2
    assert form_exact_root(c.pow(3), 3) == c
    assert form_exact_root(BinaryForm([1, 2, 1]), 2) == BinaryForm([1, 1])
    assert form_exact_root(BinaryForm([1, 0, 0, 0, 0, 0, 1]), 3) is None


@settings(max_examples=30, deadline=None)
@given(batches(100, 3))
def test_form_exact_root_round_trip_random(cases):
    for d in cases:
        k = d.int(2, 3)
        coeffs = [Fraction(d.int(-6, 6)) for _ in range(d.int(1, 4))]
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
    # Odd degrees, lower first: the Sylvester determinant of x + 1 (three
    # rows) and x^3 + 2 is q(-1) = 1.
    assert uni_resultant(UniPoly([1, 1]), UniPoly([2, 0, 0, 1])) == 1
    assert uni_resultant(UniPoly([2, 0, 0, 1]), UniPoly([1, 1])) == -1


@settings(max_examples=10, deadline=None)
@given(batches(30, 2))
def test_uni_resultant_shared_root_random(cases):
    for d in cases:
        a, b, c = (d.int(-12, 12) for _ in "abc")
        p = UniPoly([-a, 1]) * UniPoly([-b, 1])
        q = UniPoly([-b, 1]) * UniPoly([-c, 1])
        assert uni_resultant(p, q) == 0
        q_shift = UniPoly([-b - 1, 1]) * UniPoly([-c, 1])
        shares = (b + 1 in (a, b)) or (c in (a, b))
        assert (uni_resultant(p, q_shift) == 0) == shares


def test_uni_resultant_constant_convention():
    m = UniPoly([-2, 0, 1])
    assert uni_resultant(m, UniPoly([3])) == 9


@settings(max_examples=10, deadline=None)
@given(batches(20, 8))
def test_poly_divmod_round_trip(cases):
    for d in cases:
        num, den = (UniPoly([Fraction(d.int(-9, 9)) for _ in range(d.int(1, most))])
                    for most in (7, 4))
        if den.is_zero:
            continue
        q, r = poly_divmod(num, den)
        assert q * den + r == num
        assert r.is_zero or r.degree < den.degree


def test_poly_divmod_takes_zero_from_ring():
    K = field_by_name("i")
    i = K.alpha
    x = UniPoly([K.zero, K.one])
    cases = [
        (x ** 3, x),                               # quotient x^2: two interior zeros
        (x ** 5 + UniPoly([i]), x ** 2 - UniPoly([i])),
        (x ** 4 + UniPoly([K.one]), UniPoly([i * 2])),   # constant divisor
        (x, x ** 2 + UniPoly([K.one])),            # deg num < deg den
    ]
    for num, den in cases:
        q, r = poly_divmod(num, den)
        assert all(isinstance(c, FieldElem) for c in q.coeffs + r.coeffs), (num, den, q, r)
        assert q * den + r == num
    assert poly_divmod(x ** 3, x)[0].coeffs == (K.zero, K.zero, K.one)


def test_poly_divmod_inverts_the_divisor_lead_once(monkeypatch):
    K = field_by_name("i")
    i = K.alpha
    x = UniPoly([K.zero, K.one])
    p = UniPoly([K.one, i, K.one * 2, i * 3, K.one + i])   # degree 4
    q = UniPoly([i, K.one * 5, K.one - i, i * 2])           # degree 3
    inverses = []
    inverse = FieldElem.inverse

    def spy(self):
        inverses.append(self)
        return inverse(self)

    monkeypatch.setattr(FieldElem, "inverse", spy)
    # Three remainder steps, each dividing by a new leading coefficient.
    assert uni_resultant(p, q)
    assert len(inverses) == 3
    inverses.clear()
    num, den = x ** 6 + UniPoly([i]), x ** 2 * (K.one + i) + UniPoly([K.one])
    quo, rem = poly_divmod(num, den)
    assert quo * den + rem == num and quo.degree == 4
    assert len(inverses) == 1
    inverses.clear()
    assert poly_divmod(x, den) == (UniPoly([K.zero]), x)
    assert not inverses


def test_unipoly_zero_results_take_zero_from_ring():
    K = field_by_name("i")
    f = UniPoly([K.one, K.alpha])
    zeros = [UniPoly([K.zero]) * f, f * UniPoly([K.zero]), UniPoly([0]) * f,
             UniPoly([K.one]).derivative(), UniPoly([K.alpha]).derivative()]
    for z in zeros:
        assert z.is_zero and all(isinstance(c, FieldElem) for c in z.coeffs), z
    assert f ** 0 == UniPoly([K.one]) and isinstance((f ** 0).lead(), FieldElem)
    # Over Q the zero and the unit stay Fractions.
    for z in (UniPoly([0]) * UniPoly([1, 2]), UniPoly([5]).derivative()):
        assert z.is_zero and all(type(c) is Fraction for c in z.coeffs), z
    assert type((UniPoly([1, 2]) ** 0).lead()) is Fraction


# ---------------------------------------------------------------------------
# sympy as a differential oracle for resultants, discriminants and norms

X, A = sympy.Symbol("x"), sympy.Symbol("a")


def as_sympy(poly, coeff, var=X):
    return sum(coeff(c) * var ** k for k, c in enumerate(poly.coeffs))


def rational(q) -> sympy.Rational:
    q = Fraction(q)
    return sympy.Rational(q.numerator, q.denominator)


def to_fraction(r) -> Fraction:
    r = sympy.Rational(r)
    return Fraction(int(r.p), int(r.q))


def field_to_sympy(e: FieldElem):
    return as_sympy(e.poly, rational, A)


def sympy_to_field(K: NumberField, expr) -> FieldElem:
    """Reduce a polynomial in a modulo m(a) and read off its coordinates."""
    m = sympy.Poly(as_sympy(K.minpoly, rational, A), A)
    rem = sympy.Poly(expr, A).rem(m).all_coeffs()[::-1]
    return FieldElem(K, [to_fraction(c) for c in rem] + [0] * (K.degree - len(rem)))


def corpus_genus2_models():
    curves = {}
    for case in load_corpus().cases:
        curve = case.curve
        if isinstance(curve, HyperCurve) and curve.f.degree > 3:
            curves[curve.label] = curve
    return [curves[k] for k in sorted(curves)]


def test_discriminants_match_sympy_on_corpus_models():
    models = corpus_genus2_models()
    assert len(models) == 8
    for curve in models:
        coeffs, _v = integral_model(curve.f)
        for f in (curve.f, UniPoly(coeffs)):
            F = as_sympy(f, rational)
            want = sympy.resultant(F, sympy.diff(F, X), X)
            got = uni_resultant(f, f.derivative())
            assert got == to_fraction(want), curve.label
            assert got != 0


def _rational(nonzero=False):
    q = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
    return q.filter(bool) if nonzero else q | st.just(Fraction(0))


def _poly(low: int, high: int):
    """Ascending rational coefficients of a polynomial of degree low..high:
    non-integers and zeros frequent, the leading one nonzero, of either sign."""
    return st.integers(low, high).flatmap(lambda n: st.tuples(
        st.lists(_rational(), min_size=n, max_size=n), _rational(nonzero=True))).map(
        lambda t: (*t[0], t[1]))


@settings(max_examples=300, deadline=None)
@given(_poly(1, 7))
@example((1, 0, 39, 0, Fraction(57, 4), 0, 1))  # 3223d2's sextic: D = 4
@example((Fraction(-5, 3), Fraction(3, 2)))
@example((Fraction(1, 2), 0, 0, 0, 0, 0, Fraction(-3, 4)))
@example((0, Fraction(7, 6), 0, 0, 0, 0, 0, Fraction(-1, 10)))
def test_discriminant_is_the_euclidean_resultant(coeffs):
    # The fraction-free determinant of D f and D f' over D^(2n - 1) is the
    # Euclidean Res(f, f'), as a Fraction, at every degree.
    f = UniPoly(coeffs)
    got = discriminant.__wrapped__(coeffs)
    assert type(got) is Fraction
    assert got == uni_resultant(f, f.derivative())


@settings(max_examples=150, deadline=None)
@given(_poly(1, 3).flatmap(lambda g: st.tuples(st.just(g), _poly(0, 7 - 2 * (len(g) - 1)))))
def test_discriminant_of_a_repeated_root_is_zero(gh):
    g, h = (UniPoly(c) for c in gh)
    f = g * g * h
    got = discriminant.__wrapped__(f.coeffs)
    assert type(got) is Fraction and got == 0 == uni_resultant(f, f.derivative())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6) | st.just(0), min_size=n, max_size=n), min_size=n, max_size=n)))
@example([[0, 1], [1, 0]])  # a zero pivot: one swap
@example([[0, 2, 1], [0, 3, 5], [4, 1, 1]])
@example([[1, 2], [2, 4]])  # singular: no pivot left
def test_int_det_matches_sympy(rows):
    n = len(rows)
    want = sympy.Matrix(n, n, [c for row in rows for c in row]).det()
    got = int_det(rows)
    assert type(got) is int and got == want


def small_elems(K: NumberField):
    """Elements of K with coordinates n/d, -4 <= n <= 4 and 1 <= d <= 2."""
    coord = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))
    return st.lists(coord, min_size=K.degree, max_size=K.degree).map(
        lambda cs: FieldElem(K, cs))


@pytest.mark.parametrize("name", list(FIELDS))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_field_resultants_and_norms_match_sympy(name, data):
    # Each example: 4 resultant pairs and 10 norms of one field.  A pair's
    # polynomials have degree 1..3 and lead K.one + e, kept nonzero.
    K = field_by_name(name)
    elems = small_elems(K)
    leads = elems.map(lambda e: K.one + e).filter(bool)
    polys = st.builds(lambda low, lead: UniPoly(low + [lead]),
                      st.lists(elems, min_size=1, max_size=3), leads)
    pairs = data.draw(st.lists(st.tuples(polys, polys), min_size=4, max_size=4))
    for pair in pairs:
        # Higher degree first: sympy 1.14 flips the sign when both degrees
        # are odd and the first is the lower (Res(x + 1, x^3 + 2) is 1, it
        # gives -1); test_resultant_swap_sign covers the other order.
        q, p = sorted(pair, key=lambda f: f.degree)
        want = sympy.resultant(as_sympy(p, field_to_sympy), as_sympy(q, field_to_sympy), X)
        assert uni_resultant(p, q) == sympy_to_field(K, sympy.expand(want))
    m = as_sympy(K.minpoly, rational, A)
    for e in data.draw(st.lists(elems.filter(bool), min_size=10, max_size=10)):
        assert nf_norm(e) == to_fraction(sympy.resultant(m, field_to_sympy(e), A))


# ---------------------------------------------------------------------------
# The Euclidean core: poly_xgcd and the remainder-sequence resultant

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
q_polys = st.lists(fractions, min_size=1, max_size=6).map(UniPoly)
nonzero_q_polys = q_polys.filter(lambda f: not f.is_zero)
CBRT2 = field_by_name("cbrt2")
cbrt2_polys = st.lists(st.lists(fractions, min_size=3, max_size=3).map(
                           lambda coords: FieldElem(CBRT2, coords)),
                       min_size=1, max_size=4).map(UniPoly)


def check_xgcd(a, b):
    g, s, t = poly_xgcd(a, b)
    assert s * a + t * b == g
    if a.is_zero and b.is_zero:
        assert g.is_zero
        return
    assert g.lead() == 1
    for f in (a, b):
        assert poly_divmod(f, g)[1].is_zero


@settings(max_examples=150, deadline=None)
@given(q_polys, q_polys)
def test_poly_xgcd_bezout_over_q(a, b):
    check_xgcd(a, b)
    check_xgcd(a * b, b)  # a nontrivial common factor


@settings(max_examples=40, deadline=None)
@given(cbrt2_polys, cbrt2_polys)
def test_poly_xgcd_bezout_over_cbrt2(a, b):
    check_xgcd(a, b)
    check_xgcd(a * b, a)


def test_poly_xgcd_edge_cases():
    x = UniPoly([0, 1])
    f = UniPoly([2, 0, 3])
    check_xgcd(UniPoly([5]), f)           # a constant
    check_xgcd(f, UniPoly([Fraction(1, 2)]))  # b constant
    check_xgcd(UniPoly([0]), f)           # a zero
    check_xgcd(UniPoly([0]), UniPoly([0]))
    check_xgcd(x, f)                      # deg a < deg b
    assert poly_xgcd(UniPoly([0]), f) == (f * Fraction(1, 3), UniPoly([0]),
                                          UniPoly([Fraction(1, 3)]))
    assert poly_xgcd(f * x, f * (x + UniPoly([1])))[0] == f * Fraction(1, 3)


@settings(max_examples=150, deadline=None)
@given(nonzero_q_polys, nonzero_q_polys)
def test_resultant_swap_sign(p, q):
    sign = -1 if p.degree * q.degree % 2 else 1
    assert uni_resultant(p, q) == sign * uni_resultant(q, p)


@settings(max_examples=100, deadline=None)
@given(nonzero_q_polys, nonzero_q_polys, nonzero_q_polys)
def test_resultant_multiplicative(p, q, r):
    assert uni_resultant(p * q, r) == uni_resultant(p, r) * uni_resultant(q, r)


def test_inverse_of_zero_divisor_raises():
    K = NumberField([-1, 0, 1])  # x^2 - 1 is reducible
    with pytest.raises(ZeroDivisionError):
        (K.alpha - 1).inverse()
    assert (K.alpha + 2).inverse() * (K.alpha + 2) == K.one


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

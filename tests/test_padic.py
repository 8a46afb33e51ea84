"""The p-adic layer: valuations, Q_p square classes, Hensel lifting, rational
reconstruction, the lifting budget, and Q_p-solvability of y^2 = f(x)
against a residue oracle that knows nothing of the lifting."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from apforge import padic
from apforge.curves import HyperCurve
from apforge.exactmath import UniPoly, horner
from apforge.numfield import Undecided as NumfieldUndecided, field_by_name, nf_is_s_unit
from apforge.padic import (Undecided, frac_mod, hensel_lift, is_square_qp, rational_reconstruct,
                           valuation)
from apforge.points import locally_solvable


def test_valuation():
    assert valuation(2**5 * 3, 2) == 5
    assert valuation(-81, 3) == 4
    assert valuation(7, 5) == 0
    assert valuation(0, 7) == 0
    # p below 2 is refused: p = 1 would divide forever, p = -2 would count 2s
    for p in (1, 0, -2):
        with pytest.raises(ValueError):
            valuation(8, p)
    with pytest.raises(ValueError):
        nf_is_s_unit(field_by_name("sqrt2").one * 8, [1])


@pytest.mark.parametrize("v", [1, 17, -7, -15, 4, 68, 9 * 41])
def test_squares_in_q2(v):
    assert is_square_qp(v, 2)


@pytest.mark.parametrize("v", [2, 3, 5, -1, 7, 8, 12, -4])
def test_non_squares_in_q2(v):
    assert not is_square_qp(v, 2)


def test_square_classes_at_odd_primes():
    for p in (3, 5, 7, 11, 13):
        residues = {k * k % p for k in range(1, p)}
        for v in range(1, p):
            assert is_square_qp(v, p) == (v in residues)
            assert is_square_qp(v * p * p, p) == (v in residues)
            assert not is_square_qp(v * p, p)
    assert is_square_qp(-2, 3) and not is_square_qp(-1, 3) and is_square_qp(-1, 5)
    assert is_square_qp(0, 7)


@pytest.mark.parametrize("root", [4, 7, 20])
def test_hensel_lift_cube_roots_of_two_mod_31(root):
    assert (root**3 - 2) % 31 == 0
    for n in (1, 2, 5, 13):
        x = hensel_lift([-2, 0, 0, 1], root, 31, n)
        assert 0 <= x < 31**n and x % 31 == root
        assert (x**3 - 2) % 31**n == 0


@pytest.mark.parametrize("mod", [101, 10007, 3**9])
def test_rational_reconstruct_round_trip_and_bound(mod):
    # Every u/v with |u|, v <= sqrt(mod/2) comes back from its residue; the
    # residues no such fraction has give None.
    bound = math.isqrt(mod // 2)
    small = {Fraction(u, v) for u in range(-bound, bound + 1) for v in range(1, bound + 1)
             if math.gcd(3, v) == 1 or mod % 3}
    residues = {}
    for q in small:
        residues[frac_mod(q, mod)] = q
        assert rational_reconstruct(frac_mod(q, mod), mod) == q
    assert len(residues) == len(small)
    for c in range(mod):
        assert rational_reconstruct(c, mod) == residues.get(c)


def test_frac_mod_needs_a_unit_denominator():
    assert frac_mod(Fraction(1, 3), 7) == 5
    assert frac_mod(Fraction(-1, 2), 9) == 4
    with pytest.raises(ZeroDivisionError):
        frac_mod(Fraction(1, 3), 9)
    with pytest.raises(ZeroDivisionError):
        frac_mod(Fraction(5, 14), 7)


def test_undecided_is_one_class():
    assert NumfieldUndecided is Undecided


def test_lifting_budget_raises_undecided():
    # y^2 = -10x^6 - 12 = 2(-5x^6 - 6): g has the root 0 mod 3, so the check
    # must lift; with no lifts left it cannot decide.
    with pytest.raises(Undecided) as exc:
        padic.zp_solvable([-6, 0, 0, 0, 0, 0, -5], 2, 3, 0)
    assert str(exc.value) == "local solvability lifting budget exhausted at 3"
    assert not locally_solvable(HyperCurve("t_budget", UniPoly([-12, 0, 0, 0, 0, 0, -10])), 3)


# Residue oracle.  With g primitive and c its content up to an even power of
# p, c*g(x) for x == x0 mod p^N differs from c*g(x0) by a multiple of p^N, so
# the square class in Q_p of c*g(x) is fixed on the class once
# v = v_p(c*g(x0)) < N (odd p) or v + 3 <= N (p = 2): an even v and a unit
# part that is a square mod p, or 1 mod 8.  x outside Z_p is x = 1/X with X in
# pZ_p, where the reversed sextic takes the place of g (X = 0 is infinity).
ORACLE_DIGITS = {2: 9, 3: 6, 5: 4, 7: 4}


def _oracle_square(w: int, p: int, n: int):
    """True or False when the residue class of w != 0 mod p^n fixes whether
    it is a square in Q_p; None when it does not."""
    v = 0
    while w % p == 0:
        w //= p
        v += 1
    if v + (3 if p == 2 else 1) > n:
        return None
    if v % 2:
        return False
    return w % 8 == 1 if p == 2 else w % p in {k * k % p for k in range(1, p)}


def _residue_oracle(coeffs, p: int):
    """True or False for a Q_p point on y^2 = sum coeffs[i] x^i, or None
    when some residue class stays open and none has a point."""
    n = ORACLE_DIGITS[p]
    content = math.gcd(*coeffs)
    g = [a // content for a in coeffs]
    c = content
    while c % (p * p) == 0:
        c //= p * p
    charts = [(g, range(p**n)), (g[::-1], range(0, p**n, p))]
    open_class = False
    for poly, xs in charts:
        for x in xs:
            value = horner(poly, x)
            if value == 0:
                return True  # a rational root of g: a point with y = 0
            square = _oracle_square(c * value, p, n)
            if square:
                return True
            open_class |= square is None
    return None if open_class else False


def _coefficient(p):
    # Mostly multiples of p, so that the value's valuation is often odd.
    return st.builds(lambda k, b: b * p**k, st.sampled_from((0, 1, 1, 1, 2)),
                     st.integers(-4, 4))


@st.composite
def _sextic_at_prime(draw):
    p = draw(st.sampled_from(sorted(ORACLE_DIGITS)))
    coeffs = [draw(_coefficient(p)) for _ in range(7)]
    return p, coeffs


@settings(max_examples=300, deadline=None)
@given(_sextic_at_prime())
def test_local_solvability_matches_residue_oracle(drawn):
    p, coeffs = drawn
    assume(coeffs[6] != 0)
    try:
        curve = HyperCurve("t_oracle", UniPoly(coeffs))
    except ValueError:  # not squarefree
        assume(False)
    expected = _residue_oracle(coeffs, p)
    assume(expected is not None)
    assert locally_solvable(curve, p) == expected, (p, coeffs)

"""Parametrization families: identities, evaluation, bounded completeness."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from apforge import parametrize, sieve
from apforge.corpus import corpus_path, load_corpus
from apforge.exactmath import form_eval, int_kth_root
from apforge.parametrize import (TernarySolution, _check_int64, _enumerate_solutions,
                                 _parametrized_keys, cover_radius, param_cover_check,
                                 param_verify_identity)

from param_rule import IntegralityViolation, param_eval

FAMILIES = {f.id: f for f in load_corpus().families}
# Synthetic variants that reach paths the corpus never does: half-integral
# forms without the parity rule (non-integral values), and a repeated branch
# (keys reached twice; the first branch must keep them).
NO_PARITY = dataclasses.replace(FAMILIES["viii"], parity_rule=None)
REPEATED = dataclasses.replace(FAMILIES["ii"], branches=FAMILIES["ii"].branches * 2)


def fraction_enumerate(family, bound):
    """Reference: the Fraction loops the sieved integer grid replaced."""
    out = []
    k = family.power
    ca, cb, m = family.coef_a, family.coef_b, family.rhs_mult
    for a in range(0, bound + 1):
        for b in range(0, bound + 1):
            t = (ca * a * a + cb * b * b) / m
            if t.denominator != 1:
                continue
            c = int_kth_root(int(t), k)
            if c is None:
                continue
            sol = TernarySolution(a, b, abs(c) if k % 2 == 0 else c)
            if sol.primitive:
                out.append(sol)
    return out


def fraction_keys(family, radius):
    """Reference: the Fraction form loops the numpy parameter box replaced."""
    keys = {}
    k = family.power
    for bi, br in enumerate(family.branches):
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                if math.gcd(abs(x), abs(y)) != 1:
                    continue
                if family.parity_rule == "x=y mod 2" and (x - y) % 2 != 0:
                    continue
                a = form_eval(br.a_form, x, y)
                b = form_eval(br.b_form, x, y)
                c = form_eval(br.c_form, x, y)
                if any(v.denominator != 1 for v in (a, b, c)):
                    continue
                cc = abs(int(c)) if k % 2 == 0 else int(c)
                keys.setdefault((abs(int(a)), abs(int(b)), cc), ("branch", bi))
    if family.doubled_branch is not None:
        br = family.doubled_branch
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                if math.gcd(abs(x), abs(y)) != 1 or (x - y) % 2 == 0:
                    continue
                a = int(form_eval(br.a_form, x, y))
                b = int(form_eval(br.b_form, x, y))
                c = int(form_eval(br.c_form, x, y))
                cc = abs(c) if k % 2 == 0 else c
                keys.setdefault((abs(a), abs(b), cc), ("doubled", 0))
    return keys


def test_eleven_branch_instances():
    assert len(FAMILIES) == 8
    assert sum(len(f.branches) for f in FAMILIES.values()) == 11


def test_identity_all_branches():
    for fam in FAMILIES.values():
        for b in range(len(fam.branches)):
            assert param_verify_identity(fam, b), (fam.id, b)


def test_param_eval_pinned_examples():
    sol = param_eval(FAMILIES["i"], 0, 1, 1, 1, 1)
    assert (sol.a, sol.b, sol.c) == (7, 5, 1)
    assert 2 * sol.b**2 - sol.a**2 == sol.c**3

    sol = param_eval(FAMILIES["vi"], 0, 1, 1, 2, 1)
    assert (sol.a, sol.b, sol.c) == (-1, 7, 5)
    assert sol.a**2 + sol.b**2 == 2 * sol.c**2

    sol = param_eval(FAMILIES["viii"], 0, 1, 1, 1, 1)
    assert (sol.a, sol.b, sol.c) == (-1, 1, 2)
    assert sol.a**2 + 3 * sol.b**2 == sol.c**2


@st.composite
def coprime_samples(draw, count, span, families=tuple(FAMILIES)):
    """A family drawn from `families` and count samples (branch, sa, sb, x, y)
    of it with |x|, |y| <= span, branch < 2 (taken mod the family's branch
    count) and signs sa, sb = +-1, keeping those with gcd(x, y) = 1.  The
    samples are drawn as one byte string, three bytes each (x and y each a
    byte mod 2 span + 1, then branch and signs in the low bits): one draw
    per example keeps the tens of thousands of samples below cheap."""
    fam = FAMILIES[draw(st.sampled_from(families))]
    side, data = 2 * span + 1, draw(st.binary(min_size=3 * count, max_size=3 * count))
    samples = []
    for bx, by, bits in zip(data[::3], data[1::3], data[2::3]):
        x, y = bx % side - span, by % side - span
        if math.gcd(x, y) == 1:
            samples.append((bits % 2 % len(fam.branches), 1 - (bits & 2), 1 - (bits >> 1 & 2),
                            x, y))
    return fam, samples


# About 10^4 samples per family before the coprime cut, as the seeded loop
# this replaces drew; SAMPLES per example, as hypothesis spends more per
# example than one param_eval costs.
SAMPLES = 100


@settings(max_examples=10_000 * len(FAMILIES) // SAMPLES, deadline=None)
@given(coprime_samples(SAMPLES, 30))
def test_param_eval_equation_random(drawn):
    fam, samples = drawn
    for branch, sa, sb, x, y in samples:
        if fam.parity_rule and (x - y) % 2 != 0:
            with pytest.raises(IntegralityViolation):
                param_eval(fam, branch, sa, sb, x, y)
            continue
        sol = param_eval(fam, branch, sa, sb, x, y)
        lhs = fam.coef_a * sol.a**2 + fam.coef_b * sol.b**2
        assert lhs == fam.rhs_mult * Fraction(sol.c) ** fam.power


def test_sign_choices_flip_a_and_b_only():
    fam = FAMILIES["ii"]
    base = param_eval(fam, 0, 1, 1, 3, 2)
    flipped = param_eval(fam, 0, -1, 1, 3, 2)
    assert (flipped.a, flipped.b, flipped.c) == (-base.a, base.b, base.c)


@settings(max_examples=2000 // SAMPLES, deadline=None)
@given(coprime_samples(SAMPLES, 40, families=("i",)))
def test_family_i_gcd_bound(drawn):
    # Observed divisor bound for gcd(a, b) over coprime parameters: 2, and
    # both divisors occur, at (x, y) = (1, 0) and (0, 1).
    fam, samples = drawn
    for _, _, _, x, y in samples:
        for b in range(2):
            sol = param_eval(fam, b, 1, 1, x, y)
            g = math.gcd(abs(sol.a), abs(sol.b))
            assert 2 % g == 0, (x, y, b, g)
    assert {math.gcd(sol.a, sol.b) for sol in (param_eval(fam, b, 1, 1, x, y)
                                              for b in range(2) for x, y in ((1, 0), (0, 1)))} \
        == {1, 2}


def test_cover_checks_small():
    assert not param_cover_check(FAMILIES["i"], 200).unmatched
    assert not param_cover_check(FAMILIES["vi"], 200).unmatched
    assert not param_cover_check(FAMILIES["iii"], 50).unmatched


def test_cover_check_viii_doubled_forms():
    rep = param_cover_check(FAMILIES["viii"], 100)
    assert not rep.unmatched
    # Solutions with odd hypotenuse (like (1, 4, 7)) need the doubled forms.
    assert any(s.a == 1 and s.b == 4 and s.c == 7 for s in rep.via_doubled_forms)


def test_parity_rule_examples():
    fam = FAMILIES["viii"]
    with pytest.raises(IntegralityViolation):
        param_eval(fam, 0, 1, 1, 2, 1)
    sol = param_eval(fam, 0, 1, 1, 3, 1)
    assert (sol.a, sol.b, sol.c) == (3, 3, 6)  # not primitive, still a solution
    assert sol.a**2 + 3 * sol.b**2 == sol.c**2


def test_doubled_branch_identity():
    fam = FAMILIES["viii"]
    br = fam.doubled_branch
    for x, y in [(2, 1), (1, 0), (4, 1), (5, 2)]:
        a = form_eval(br.a_form, x, y)
        b = form_eval(br.b_form, x, y)
        c = form_eval(br.c_form, x, y)
        assert a * a + 3 * b * b == c * c


def test_unknown_family_rejected(tmp_path):
    with open(corpus_path(), encoding="utf-8") as fh:
        data = json.load(fh)
    data["cases"][0]["derivation"]["family"] = "ix"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match="unknown family 'ix'"):
        load_corpus(str(bad))


@pytest.mark.parametrize("fid", sorted(FAMILIES))
def test_sieved_enumeration_matches_fraction_oracle(fid):
    fam = FAMILIES[fid]
    for bound in (1, 10, 57, 200):
        assert _enumerate_solutions(fam, bound) == fraction_enumerate(fam, bound), bound


# a^2 + b^2 = 8 c^3 has the primitive solution (2, 2, 1) with gcd(a, b) = 2:
# M = 8 is not squarefree, so the gcd(a, b) = 1 cut must not run.
EIGHT_C3 = dataclasses.replace(FAMILIES["ii"], id="8c3", equation="a^2 + b^2 = 8c^3",
                               rhs_mult=Fraction(8))


def test_enumeration_keeps_non_coprime_cells_when_m_is_not_squarefree():
    sols = _enumerate_solutions(EIGHT_C3, 40)
    assert TernarySolution(2, 2, 1) in sols
    assert sols == fraction_enumerate(EIGHT_C3, 40)


# a^2 + b^2 = 1009 c^2: every modulus 1009 f is past what the grid
# tabulates, so divisibility by M is settled by the exact confirmation alone.
PRIME_1009 = dataclasses.replace(FAMILIES["vi"], id="1009c2", equation="a^2 + b^2 = 1009c^2",
                                 rhs_mult=Fraction(1009))


def test_enumeration_with_untabulated_m_matches_fraction_oracle():
    sols = _enumerate_solutions(PRIME_1009, 40)
    assert TernarySolution(15, 28, 1) in sols and TernarySolution(28, 15, 1) in sols
    assert sols == fraction_enumerate(PRIME_1009, 40)


# Bounds 63, 64, 65 put the last column one bit short of a word edge, on it
# and one past; with blocks at the ROW_BLOCK floor of the block rule (at the
# word cap they would take 4096 rows or more), 191, 192, 193 do the same for
# the rows and a block.  The oracle runs once, at the largest bound: its
# solutions up to a smaller bound are those with a, b within it, in the
# same row-major order.
_ENUMERATION_BOUNDS = (0, 1, 63, 64, 65, 191, 192, 193)


@settings(max_examples=12, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 12), st.sampled_from((2, 3, 4)))
@example(-1, 2, 1, 3)
@example(-2, 7, 12, 2)
@example(3, 5, 4, 4)
def test_sieved_enumeration_matches_fraction_oracle_on_random_equations(ca, cb, m, k):
    fam = dataclasses.replace(FAMILIES["ii"], id="random", coef_a=Fraction(ca),
                              coef_b=Fraction(cb), rhs_mult=Fraction(m), power=k)
    want = fraction_enumerate(fam, max(_ENUMERATION_BOUNDS))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sieve, "BLOCK_WORDS", 0)
        for bound in _ENUMERATION_BOUNDS:
            got = _enumerate_solutions(fam, bound)
            assert got == [s for s in want if s.a <= bound and s.b <= bound], bound


@pytest.mark.parametrize("fid", sorted(FAMILIES))
def test_parameter_box_keys_match_fraction_oracle(fid):
    fam = FAMILIES[fid]
    radii = {r for bound in (1, 10, 57, 200)
             for r in (cover_radius(fam, bound), 2 * cover_radius(fam, bound))}
    for radius in sorted(radii):
        # Items in insertion order: the first branch to reach a key names it.
        want = list(fraction_keys(fam, radius).items())
        assert list(_parametrized_keys(fam, radius).items()) == want, radius


@pytest.mark.parametrize("fam", [NO_PARITY, REPEATED], ids=["viii-no-parity", "ii-repeated"])
def test_variant_keys_match_fraction_oracle(fam):
    radius = cover_radius(fam, 57)
    want = list(fraction_keys(fam, radius).items())
    assert list(_parametrized_keys(fam, radius).items()) == want


def test_param_eval_matches_form_eval_on_box():
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    for fam in [*FAMILIES.values(), NO_PARITY]:
        for bi, br in enumerate(fam.branches):
            for x in range(-30, 31):
                for y in range(-30, 31):
                    sa, sb = signs[(x + 2 * y) % 4]
                    vals = [form_eval(f, x, y) for f in (br.a_form, br.b_form, br.c_form)]
                    parity_ok = fam.parity_rule is None or (x - y) % 2 == 0
                    if not parity_ok or any(v.denominator != 1 for v in vals):
                        with pytest.raises(IntegralityViolation):
                            param_eval(fam, bi, sa, sb, x, y)
                        continue
                    sol = param_eval(fam, bi, sa, sb, x, y)
                    assert (sol.a, sol.b, sol.c) == (sa * vals[0], sb * vals[1], vals[2])


@pytest.mark.parametrize("fid", ["i", "viii"])
def test_radius_doubling_matches_oracle(monkeypatch, fid):
    fam = FAMILIES[fid]
    monkeypatch.setattr(parametrize, "cover_radius", lambda family, bound: 1)
    rep = param_cover_check(fam, 57)
    assert rep.radius_doubled and rep.radius == 2
    sols = fraction_enumerate(fam, 57)
    keys = fraction_keys(fam, 2)
    k = fam.power
    hits = [(s, keys.get((s.a, s.b, abs(s.c) if k % 2 == 0 else s.c))) for s in sols]
    assert rep.unmatched == [s for s, hit in hits if hit is None]
    assert rep.unmatched  # radius 2 still misses some: both passes ran
    assert rep.via_doubled_forms == [s for s, hit in hits
                                     if hit is not None and hit[0] == "doubled"]
    assert rep.matched == len(sols) - len(rep.unmatched)
    assert rep.solutions_found == len(sols)


def test_cover_check_rejects_int64_overflow():
    for fam in FAMILIES.values():
        with pytest.raises(ValueError, match="int64 grid"):
            param_cover_check(fam, 2**31)
        with pytest.raises(ValueError, match="beyond int64"):
            _check_int64(fam, 1, 2**30)
        _check_int64(fam, 200, 2 * cover_radius(fam, 200))

"""Parametrization families: identities, evaluation, bounded completeness."""

import json
import math
import random
from fractions import Fraction

import pytest

from apforge.corpus import corpus_path, load_corpus
from apforge.exactmath import form_eval
from apforge.parametrize import (IntegralityViolation, param_cover_check,
                                 param_eval, param_verify_identity)

FAMILIES = {f.id: f for f in load_corpus().families}


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


def test_param_eval_equation_random():
    rng = random.Random(1234321)
    for fam in FAMILIES.values():
        count = 0
        while count < 10_000:
            x = rng.randint(-30, 30)
            y = rng.randint(-30, 30)
            if math.gcd(abs(x), abs(y)) != 1:
                continue
            branch = rng.randrange(len(fam.branches))
            sa = rng.choice([1, -1])
            sb = rng.choice([1, -1])
            if fam.parity_rule and (x - y) % 2 != 0:
                with pytest.raises(IntegralityViolation):
                    param_eval(fam, branch, sa, sb, x, y)
                count += 1
                continue
            sol = param_eval(fam, branch, sa, sb, x, y)
            lhs = fam.coef_a * sol.a**2 + fam.coef_b * sol.b**2
            assert lhs == fam.rhs_mult * Fraction(sol.c) ** fam.power
            count += 1


def test_sign_choices_flip_a_and_b_only():
    fam = FAMILIES["ii"]
    base = param_eval(fam, 0, 1, 1, 3, 2)
    flipped = param_eval(fam, 0, -1, 1, 3, 2)
    assert (flipped.a, flipped.b, flipped.c) == (-base.a, base.b, base.c)


def test_family_i_gcd_bound():
    # Observed divisor bound for gcd(a, b) over coprime parameters: 2.
    fam = FAMILIES["i"]
    rng = random.Random(8080)
    seen = set()
    for _ in range(2000):
        x, y = rng.randint(-40, 40), rng.randint(-40, 40)
        if math.gcd(abs(x), abs(y)) != 1:
            continue
        for b in range(2):
            sol = param_eval(fam, b, 1, 1, x, y)
            g = math.gcd(abs(sol.a), abs(sol.b))
            seen.add(g)
            assert 2 % g == 0, (x, y, b, g)
    assert seen == {1, 2}


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

"""Case layer: each corpus case's derivation and its typed fact checks.

A case names a recipe that re-derives its binary sextic from a family
branch, a map that dehomogenizes the sextic to the recorded curve, and a
list of facts.  `_FACTS` holds one (expected, check) pair per fact kind;
`run_case` turns the derivation and every fact into CheckResult records.
The curve, point and genus layers below this one are `apforge.curves`,
`apforge.points` and `apforge.genus`.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .curves import (EllipticModel, HyperCurve, SuperellipticForm, _rat_is_square,
                     jacobian_order, torsion_gcd_bound)
from .curves import count_points  # noqa: F401; perfbench/traced.py finds it here to wrap it
from .exactmath import (BinaryForm, UniPoly, form_eval, int_kth_root, primes_upto,
                        uni_resultant)
from .numfield import (FieldElem, NumberField, Undecided, field_by_name, nf_is_s_unit,
                       nf_is_square)
from .points import locally_solvable, locally_solvable_real, rational_points_search


class DerivationMismatch(Exception):
    """A symbolic derivation failed to reproduce the recorded polynomial."""


class NoRepresentation(Exception):
    """Descent-step hypothesis does not hold for the given pair."""


# ---------------------------------------------------------------------------
# Point checks over number fields, involution, descent step


def ec_point_check(model: EllipticModel, x, y=None):
    """Verify (x, y) on Y^2 = rhs(X); with y omitted, test rhs(x) for
    squareness in the model's field (Undecided propagates)."""
    rhs_val = model.rhs.eval(x)
    if y is not None:
        return y * y == rhs_val
    if model.field is None:
        return _rat_is_square(rhs_val)
    if not rhs_val:
        return True
    return nf_is_square(rhs_val) is not None


def involution_check(form: BinaryForm, px, qx, py, qy, factor) -> bool:
    """f(px*x + qx*y, py*x + qy*y) == factor * f(x, y), exactly."""
    transformed = form.substitute_linear(px, qx, py, qy)
    return transformed == form * Fraction(factor)


def eq7_descent_step(x1: int, x3: int):
    """Factorization data for x1^3 + x3^3 = 2*x2^2 with gcd(x1, x3) = 1.

    Returns (s, u, v) with x1 + x3 = 2 s u^2 and x1^2 - x1 x3 + x3^2 = s v^2,
    s in {1, 3}.  Raises NoRepresentation when the hypothesis fails.
    """
    if math.gcd(abs(x1), abs(x3)) != 1:
        raise NoRepresentation(f"gcd({x1}, {x3}) != 1")
    t = x1**3 + x3**3
    if t < 0 or t % 2 != 0 or int_kth_root(t // 2, 2) is None:
        raise NoRepresentation(f"{x1}^3 + {x3}^3 is not twice a square")
    g = x1 + x3
    q = x1 * x1 - x1 * x3 + x3 * x3
    for s in (1, 3):
        if g % (2 * s) != 0 or q % s != 0:
            continue
        u = int_kth_root(g // (2 * s), 2)
        v = int_kth_root(q // s, 2)
        if u is not None and v is not None:
            return s, u, v
    raise NoRepresentation(f"no (s, u, v) decomposition for ({x1}, {x3})")


def eq7_s3_blocks_progression(x1: int, x3: int, u: int, v: int) -> bool:
    """Mod-9 obstruction: with s = 3 the would-be leading term 2*x1^3 - x2^2
    is congruent to +-2 mod 9, never a cube, so no progression extends the
    pair.  (Cubes mod 9 are 0, +-1; 3 | x1 is barred by coprimality.)"""
    x2sq = 9 * u * u * v * v
    lead = 2 * x1**3 - x2sq
    return lead % 9 in (2, 7) and x1 % 3 != 0


def mod4_progression_impossible() -> bool:
    """No residue tuple mod 8 supports a square, cube, cube, square
    progression with an even inner base and coprime leading pair."""
    M = 8
    for x0 in range(M):
        for x1 in range(M):
            if x0 % 2 == 0 and x1 % 2 == 0:
                continue
            h0, h1 = x0 * x0 % M, x1**3 % M
            for x2 in range(M):
                if (x1 * x2) % 2 != 0:
                    continue
                h2 = x2**3 % M
                if (h0 + h2 - 2 * h1) % M != 0:
                    continue
                for x3 in range(M):
                    h3 = x3 * x3 % M
                    if (h1 + h3 - 2 * h2) % M == 0:
                        return False
    return True


def descent_sample_pairs(scan: int):
    """Coprime pairs (x1, x3) with x1^3 + x3^3 twice a square whose
    progression lead 2*x1^3 - x2^2 is a perfect cube."""
    out = []
    for x1 in range(-scan, scan + 1):
        for x3 in range(-scan, scan + 1):
            if math.gcd(abs(x1), abs(x3)) != 1:
                continue
            t = x1**3 + x3**3
            if t < 0 or t % 2:
                continue
            x2 = int_kth_root(t // 2, 2)
            if x2 is None:
                continue
            if int_kth_root(2 * x1**3 - x2 * x2, 3) is None:
                continue
            out.append((x1, x3))
    return out


# ---------------------------------------------------------------------------
# Records


@dataclass
class CheckResult:
    id: str
    status: str  # pass | fail | undecided | unchecked-claim
    expected: str
    actual: str
    runtime_ms: int = 0


def timed_check(rid: str, expected: str, fn) -> CheckResult:
    """Run fn() -> (ok, actual) as one record; Undecided becomes "undecided"."""
    t0 = _time.perf_counter()
    try:
        ok, actual = fn()
        status = "pass" if ok else "fail"
    except Undecided as exc:
        status, actual = "undecided", str(exc)
    ms = int((_time.perf_counter() - t0) * 1000)
    return CheckResult(rid, status, expected, str(actual), ms)


# ---------------------------------------------------------------------------
# Curves and derivations


def _rationals(values):
    return [Fraction(c) for c in values]


def _nf_elem(field: NumberField, coords) -> FieldElem:
    return FieldElem(field, _rationals(coords))


def _nf_poly(field: NumberField, rows) -> UniPoly:
    return UniPoly([_nf_elem(field, r) for r in rows])


def _nf_form(field: NumberField, rows) -> BinaryForm:
    return BinaryForm([_nf_elem(field, r) for r in rows])


_CURVES = {
    "genus2": lambda rec: HyperCurve(rec["label"], UniPoly(_rationals(rec["rhs"]))),
    "elliptic": lambda rec: EllipticModel(rec["label"], UniPoly(_rationals(rec["rhs"]))),
    "superelliptic_form": lambda rec: SuperellipticForm(
        rec["label"], BinaryForm(_rationals(rec["form"])),
        z_mult=int(rec["z_mult"]), z_power=int(rec["z_power"])),
}


def build_curve(case):
    """Instantiate the case's recorded target curve (no derivation)."""
    return _CURVES[case.curve["kind"]](case.curve)


def _square_combo(rec, br, cid):
    combo = (br.a_form.pow(2) * Fraction(rec["coef_a"])
             + br.b_form.pow(2) * Fraction(rec["coef_b"]))
    return combo * (Fraction(1) / Fraction(rec["divisor"]))


def _cube_pair_product(rec, br, cid):
    p, q = (Fraction(t) for t in rec["factor1"])
    r, s = (Fraction(t) for t in rec["factor2"])
    sextic = BinaryForm([p, 0, 0, q]) * BinaryForm([r, 0, 0, s])
    ymult = Fraction(rec["y_mult"])
    if form_eval(sextic, 1, 1) != ymult * ymult:
        raise DerivationMismatch(
            f"{cid}: trivial-progression consistency fails for y_mult {ymult}")
    return sextic


def _eq7_combo(rec, br, cid):
    core = (br.a_form + br.b_form) * 2
    return core.pow(3) * 3 - br.b_form.pow(3) * 64


# recipe -> (derivation, family branch, case id) -> binary sextic
_RECIPES = {"square_combo": _square_combo, "cube_pair_product": _cube_pair_product,
            "eq7_combo": _eq7_combo}


def _even_powers(cid, cs):
    if any(cs[j] for j in range(1, 7, 2)):
        raise DerivationMismatch(f"{cid}: odd powers present, even-power map invalid")
    return [cs[0], cs[2], cs[4], cs[6]]


# map -> (case id, sextic coefficients, j-th at x^(6-j) y^j) -> ascending coefficients in x
_MAPS = {"x_over_y": lambda cid, cs: cs[::-1], "even_powers": _even_powers}

CURVE_KINDS = frozenset(_CURVES)
RECIPES = frozenset(_RECIPES)
MAPS = frozenset(_MAPS)


def derive_case(case):
    """Execute the case's symbolic derivation and return the target curve.

    Raises DerivationMismatch (with a coefficient diff) whenever an
    intermediate or the final model differs from the recorded polynomials.
    """
    rec = case.derivation
    sextic = _RECIPES[rec["recipe"]](rec, case.derivation_branch, case.id)
    expected_key = "expected_form" if "expected_form" in rec else "expected_sextic"
    expected = BinaryForm(_rationals(rec[expected_key]))
    if sextic != expected:
        raise DerivationMismatch(_coeff_diff(case.id, sextic, expected))
    target = build_curve(case)
    if isinstance(target, SuperellipticForm):
        if sextic != target.form:
            raise DerivationMismatch(_coeff_diff(case.id, sextic, target.form))
        return target
    divisor = Fraction(rec["curve_divisor"])
    mapped = UniPoly([c / divisor for c in _MAPS[rec["map"]](case.id, sextic.coeffs)])
    recorded = target.rhs if isinstance(target, EllipticModel) else target.f
    if mapped != recorded:
        raise DerivationMismatch(
            f"{case.id}: mapped curve {list(mapped.coeffs)} differs from "
            f"recorded {list(recorded.coeffs)}")
    return target


def _coeff_diff(cid: str, got, want) -> str:
    return (f"{cid}: derived coefficients {[str(c) for c in got.coeffs]} != "
            f"recorded {[str(c) for c in want.coeffs]}")


# ---------------------------------------------------------------------------
# Fact checks: each takes (case, fact) and returns (ok, actual)


def _check_jacobian_order(case, fact):
    actual = jacobian_order(build_curve(case), fact["p"])
    return actual == int(fact["value"]), actual


def _check_torsion_gcd(case, fact):
    actual = torsion_gcd_bound(build_curve(case), fact["primes"])
    ok = actual == int(fact["value"])
    if "divisible_by" in fact:
        ok = ok and actual % int(fact["divisible_by"]) == 0
    return ok, actual


def _check_rational_points(case, fact):
    pts, inf = rational_points_search(build_curve(case), fact["height"])
    want = sorted((Fraction(x), Fraction(y)) for x, y in fact["affine"])
    return (pts == want and inf == fact["infinity"],
            f"affine {[(str(x), str(y)) for x, y in pts]}, infinity {inf}")


def _check_local_solvability(case, fact):
    curve = build_curve(case)
    bad = [p for p in primes_upto(fact["primes_upto"]) if not locally_solvable(curve, p)]
    real_ok = locally_solvable_real(curve) == fact["real"]
    return (not bad) == fact["expect"] and real_ok, f"non-solvable at {bad}" if bad else "solvable everywhere"


def _check_factorization(case, fact):
    field = field_by_name(fact["field"])
    if fact["shape"] == "unipoly":
        factors = [_nf_poly(field, rows) for rows in fact["factors"]]
        product = factors[0]
        for g in factors[1:]:
            product = product * g
        want = UniPoly([field.rational(Fraction(c)) for c in fact["product"]])
        if product != want:
            return False, "product mismatch"
        res = uni_resultant(factors[0], factors[1])
    else:
        factors = [_nf_form(field, rows) for rows in fact["factors"]]
        product = factors[0] * factors[1]
        want = BinaryForm([field.rational(Fraction(c)) for c in fact["product"]])
        if product != want:
            return False, "product mismatch"
        res = None
    claim = fact["resultant"]
    if "equals_one_with_scale" in claim:
        s = _nf_elem(field, claim["equals_one_with_scale"])
        if s * s != res:
            return False, f"scale^2 != resultant ({res!r})"
        res_n = uni_resultant(factors[0] * s, factors[1] * s.inverse())
        return res_n == field.one, f"normalized resultant {res_n!r}"
    if "s_unit" in claim:
        if res is None:
            # binary sextic splitting as two cubic forms: resultant of the
            # dehomogenized cubics witnesses the same S-unit property
            u0 = UniPoly(list(reversed(list(factors[0].coeffs))))
            u1 = UniPoly(list(reversed(list(factors[1].coeffs))))
            res = uni_resultant(u0, u1)
        ok = nf_is_s_unit(res, claim["s_unit"])
        return ok, f"resultant {res!r}"
    return False, "unknown resultant claim"


def _value_at(fact):
    """(field, value of the fact's polynomial at its rational point)."""
    field = field_by_name(fact["field"])
    poly = _nf_poly(field, fact["poly"])
    return field, poly.eval(field.rational(Fraction(fact["at"][0])))


def _check_value_identity(case, fact):
    field, got = _value_at(fact)
    return got == _nf_elem(field, fact["equals"]), repr(got)


def _check_value_square(case, fact):
    field, got = _value_at(fact)
    root = _nf_elem(field, fact["root"])
    return got == root * root, repr(got)


def _check_ec_point(case, fact):
    field = field_by_name(fact["field"])
    model = EllipticModel(f"{case.id}:ec", _nf_poly(field, fact["rhs"]), field)
    x = _nf_elem(field, fact["x"])
    y = _nf_elem(field, fact["y"]) if fact.get("y") is not None else None
    return ec_point_check(model, x, y), "on curve"


def _check_ec_two_torsion(case, fact):
    field = field_by_name(fact["field"])
    rhs = _nf_poly(field, fact["rhs"])
    bad = [coords for coords in fact["xs"] if rhs.eval(_nf_elem(field, coords))]
    return not bad, f"{len(fact['xs']) - len(bad)} of {len(fact['xs'])} vanish"


def _check_ec_square_x(case, fact):
    field = field_by_name(fact["field"])
    rhs = _nf_poly(field, fact["rhs"])
    found = 0
    for coords in fact["xs"]:
        val = rhs.eval(_nf_elem(field, coords))
        root = nf_is_square(val)
        if root is None or root * root != val:
            return False, f"non-square rhs at {coords}"
        found += 1
    return True, f"{found} abscissae lift to points"


def _check_cube_class_value(case, fact):
    field = field_by_name(fact["field"])
    poly = _nf_form(field, fact["poly"])
    x, y = (Fraction(t) for t in fact["at"])
    got = form_eval(poly, field.rational(x), field.rational(y))
    delta = _nf_elem(field, fact["delta"])
    z = _nf_elem(field, fact["z"])
    return got == delta * z**3, repr(got)


def _check_form_value(case, fact):
    x, y = (Fraction(t) for t in fact["at"])
    got = form_eval(build_curve(case).form, x, y)
    return got == Fraction(fact["equals"]), str(got)


def _check_involution(case, fact):
    form = build_curve(case).form
    px, qx, py, qy = (Fraction(t) for t in fact["sub"])
    factor = Fraction(fact["factor"])
    if not involution_check(form, px, qx, py, qy, factor):
        return False, "symbolic identity fails"
    for pre, post in fact.get("solution_pairs", ()):
        x, y = (Fraction(t) for t in pre)
        image = (px * x + qx * y, py * x + qy * y)
        if image != tuple(Fraction(t) for t in post):
            return False, f"{pre} maps to {image}"
        if form_eval(form, *image) != factor * form_eval(form, x, y):
            return False, f"value scaling fails at {pre}"
    return True, "identity and solution swap hold"


def _check_descent_s1(case, fact):
    pairs = descent_sample_pairs(fact["scan"])
    if not pairs:
        return False, "no sample pairs found"
    for x1, x3 in pairs:
        s, _u, _v = eq7_descent_step(x1, x3)
        if s != 1:
            return False, f"s = {s} at {(x1, x3)}"
    return True, f"s = 1 for all {len(pairs)} progression-compatible pairs"


# kind -> (expected(fact) -> str, check(case, fact) -> (ok, actual))
_FACTS = {
    "jacobian_order": (lambda f: f"#J(F_{f['p']}) = {int(f['value'])}",
                       _check_jacobian_order),
    "torsion_gcd": (lambda f: f"gcd of orders = {int(f['value'])}", _check_torsion_gcd),
    "rational_points": (lambda f: f"affine {[(x, y) for x, y in f['affine']]}, "
                                  f"infinity {f['infinity']} at height {f['height']}",
                        _check_rational_points),
    "local_solvability": (lambda f: f"Q_p points for all p <= {f['primes_upto']} "
                                    "and real points",
                          _check_local_solvability),
    # The S-unit test runs on the rational norm, which is weaker than a
    # place-by-place valuation check; flagged here so reports say so.
    "factorization": (lambda f: "factorization and resultant class (norm-level S-unit test)",
                      _check_factorization),
    "value_identity": (lambda f: "value identity over the field", _check_value_identity),
    "value_square": (lambda f: "value equals the recorded square", _check_value_square),
    "ec_point": (lambda f: "point satisfies the Weierstrass equation", _check_ec_point),
    "ec_two_torsion": (lambda f: "rhs vanishes at every 2-torsion abscissa",
                       _check_ec_two_torsion),
    "ec_square_x": (lambda f: "rhs is a square at every listed abscissa", _check_ec_square_x),
    "cube_class_value": (lambda f: "value falls in the recorded cube class",
                         _check_cube_class_value),
    "form_value": (lambda f: f"form value {f['equals']} at {tuple(f['at'])}",
                   _check_form_value),
    "involution": (lambda f: f"f(({f['sub'][0]})x+({f['sub'][1]})y, ...) = {f['factor']} f",
                   _check_involution),
    "mod4_progression": (lambda f: "square-cube-cube-square pattern dies mod 4",
                         lambda case, f: (mod4_progression_impossible(),
                                          "residue enumeration empty")),
    "descent_s1": (lambda f: "descent scale s = 1 on progression-compatible pairs",
                   _check_descent_s1),
}

FACT_KINDS = frozenset(_FACTS) | {"unchecked_claim"}


def run_case(case, height: Optional[int] = None,
             local_primes: Optional[int] = None) -> list:
    """Derivation plus every recorded fact, as CheckResult records.  A given
    height or local_primes replaces each fact's height or primes_upto."""

    def run_derivation():
        try:
            derive_case(case)
            return True, "exact match"
        except DerivationMismatch as exc:
            return False, str(exc)

    overrides = {key: value for key, value in
                 (("height", height), ("primes_upto", local_primes)) if value is not None}
    results = [timed_check(f"{case.id}:derivation", "recorded polynomials",
                           run_derivation)]
    for idx, fact in enumerate(case.facts):
        rid = f"{case.id}:{fact['kind']}:{idx}"
        if fact["kind"] == "unchecked_claim":
            results.append(CheckResult(rid, "unchecked-claim", fact["text"], "not tested"))
            continue
        fact = {key: overrides.get(key, value) for key, value in fact.items()}
        expected, check = _FACTS[fact["kind"]]
        results.append(timed_check(rid, expected(fact), lambda: check(case, fact)))
    return results

"""Case layer: each corpus case's derivation and its typed fact checks.

A case names a recipe that re-derives its binary sextic from a family
branch, a map that dehomogenizes the sextic to the recorded curve (none for
a superelliptic form), and a list of facts.  Each recipe, map and fact kind
is one row (`RECIPES`, `MAPS`, `FACT_KINDS`) of its function and the corpus
keys, curve kinds and reduction primes it reads, which the loader checks
records against; `run_case` turns the derivation and every fact into
CheckResult records.  The checks read only what `apforge.corpus` built at
load: the case's curve, field elements and ec_* models, each curve but a
superelliptic form a `curves.HyperCurve` (y^2 = f(x), genus 1 or 2).
The descent fact's scan of x1^3 + x3^3 = 2 x2^2 is a box search,
`sieve.CubeSumRows`, like the point search of `apforge.points`.
The curve, point and genus layers below this one are `apforge.curves`,
`apforge.points` and `apforge.genus`.
"""

from __future__ import annotations

import math
import time as _time
from typing import Callable, NamedTuple, Optional

from .curves import HyperCurve, jacobian_order, torsion_gcd_bound
from .curves import count_points  # noqa: F401; perfbench/traced.py finds it here to wrap it
from .exactmath import (BinaryForm, UniPoly, form_eval, int_kth_root, primes_upto,
                        rat_kth_root, uni_resultant)
from .numfield import Undecided, nf_is_s_unit, nf_is_square
from .points import locally_solvable, locally_solvable_real, rational_points_search
from .sieve import CubeSumRows


class DerivationMismatch(Exception):
    """A symbolic derivation failed to reproduce the recorded polynomial."""


class NoRepresentation(Exception):
    """Descent-step hypothesis does not hold for the given pair."""


# ---------------------------------------------------------------------------
# Point checks over number fields, involution, descent step


def ec_point_check(model: HyperCurve, x, y=None):
    """Verify (x, y) on Y^2 = f(X); with y omitted, test f(x) for
    squareness in the model's field (Undecided propagates)."""
    value = model.f.eval(x)
    if y is not None:
        return y * y == value
    if model.field is None:
        return rat_kth_root(value, 2) is not None
    return nf_is_square(value) is not None


def involution_check(form: BinaryForm, px, qx, py, qy, factor) -> bool:
    """f(px*x + qx*y, py*x + qy*y) == factor * f(x, y), exactly."""
    transformed = form.substitute_linear(px, qx, py, qy)
    return transformed == form * factor


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
    """Coprime pairs (x1, x3), |x1|, |x3| <= scan, with x1^3 + x3^3 twice a
    square whose progression lead 2*x1^3 - x2^2 is a perfect cube, in
    row-major order (x1, then x3, ascending).  The pairs with x1^3 + x3^3 =
    2 x2^2 are the coprime hits of one box search, `sieve.CubeSumRows`; the
    cube test runs on each hit."""
    return [(x1, x3) for x1, x3, x2 in CubeSumRows(scan).hits(coprime=True)
            if int_kth_root(2 * x1**3 - x2 * x2, 3) is not None]


# ---------------------------------------------------------------------------
# Records


class CheckResult(NamedTuple):
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
# Derivations


def _square_combo(rec, br, cid):
    combo = br.a_form.pow(2) * rec["coef_a"] + br.b_form.pow(2) * rec["coef_b"]
    return combo * (1 / rec["divisor"])


def _cube_pair_product(rec, br, cid):
    (p, q), (r, s) = rec["factor1"], rec["factor2"]
    sextic = BinaryForm([p, 0, 0, q]) * BinaryForm([r, 0, 0, s])
    ymult = rec["y_mult"]
    if form_eval(sextic, 1, 1) != ymult * ymult:
        raise DerivationMismatch(
            f"{cid}: trivial-progression consistency fails for y_mult {ymult}")
    return sextic


def _eq7_combo(rec, br, cid):
    core = (br.a_form + br.b_form) * 2
    return core.pow(3) * 3 - br.b_form.pow(3) * 64


# recipe -> ((derivation, family branch, case id) -> binary sextic,
#            required derivation keys); the loader checks records against the keys
RECIPES = {
    "square_combo": (_square_combo, ("family", "branch", "coef_a", "coef_b", "divisor",
                                     "expected_sextic")),
    "cube_pair_product": (_cube_pair_product, ("factor1", "factor2", "y_mult",
                                               "expected_sextic")),
    "eq7_combo": (_eq7_combo, ("family", "expected_form")),
}


def _even_powers(cid, cs):
    if any(cs[j] for j in range(1, 7, 2)):
        raise DerivationMismatch(f"{cid}: odd powers present, even-power map invalid")
    return [cs[0], cs[2], cs[4], cs[6]]


# map -> ((case id, sextic coefficients, j-th at x^(6-j) y^j) -> ascending
#         coefficients in x, required derivation keys)
MAPS = {"x_over_y": (lambda cid, cs: cs[::-1], ("curve_divisor",)),
        "even_powers": (_even_powers, ("curve_divisor",))}


def derive_case(case):
    """Execute the case's symbolic derivation and return the target curve.

    Raises DerivationMismatch (with a coefficient diff) whenever an
    intermediate or the final model differs from the recorded polynomials.
    """
    rec = case.derivation
    sextic = RECIPES[rec["recipe"]][0](rec, case.derivation_branch, case.id)
    expected_key = "expected_form" if "expected_form" in rec else "expected_sextic"
    expected = BinaryForm(rec[expected_key])
    if sextic != expected:
        raise DerivationMismatch(_coeff_diff(case.id, sextic, expected))
    target = case.curve
    if "map" not in rec:  # a superelliptic form; the loader gives every other curve a map
        if sextic != target.form:
            raise DerivationMismatch(_coeff_diff(case.id, sextic, target.form))
        return target
    divisor = rec["curve_divisor"]
    mapped = UniPoly([c / divisor for c in MAPS[rec["map"]][0](case.id, sextic.coeffs)])
    if mapped != target.f:
        raise DerivationMismatch(
            f"{case.id}: mapped curve {list(mapped.coeffs)} differs from "
            f"recorded {list(target.f.coeffs)}")
    return target


def _coeff_diff(cid: str, got, want) -> str:
    return (f"{cid}: derived coefficients {[str(c) for c in got.coeffs]} != "
            f"recorded {[str(c) for c in want.coeffs]}")


# ---------------------------------------------------------------------------
# Fact checks: each takes (case, fact) and returns (ok, actual)


def _check_jacobian_order(case, fact):
    actual = jacobian_order(case.curve, fact["p"])
    return actual == fact["value"], actual


def _check_torsion_gcd(case, fact):
    actual = torsion_gcd_bound(case.curve, fact["primes"])
    return actual == fact["value"] and actual % fact.get("divisible_by", 1) == 0, actual


def _check_rational_points(case, fact):
    pts, inf = rational_points_search(case.curve, fact["height"])
    want = sorted((x, y) for x, y in fact["affine"])
    return (pts == want and inf == fact["infinity"],
            f"affine {[(str(x), str(y)) for x, y in pts]}, infinity {inf}")


def _check_local_solvability(case, fact):
    bad = [p for p in primes_upto(fact["primes_upto"]) if not locally_solvable(case.curve, p)]
    real_ok = locally_solvable_real(case.curve) == fact["real"]
    return (not bad) == fact["expect"] and real_ok, f"non-solvable at {bad}" if bad else "solvable everywhere"


RESULTANT_CLAIMS = ("equals_one_with_scale", "s_unit")  # a factorization fact names one


def _check_factorization(case, fact):
    ring = UniPoly if fact["shape"] == "unipoly" else BinaryForm
    factors = [ring(rows) for rows in fact["factors"]]
    if math.prod(factors) != ring(fact["product"]):
        return False, "product mismatch"
    # Forms are dehomogenized to f(x, 1), whose resultant witnesses the same
    # property; both claims read it.
    polys = factors[:2] if ring is UniPoly else [UniPoly(f.coeffs[::-1]) for f in factors[:2]]
    res = uni_resultant(*polys)
    claim = fact["resultant"]
    if "equals_one_with_scale" in claim:
        s = claim["equals_one_with_scale"]
        if s * s != res:
            return False, f"scale^2 != resultant ({res!r})"
        res_n = uni_resultant(polys[0] * s, polys[1] * s.inverse())
        return res_n == 1, f"normalized resultant {res_n!r}"
    # The loader admits only the two claims in RESULTANT_CLAIMS.
    ok = nf_is_s_unit(res, claim["s_unit"])
    return ok, f"resultant {res!r}"


def _check_value(case, fact):
    """A value_identity or value_square: the polynomial at the rational point."""
    got = UniPoly(fact["poly"]).eval(fact["at"][0])
    return got == (fact["root"] * fact["root"] if "root" in fact else fact["equals"]), repr(got)


def _check_ec_point(case, fact):
    return ec_point_check(fact["rhs"], fact["x"], fact.get("y")), "on curve"


def _check_ec_two_torsion(case, fact):
    bad = [x for x in fact["xs"] if fact["rhs"].f.eval(x)]
    return not bad, f"{len(fact['xs']) - len(bad)} of {len(fact['xs'])} vanish"


def _check_ec_square_x(case, fact):
    for x in fact["xs"]:
        if not ec_point_check(fact["rhs"], x):
            return False, f"non-square rhs at {[str(c) for c in x.coords]}"
    return True, f"{len(fact['xs'])} abscissae lift to points"


def _check_cube_class_value(case, fact):
    got = form_eval(BinaryForm(fact["poly"]), *fact["at"])
    return got == fact["delta"] * fact["z"]**3, repr(got)


def _check_form_value(case, fact):
    """F(at) is the recorded value, which is z_mult * z^z_power for a rational z."""
    form = case.curve
    got = form_eval(form.form, *fact["at"])
    ok = got == fact["equals"] and rat_kth_root(got / form.z_mult, form.z_power) is not None
    return ok, str(got)


def _check_involution(case, fact):
    form = case.curve.form
    px, qx, py, qy = fact["sub"]
    factor = fact["factor"]
    if not involution_check(form, px, qx, py, qy, factor):
        return False, "symbolic identity fails"
    for (x, y), post in fact.get("solution_pairs", ()):
        image = [px * x + qx * y, py * x + qy * y]
        if image != post:
            return False, f"({x}, {y}) maps to ({image[0]}, {image[1]})"
        if form_eval(form, *image) != factor * form_eval(form, x, y):
            return False, f"value scaling fails at ({x}, {y})"
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


class FactKind(NamedTuple):
    """A fact kind's row: what the loader and `run_case` read of the kind."""

    expected: Callable  # fact -> the record's expected string
    check: Optional[Callable]  # (case, fact) -> (ok, actual); None: a claim no check tests
    keys: tuple  # the keys a fact must hold
    optional: tuple = ()  # the keys it may add
    curves: tuple = ()  # the curve kinds the check reads; none: it reads no curve
    reduces_at: Optional[str] = None  # the key of the primes it reduces the curve at


# kind -> its row; the loader checks each fact against its kind's row
FACT_KINDS = {
    "jacobian_order": FactKind(lambda f: f"#J(F_{f['p']}) = {f['value']}", _check_jacobian_order,
                               ("p", "value"), curves=("genus2",), reduces_at="p"),
    "torsion_gcd": FactKind(lambda f: f"gcd of orders = {f['value']}", _check_torsion_gcd,
                            ("primes", "value"), ("divisible_by",),
                            curves=("genus2",), reduces_at="primes"),
    "rational_points": FactKind(
        lambda f: f"affine {[(str(x), str(y)) for x, y in f['affine']]}, "
                  f"infinity {f['infinity']} at height {f['height']}",
        _check_rational_points, ("height", "affine", "infinity"), curves=("genus2", "elliptic")),
    "local_solvability": FactKind(
        lambda f: f"Q_p points for all p <= {f['primes_upto']} and real points",
        _check_local_solvability, ("primes_upto", "expect", "real"),
        curves=("genus2", "elliptic")),
    # The S-unit test runs on the rational norm, which is weaker than a
    # place-by-place valuation check; flagged here so reports say so.
    "factorization": FactKind(
        lambda f: "factorization and resultant class (norm-level S-unit test)",
        _check_factorization, ("field", "shape", "factors", "product", "resultant")),
    "value_identity": FactKind(lambda f: "value identity over the field", _check_value,
                               ("field", "poly", "at", "equals"), ("shape",)),
    "value_square": FactKind(lambda f: "value equals the recorded square", _check_value,
                             ("field", "poly", "at", "root"), ("shape",)),
    "ec_point": FactKind(lambda f: "point satisfies the Weierstrass equation",
                         _check_ec_point, ("field", "rhs", "x"), ("y",)),
    "ec_two_torsion": FactKind(lambda f: "rhs vanishes at every 2-torsion abscissa",
                               _check_ec_two_torsion, ("field", "rhs", "xs")),
    "ec_square_x": FactKind(lambda f: "rhs is a square at every listed abscissa",
                            _check_ec_square_x, ("field", "rhs", "xs")),
    "cube_class_value": FactKind(lambda f: "value falls in the recorded cube class",
                                 _check_cube_class_value, ("field", "poly", "at", "delta", "z")),
    "form_value": FactKind(
        lambda f: f"form value {f['equals']} at {tuple(str(t) for t in f['at'])}",
        _check_form_value, ("at", "equals"), curves=("superelliptic_form",)),
    "involution": FactKind(
        lambda f: f"f(({f['sub'][0]})x+({f['sub'][1]})y, ...) = {f['factor']} f",
        _check_involution, ("sub", "factor"), ("solution_pairs",), curves=("superelliptic_form",)),
    "mod4_progression": FactKind(lambda f: "square-cube-cube-square pattern dies mod 4",
                                 lambda case, f: (mod4_progression_impossible(),
                                                  "residue enumeration empty"), ()),
    "descent_s1": FactKind(lambda f: "descent scale s = 1 on progression-compatible pairs",
                           _check_descent_s1, ("scan",)),
    "unchecked_claim": FactKind(lambda f: f["text"], None, ("text",)),
}


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
        kind = FACT_KINDS[fact["kind"]]
        if kind.check is None:
            results.append(CheckResult(rid, "unchecked-claim", kind.expected(fact), "not tested"))
            continue
        fact = {key: overrides.get(key, value) for key, value in fact.items()}
        results.append(timed_check(rid, kind.expected(fact), lambda: kind.check(case, fact)))
    return results

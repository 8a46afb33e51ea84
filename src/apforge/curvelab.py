"""Curve-level verification: derivations, point counts, Jacobian orders,
rational point search, local solvability, and genus classification.

Genus-2 curves are y^2 = f(x) with rational coefficients and squarefree f
of degree 5 or 6.  Finite-field work happens on the denominator-cleared
model (x, y) -> (x, v*y) with the smallest v making v^2*f integral, which
is a point-count-preserving change of model away from p | v.

Counting conventions for the smooth projective model:
  deg f = 6: two points at infinity when lc(f) is a square in F_q, else none
  deg f = 5: exactly one point at infinity
The Jacobian order over F_p comes from the L-polynomial evaluated at 1,
with coefficients fixed by the point counts over F_p and F_{p^2}.

Point counts are numpy kernels over all x at once, in blocks of _BLOCK
elements so that memory does not grow with q.  Over F_{p^2} = F_p[t]/(t^2 -
nu) a nonzero value is a square iff its norm is a square in F_p, so one
p-entry table of squares serves both fields.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .exactmath import (BinaryForm, UniPoly, form_eval, int_kth_root,
                        poly_divmod, primes_upto, uni_resultant)
from .numfield import (FieldElem, NumberField, Undecided, field_by_name,
                       nf_is_s_unit, nf_is_square)
from .sieve import CRT_FACTORS, form_square_tables


class BadReduction(Exception):
    """The prime divides the discriminant or leading data of the model."""


class DerivationMismatch(Exception):
    """A symbolic derivation failed to reproduce the recorded polynomial."""


class NoRepresentation(Exception):
    """Descent-step hypothesis does not hold for the given pair."""


@dataclass(frozen=True)
class HyperCurve:
    """y^2 = f(x), deg f in {5, 6}, f squarefree; genus 2."""

    label: str
    f: UniPoly

    def __post_init__(self):
        if self.f.degree not in (5, 6):
            raise ValueError("hyperelliptic model needs degree 5 or 6")
        if not _disc(self.f.coeffs):
            raise ValueError("f must be squarefree")

    def integral_model(self):
        """(coeffs ascending as ints padded to degree 6, scale v) with
        v^2 * f integral and v minimal."""
        return _integral_model_any(self.f)


@dataclass(frozen=True)
class EllipticModel:
    """Y^2 = rhs(X) with rhs a cubic over Q or a corpus number field."""

    label: str
    rhs: UniPoly
    field: Optional[NumberField] = None

    def __post_init__(self):
        if self.rhs.degree != 3:
            raise ValueError("elliptic model needs a cubic right-hand side")
        if not uni_resultant(self.rhs, self.rhs.derivative()):
            raise ValueError("discriminant vanishes")


@dataclass(frozen=True)
class SuperellipticForm:
    """Binary sextic f(x, y) tied to the relation f = mult * z^power."""

    label: str
    form: BinaryForm
    z_mult: int
    z_power: int


@lru_cache(maxsize=None)
def _disc(coeffs) -> Fraction:
    """Res(f, f') for f with these ascending rational coefficients (trailing
    zeros ignored): zero iff f has a repeated root, an integer for integer f.
    Cached because every fact rebuilds its curve."""
    poly = UniPoly(coeffs)
    return uni_resultant(poly, poly.derivative())


def _good_reduction_data(curve: HyperCurve, p: int):
    coeffs, v = curve.integral_model()
    deg = curve.f.degree
    disc = _disc(coeffs)
    if p < 3:
        raise BadReduction("odd primes only")
    if v % p == 0 or coeffs[deg] % p == 0 or disc % p == 0:
        raise BadReduction(f"bad reduction of {curve.label} at {p}")
    return coeffs, deg


def count_points(curve: HyperCurve, q: int) -> int:
    """Points on the smooth projective model over F_q, q = p or p^2, p odd."""
    p, e = _prime_power(q)
    if p ** (e + 1) >= 2**62:
        raise ValueError("the int64 kernels need p^(e+1) < 2^62")
    coeffs, deg = _good_reduction_data(curve, p)
    return _count_fq(coeffs, deg, p, e)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_power(q: int):
    if _is_prime(q):
        return q, 1
    r = math.isqrt(q)
    if r * r == q and _is_prime(r):
        return r, 2
    raise ValueError("q must be a prime or the square of a prime")


_BLOCK = 1 << 16


def _count_fq(coeffs, deg: int, p: int, e: int) -> int:
    """Points over F_q, q = p^e, e in {1, 2}: affine ones plus those at
    infinity.  F_{p^2} is F_p[t]/(t^2 - nu) with nu a non-residue, and F_p
    is its b = 0 part.

    Each block of x = a + b t (flat index a p^(e-1) + b) is evaluated by
    Horner on int64 coordinate arrays; every product stays below
    p^(e+1) < 2^62 (checked in count_points).  A nonzero z is a square in
    F_q iff its norm to F_p (z itself for e = 1, a^2 - nu b^2 for e = 2) is
    a square in F_p, because z^((q-1)/2) = N(z)^((p-1)/2); N(z) = 0 iff
    z = 0.
    """
    sq = np.zeros(p, dtype=bool)  # True at the nonzero squares of F_p
    sq[np.arange(1, p, dtype=np.int64) ** 2 % p] = True
    nu = next(n for n in range(2, p) if not sq[n])
    count = 0
    for start in range(0, p**e, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, p**e), dtype=np.int64)
        xa, xb = np.divmod(idx, p ** (e - 1))
        va, vb = np.zeros_like(xa), np.zeros_like(xa)
        for c in reversed(coeffs[: deg + 1]):
            va, vb = (va * xa + nu * vb * xb + c % p) % p, (va * xb + vb * xa) % p
        norm = va if e == 1 else (va * va - nu * vb * vb) % p
        count += int(np.count_nonzero(norm == 0) + 2 * np.count_nonzero(sq[norm]))
    if deg == 5:
        return count + 1
    # N(lc) = lc^e; for e = 2 it is always a square, and the test says so.
    return count + (2 if sq[coeffs[deg] ** e % p] else 0)


def l_poly_coeffs(curve: HyperCurve, p: int):
    """(c1, c2) with L(T) = 1 + c1 T + c2 T^2 + p c1 T^3 + p^2 T^4."""
    n1 = count_points(curve, p)
    n2 = count_points(curve, p * p)
    c1 = n1 - (p + 1)
    num = n2 - p * p - 1 + c1 * c1
    if num % 2 != 0:
        raise AssertionError("parity violation in L-polynomial data")
    return c1, num // 2


def jacobian_order(curve: HyperCurve, p: int) -> int:
    """#J(F_p) for the genus-2 Jacobian: the L-polynomial at 1."""
    c1, c2 = l_poly_coeffs(curve, p)
    return 1 + c1 + c2 + p * c1 + p * p


def torsion_gcd_bound(curve: HyperCurve, primes: Sequence[int]) -> int:
    """gcd of Jacobian orders: a multiple of the rational torsion order."""
    if not primes:
        raise ValueError("need at least one prime")
    g = 0
    for p in primes:
        g = math.gcd(g, jacobian_order(curve, p))
    return g


# ---------------------------------------------------------------------------
# Rational point search


_EXTRA_PRIMES = (17, 19, 23, 29, 31, 37)


def _homogeneous_square_hits(coeffs6, height: int):
    """(r, s, value) with value = sum coeffs6[i] r^i s^(6-i) a perfect square,
    s in [1, height], r in [-height, height].  Sound modular pre-filter,
    exact big-integer confirmation."""
    moduli = CRT_FACTORS + _EXTRA_PRIMES
    tables = form_square_tables(coeffs6, moduli)
    asc = [int(c) for c in coeffs6]
    r_all = np.arange(-height, height + 1, dtype=np.int64)
    r_mod = {m: r_all % m for m in moduli}
    hits = []
    for s in range(1, height + 1):
        # Stage 1: two cheapest moduli over the full row.
        mask = None
        for m in moduli[:2]:
            t = tables[m][s % m][r_mod[m]]
            mask = t if mask is None else (mask & t)
        idx = np.nonzero(mask)[0]
        if len(idx) == 0:
            continue
        # Stage 2: remaining moduli on survivors only.
        for m in moduli[2:]:
            idx = idx[tables[m][s % m][r_mod[m][idx]]]
            if len(idx) == 0:
                break
        for i in idx:
            r = int(r_all[i])
            val = sum(asc[k] * r**k * s ** (6 - k) for k in range(7))
            if val < 0:
                continue
            w = math.isqrt(val)
            if w * w == val:
                hits.append((r, s, val, w))
    return hits


def rational_points_search(curve, height: int):
    """All affine rational points (X, Y) of height up to the bound, plus the
    number of rational points at infinity.

    Returns (sorted list of (Fraction, Fraction), infinity_count).  Accepts
    HyperCurve (deg 5/6) and EllipticModel over Q (deg 3).
    """
    if height < 1:
        raise ValueError("height must be positive")
    if isinstance(curve, EllipticModel):
        if curve.field is not None:
            raise ValueError("point search runs over Q only")
        f = curve.rhs
        infinity = 1
    else:
        f = curve.f
        if f.degree == 5:
            infinity = 1
        else:
            infinity = 2 if _rat_is_square(f.lead()) else 0
    coeffs, v = _integral_model_any(f)
    points = {}
    for r, s, _val, w in _homogeneous_square_hits(coeffs, height):
        x = Fraction(r, s)
        y = Fraction(w, v * s**3)
        if y * y != f.eval(x):
            raise AssertionError("scaled-model bookkeeping is broken")
        points[(x, y)] = True
        points[(x, -y)] = True
    return sorted(points), infinity


def _integral_model_any(f: UniPoly):
    v = 1
    while True:
        scaled = [c * v * v for c in f.coeffs]
        if all(s.denominator == 1 for s in scaled):
            break
        v += 1
    coeffs = [int(c) for c in scaled] + [0] * (6 - f.degree)
    return tuple(coeffs), v


def _rat_is_square(q: Fraction) -> bool:
    return (q >= 0 and int_kth_root(q.numerator, 2) is not None
            and int_kth_root(q.denominator, 2) is not None)


# ---------------------------------------------------------------------------
# Local solvability


def locally_solvable(curve, p: int) -> bool:
    """True iff y^2 = f(x) has a Q_p point (affine charts and infinity)."""
    f = curve.rhs if isinstance(curve, EllipticModel) else curve.f
    if isinstance(curve, EllipticModel) or f.degree == 5:
        return True  # a rational point at infinity always exists
    if _rat_is_square(f.lead()):
        return True  # rational points at infinity
    coeffs, _v = _integral_model_any(f)
    g = [int(c) for c in coeffs]
    content = 0
    for c in g:
        content = math.gcd(content, c)
    g = [c // content for c in g]
    c0 = _squarefree_part(content)
    disc = int(_disc(tuple(g)))
    depth = 2 * _valuation(disc, p) + 3
    if _zp_solvable(g, p, c0, depth):
        return True
    rev = list(reversed(g))
    return _zp_branch(rev, p, c0, 0, depth)


def locally_solvable_real(curve) -> bool:
    """True iff the curve has a real point."""
    f = curve.rhs if isinstance(curve, EllipticModel) else curve.f
    if isinstance(curve, EllipticModel) or f.degree % 2 == 1:
        return True
    if f.lead() > 0:
        return True
    if f.eval(Fraction(0)) >= 0:
        return True
    return _sturm_real_root_count(f) > 0


def _valuation(n: int, p: int) -> int:
    if n == 0:
        return 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _squarefree_part(n: int) -> int:
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = sign
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2 == 1:
            out *= d
        d += 1
    return out * n


def _is_square_in_qp(v: int, p: int) -> bool:
    if v == 0:
        return True
    w = _valuation(v, p)
    if w % 2 == 1:
        return False
    u = v // p**w
    if p == 2:
        return u % 8 == 1
    return pow(u % p, (p - 1) // 2, p) == 1


def _zp_solvable(g, p: int, c: int, depth: int) -> bool:
    """Does y^2 = c*g(x) have a point with x in Z_p?  g integral, primitive."""
    if depth < 0:
        raise Undecided(f"local solvability lifting budget exhausted at {p}")
    span = 8 if p == 2 else p
    for x in range(span):
        if _is_square_in_qp(c * _int_eval(g, x), p):
            return True
    for z in range(p):
        if _int_eval(g, z) % p == 0:
            if _zp_branch(g, p, c, z, depth - 1):
                return True
    return False


def _zp_branch(g, p: int, c: int, z: int, depth: int) -> bool:
    """Restrict to x = z + p*t and recurse on t in Z_p."""
    if depth < 0:
        raise Undecided(f"local solvability lifting budget exhausted at {p}")
    g1 = _shift_scale(g, z, p)
    content = 0
    for cc in g1:
        content = math.gcd(content, cc)
    if content == 0:
        return True  # identically zero: y = 0 works
    g1 = [cc // content for cc in g1]
    c1 = _squarefree_part(c * content)
    return _zp_solvable(g1, p, c1, depth)


def _int_eval(g, x: int) -> int:
    acc = 0
    for c in reversed(g):
        acc = acc * x + c
    return acc


def _shift_scale(g, z: int, p: int):
    """Coefficients of g(z + p*t) as a polynomial in t."""
    n = len(g) - 1
    out = [0] * (n + 1)
    for k, c in enumerate(g):
        if c == 0:
            continue
        # c * (z + p t)^k
        term = c
        binom = 1
        for j in range(k + 1):
            out[j] += term * binom * z ** (k - j) * p**j
            binom = binom * (k - j) // (j + 1)
    return out


def _sturm_real_root_count(f: UniPoly) -> int:
    chain = [f, f.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        _q, r = poly_divmod(chain[-2], chain[-1])
        if r.is_zero:
            break
        chain.append(-r)

    def signs_at_inf(sign):
        out = []
        for poly in chain:
            if poly.is_zero:
                continue
            lc = poly.lead()
            s = lc if sign > 0 else lc * (-1) ** poly.degree
            out.append(1 if s > 0 else -1 if s < 0 else 0)
        return out

    def variations(seq):
        seq = [s for s in seq if s != 0]
        return sum(1 for a, b in zip(seq, seq[1:]) if a != b)

    return variations(signs_at_inf(-1)) - variations(signs_at_inf(1))


# ---------------------------------------------------------------------------
# Genus classification


@dataclass(frozen=True)
class GenusZero:
    """chi > 1: genus-0 cover; the degree 2/chi is kept as an exact rational
    (it need not be an integer, e.g. (2,2,2) gives 4/3)."""

    cover_degree: Fraction


GENUS_ONE = "GenusOne"
GENUS_GT1 = "GenusGT1"


def chi_classify(r: int, s: int, t: int):
    """Trichotomy on chi = 1/r + 1/s + 1/t for three-term towers."""
    if min(r, s, t) < 2:
        raise ValueError("exponents must be at least 2")
    chi = Fraction(1, r) + Fraction(1, s) + Fraction(1, t)
    if chi > 1:
        return GenusZero(cover_degree=2 / chi)
    if chi == 1:
        return GENUS_ONE
    return GENUS_GT1


ALL_GENUS_LE1_POSSIBLE = "AllGenusLE1Possible"
GENUS_AT_LEAST_2 = "GenusAtLeast2"


def rh_genus_bound(k: int, lvec: Sequence[int]) -> str:
    """Ramification bookkeeping for the fibre-product covers.

    k = 4, 5: the cover genus satisfies 2g - 2 >= d*(k - 2 - sum 1/l_i), so a
    positive deficiency forces genus >= 2.  k = 3 uses the chi trichotomy.
    """
    if k not in (3, 4, 5):
        raise ValueError("k must be 3, 4, or 5")
    if len(lvec) != k or any(l < 2 for l in lvec):
        raise ValueError("bad exponent vector")
    if k == 3:
        chi = sum((Fraction(1, l) for l in lvec), Fraction(0))
        return GENUS_AT_LEAST_2 if chi < 1 else ALL_GENUS_LE1_POSSIBLE
    deficiency = Fraction(k - 2) - sum((Fraction(1, l) for l in lvec), Fraction(0))
    return GENUS_AT_LEAST_2 if deficiency > 0 else ALL_GENUS_LE1_POSSIBLE


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


# ---------------------------------------------------------------------------
# Case corpus execution: derivations and typed fact checks


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


def _nf_elem(field: NumberField, coords) -> FieldElem:
    return FieldElem(field, [Fraction(c) for c in coords])


def _nf_poly(field: NumberField, rows) -> UniPoly:
    return UniPoly([_nf_elem(field, r) for r in rows])


def _nf_form(field: NumberField, rows) -> BinaryForm:
    return BinaryForm([_nf_elem(field, r) for r in rows])


def build_curve(case):
    """Instantiate the case's recorded target curve (no derivation)."""
    rec = case.curve
    kind = rec["kind"]
    if kind == "genus2":
        return HyperCurve(rec["label"], UniPoly([Fraction(c) for c in rec["rhs"]]))
    if kind == "elliptic":
        return EllipticModel(rec["label"], UniPoly([Fraction(c) for c in rec["rhs"]]))
    if kind == "superelliptic_form":
        return SuperellipticForm(
            rec["label"],
            BinaryForm([Fraction(c) for c in rec["form"]]),
            z_mult=int(rec["z_mult"]),
            z_power=int(rec["z_power"]),
        )
    raise ValueError(f"unknown curve kind {kind!r}")


def derive_case(case):
    """Execute the case's symbolic derivation and return the target curve.

    Raises DerivationMismatch (with a coefficient diff) whenever an
    intermediate or the final model differs from the recorded polynomials.
    """
    rec = case.derivation
    recipe = rec["recipe"]
    br = case.derivation_branch
    if recipe == "square_combo":
        combo = (br.a_form.pow(2) * Fraction(rec["coef_a"])
                 + br.b_form.pow(2) * Fraction(rec["coef_b"]))
        sextic = combo * (Fraction(1) / Fraction(rec["divisor"]))
    elif recipe == "cube_pair_product":
        p, q = (Fraction(t) for t in rec["factor1"])
        r, s = (Fraction(t) for t in rec["factor2"])
        f1 = BinaryForm([p, 0, 0, q])
        f2 = BinaryForm([r, 0, 0, s])
        sextic = f1 * f2
        ymult = Fraction(rec["y_mult"])
        if form_eval(sextic, 1, 1) != ymult * ymult:
            raise DerivationMismatch(
                f"{case.id}: trivial-progression consistency fails for y_mult {ymult}")
    elif recipe == "eq7_combo":
        core = (br.a_form + br.b_form) * 2
        sextic = core.pow(3) * 3 - br.b_form.pow(3) * 64
    else:
        raise ValueError(f"unknown recipe {recipe!r}")
    expected_key = "expected_form" if "expected_form" in rec else "expected_sextic"
    expected = BinaryForm([Fraction(c) for c in rec[expected_key]])
    if sextic != expected:
        raise DerivationMismatch(_coeff_diff(case.id, sextic, expected))
    target = build_curve(case)
    if isinstance(target, SuperellipticForm):
        if sextic != target.form:
            raise DerivationMismatch(_coeff_diff(case.id, sextic, target.form))
        return target
    mapped = _dehomogenize(case.id, sextic, rec["map"], Fraction(rec["curve_divisor"]))
    recorded = target.rhs if isinstance(target, EllipticModel) else target.f
    if mapped != recorded:
        raise DerivationMismatch(
            f"{case.id}: mapped curve {list(mapped.coeffs)} differs from "
            f"recorded {list(recorded.coeffs)}")
    return target


def _coeff_diff(cid: str, got, want) -> str:
    return (f"{cid}: derived coefficients {[str(c) for c in got.coeffs]} != "
            f"recorded {[str(c) for c in want.coeffs]}")


def _dehomogenize(cid: str, sextic: BinaryForm, mode: str, divisor: Fraction) -> UniPoly:
    cs = list(sextic.coeffs)  # index j holds x^(6-j) y^j
    if mode == "x_over_y":
        asc = list(reversed(cs))
    elif mode == "even_powers":
        if any(cs[j] for j in range(1, 7, 2)):
            raise DerivationMismatch(f"{cid}: odd powers present, even-power map invalid")
        asc = [cs[0], cs[2], cs[4], cs[6]]
    else:
        raise ValueError(f"unknown dehomogenization {mode!r}")
    return UniPoly([c / divisor for c in asc])


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


def _fact_id(case_id: str, index: int, fact: dict) -> str:
    return f"{case_id}:{fact['kind']}:{index}"


def run_case(case, height: Optional[int] = None,
             local_primes: Optional[int] = None) -> list:
    """Derivation plus every recorded fact, as CheckResult records."""

    def run_derivation():
        try:
            derive_case(case)
            return True, "exact match"
        except DerivationMismatch as exc:
            return False, str(exc)

    results = [timed_check(f"{case.id}:derivation", "recorded polynomials",
                           run_derivation)]
    for idx, fact in enumerate(case.facts):
        kind = fact["kind"]
        rid = _fact_id(case.id, idx, fact)
        if kind == "unchecked_claim":
            results.append(CheckResult(rid, "unchecked-claim", fact["text"], "not tested"))
            continue
        expected, fn = _FACT_RUNNERS[kind](case, fact, height, local_primes)
        results.append(timed_check(rid, expected, fn))
    return results


def _runner_jacobian_order(case, fact, height, local_primes):
    expected = int(fact["value"])

    def fn():
        actual = jacobian_order(build_curve(case), fact["p"])
        return actual == expected, actual

    return f"#J(F_{fact['p']}) = {expected}", fn


def _runner_torsion_gcd(case, fact, height, local_primes):
    expected = int(fact["value"])

    def fn():
        actual = torsion_gcd_bound(build_curve(case), fact["primes"])
        ok = actual == expected
        if "divisible_by" in fact:
            ok = ok and actual % int(fact["divisible_by"]) == 0
        return ok, actual

    return f"gcd of orders = {expected}", fn


def _runner_rational_points(case, fact, height, local_primes):
    bound = fact["height"] if height is None else height
    want = sorted((Fraction(x), Fraction(y)) for x, y in fact["affine"])
    want_inf = fact["infinity"]

    def fn():
        pts, inf = rational_points_search(build_curve(case), bound)
        return (pts == want and inf == want_inf,
                f"affine {[(str(x), str(y)) for x, y in pts]}, infinity {inf}")

    return (f"affine {[(x, y) for x, y in fact['affine']]}, "
            f"infinity {want_inf} at height {bound}"), fn


def _runner_local_solvability(case, fact, height, local_primes):
    upto = fact["primes_upto"] if local_primes is None else local_primes

    def fn():
        curve = build_curve(case)
        bad = [p for p in primes_upto(upto) if not locally_solvable(curve, p)]
        real_ok = locally_solvable_real(curve) == fact["real"]
        return (not bad) == fact["expect"] and real_ok, f"non-solvable at {bad}" if bad else "solvable everywhere"

    return f"Q_p points for all p <= {upto} and real points", fn


def _runner_factorization(case, fact, height, local_primes):
    field = field_by_name(fact["field"])

    def fn():
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

    # The S-unit test runs on the rational norm, which is weaker than a
    # place-by-place valuation check; flagged here so reports say so.
    return "factorization and resultant class (norm-level S-unit test)", fn


def _runner_value_identity(case, fact, height, local_primes):
    field = field_by_name(fact["field"])

    def fn():
        poly = _nf_poly(field, fact["poly"])
        at = field.rational(Fraction(fact["at"][0]))
        want = _nf_elem(field, fact["equals"])
        got = poly.eval(at)
        return got == want, repr(got)

    return "value identity over the field", fn


def _runner_value_square(case, fact, height, local_primes):
    field = field_by_name(fact["field"])

    def fn():
        poly = _nf_poly(field, fact["poly"])
        at = field.rational(Fraction(fact["at"][0]))
        root = _nf_elem(field, fact["root"])
        got = poly.eval(at)
        return got == root * root, repr(got)

    return "value equals the recorded square", fn


def _runner_ec_point(case, fact, height, local_primes):
    field = field_by_name(fact["field"])

    def fn():
        model = EllipticModel(f"{case.id}:ec", _nf_poly(field, fact["rhs"]), field)
        x = _nf_elem(field, fact["x"])
        y = _nf_elem(field, fact["y"]) if fact.get("y") is not None else None
        return ec_point_check(model, x, y), "on curve"

    return "point satisfies the Weierstrass equation", fn


def _runner_ec_two_torsion(case, fact, height, local_primes):
    field = field_by_name(fact["field"])

    def fn():
        rhs = _nf_poly(field, fact["rhs"])
        bad = [coords for coords in fact["xs"]
               if rhs.eval(_nf_elem(field, coords))]
        return not bad, f"{len(fact['xs']) - len(bad)} of {len(fact['xs'])} vanish"

    return "rhs vanishes at every 2-torsion abscissa", fn


def _runner_ec_square_x(case, fact, height, local_primes):
    field = field_by_name(fact["field"])

    def fn():
        rhs = _nf_poly(field, fact["rhs"])
        found = 0
        for coords in fact["xs"]:
            val = rhs.eval(_nf_elem(field, coords))
            root = nf_is_square(val)
            if root is None or root * root != val:
                return False, f"non-square rhs at {coords}"
            found += 1
        return True, f"{found} abscissae lift to points"

    return "rhs is a square at every listed abscissa", fn


def _runner_cube_class_value(case, fact, height, local_primes):
    field = field_by_name(fact["field"])

    def fn():
        poly = _nf_form(field, fact["poly"])
        x, y = (Fraction(t) for t in fact["at"])
        got = form_eval(poly, field.rational(x), field.rational(y))
        delta = _nf_elem(field, fact["delta"])
        z = _nf_elem(field, fact["z"])
        return got == delta * z**3, repr(got)

    return "value falls in the recorded cube class", fn


def _runner_form_value(case, fact, height, local_primes):
    def fn():
        form = build_curve(case).form
        x, y = (Fraction(t) for t in fact["at"])
        got = form_eval(form, x, y)
        return got == Fraction(fact["equals"]), str(got)

    return f"form value {fact['equals']} at {tuple(fact['at'])}", fn


def _runner_involution(case, fact, height, local_primes):
    def fn():
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

    return f"f(({fact['sub'][0]})x+({fact['sub'][1]})y, ...) = {fact['factor']} f", fn


def _runner_mod4_progression(case, fact, height, local_primes):
    def fn():
        return mod4_progression_impossible(), "residue enumeration empty"

    return "square-cube-cube-square pattern dies mod 4", fn


def _runner_descent_s1(case, fact, height, local_primes):
    def fn():
        pairs = descent_sample_pairs(fact["scan"])
        if not pairs:
            return False, "no sample pairs found"
        for x1, x3 in pairs:
            s, _u, _v = eq7_descent_step(x1, x3)
            if s != 1:
                return False, f"s = {s} at {(x1, x3)}"
        return True, f"s = 1 for all {len(pairs)} progression-compatible pairs"

    return "descent scale s = 1 on progression-compatible pairs", fn


_FACT_RUNNERS = {
    "jacobian_order": _runner_jacobian_order,
    "torsion_gcd": _runner_torsion_gcd,
    "rational_points": _runner_rational_points,
    "local_solvability": _runner_local_solvability,
    "factorization": _runner_factorization,
    "value_identity": _runner_value_identity,
    "value_square": _runner_value_square,
    "ec_point": _runner_ec_point,
    "ec_two_torsion": _runner_ec_two_torsion,
    "ec_square_x": _runner_ec_square_x,
    "cube_class_value": _runner_cube_class_value,
    "form_value": _runner_form_value,
    "involution": _runner_involution,
    "mod4_progression": _runner_mod4_progression,
    "descent_s1": _runner_descent_s1,
}


FACT_KINDS = frozenset(_FACT_RUNNERS) | {"unchecked_claim"}


def factorization_check(case) -> bool:
    """Run the case's factorization facts; True iff all pass."""
    results = []
    for idx, fact in enumerate(case.facts):
        if fact["kind"] != "factorization":
            continue
        expected, fn = _runner_factorization(case, fact, None, None)
        ok, _detail = fn()
        results.append(ok)
    if not results:
        raise ValueError(f"case {case.id} records no factorization facts")
    return all(results)

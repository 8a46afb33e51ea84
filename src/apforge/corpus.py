"""Corpus loading: parametrization families and per-case verification data.

The corpus is a JSON file (bundled copy under ``apforge/data/corpus.json``,
overridden by APFORGE_CORPUS or an explicit path; its sha256 is stamped into
reports).  Only this module knows how the file writes values: `_TYPES` lists
every key a record may hold, with the parser that turns its value, once, at
load, into the type and shape the key needs.  Exact numbers are decimal
strings parsed to Fraction: one (``divisor``, ``curve_divisor`` and
``rhs_mult`` nonzero), a non-empty list (a curve's ``rhs``), two, or (x, y)
pairs (``affine``); ``value`` is an integer string, parsed to int; counts and
bounds are JSON ints >= 1 (``primes_upto`` >= 2, ``branch`` and ``infinity``
>= 0); ``p`` is an odd prime with p^3 < `sieve.INT64_SAFE`, ``primes`` a
non-empty list of such and ``s_unit`` one of any primes under the same
bound; ``expect`` and ``real`` are booleans; ``shape`` is ``unipoly`` (or,
in a factorization, ``form``); names and prose stay strings; a family's
``branches``, a list, become Branch records.  A fact's ``field`` becomes its
NumberField; there a field element is written as its coordinates in the power
basis, and the keys in `_IN_FIELD` hold FieldElems (or lists of them).  The
file is an object whose ``families`` and ``cases`` are lists of objects, as
are a case's ``facts``; no two families or cases share an id.  A wrong type or
shape, an unknown name, a repeated id, or a missing or undeclared key (of the
file, a family, a case or one of its records) is a ValueError naming the case
or family (by index, as ``cases[3]``, when it has no id), the key and the
value; so is a curve its constructor refuses, or a fact whose check reads
another kind of curve than the case's or reduces it at a prime of bad
reduction (its kind's `curvelab.FACT_KINDS` row says which).  This module
builds every curve model, one y^2 = f(x) class of genus 1 or 2 (HyperCurve)
but a superelliptic form: each case's curve once, from its kind's row of
`_CURVES` (``genus2`` of degree 5 or 6, ``elliptic`` a cubic), and that of
each ec_* fact's ``rhs``, a squarefree cubic.
Case derivations resolve to branches of the same file's families: one corpus
feeds a run.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from typing import NamedTuple, Optional

from .curvelab import FACT_KINDS, MAPS, RECIPES, RESULTANT_CLAIMS
from .curves import BadReduction, HyperCurve, SuperellipticForm, good_reduction_data
from .exactmath import BinaryForm, UniPoly, is_prime
from .numfield import FIELDS, FieldElem, field_by_name
from .parametrize import Branch, ParamFamily
from .sieve import INT64_SAFE

ENV_VAR = "APFORGE_CORPUS"


class CaseRecord(NamedTuple):
    """One exponent case: derivation recipe, recorded curve, typed facts."""

    id: str
    exponent_vector: tuple
    partner_vector: Optional[tuple]
    derivation: dict
    derivation_branch: Optional[Branch]  # the family branch it reads, if its recipe names one
    curve: object  # the HyperCurve or SuperellipticForm, built at load
    facts: tuple

    def matches(self, selector: str) -> bool:
        vec = "".join(str(l) for l in self.exponent_vector)
        partner = ("".join(str(l) for l in self.partner_vector)
                   if self.partner_vector else "")
        return bool(selector) and (selector in (self.id, vec, partner)
                                   or self.id.startswith(selector))


class Corpus(NamedTuple):
    version: str
    sha256: str
    families: tuple
    cases: tuple


def corpus_path(path: Optional[str] = None) -> str:
    if path:
        return path
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    # The bundled copy ships as package data beside this module.
    return os.path.join(os.path.dirname(__file__), "data", "corpus.json")


def load_corpus(path: Optional[str] = None) -> Corpus:
    with open(corpus_path(path), "rb") as fh:
        raw = fh.read()
    data = json.loads(raw.decode("utf-8"))
    if type(data) is not dict:
        raise ValueError(f"the corpus is a JSON {type(data).__name__}, not an object")
    _check_keys("the corpus", data, ("version", "families", "cases"))
    families = tuple(_parse_family(f, n) for n, f in enumerate(_objects(data, "families")))
    by_id = _by_id(families, "family")
    cases = tuple(_parse_case(c, n, by_id) for n, c in enumerate(_objects(data, "cases")))
    _by_id(cases, "case")
    return Corpus(
        version=_record("corpus", {"version": data["version"]})["version"],
        sha256=hashlib.sha256(raw).hexdigest(),
        families=families,
        cases=cases,
    )


def _object(value, where: str) -> dict:
    if type(value) is not dict:
        raise ValueError(f"{where} holds {value!r}, not an object")
    return value


def _objects(rec: dict, key: str) -> list:
    """rec[key], a list of JSON objects; a ValueError names the first that is not."""
    rows = rec[key]
    if type(rows) is not list:
        raise ValueError(f"key {key!r} holds {rows!r}, not a list")
    return [_object(row, f"{key}[{i}]") for i, row in enumerate(rows)]


def _check_keys(what: str, rec: dict, required, optional=()) -> None:
    """A ValueError naming what when rec lacks a required key or has one
    that is neither required nor optional."""
    for key in required:
        if key not in rec:
            raise ValueError(f"{what} lacks required key {key!r}")
    for key in rec:
        if key not in required and key not in optional:
            raise ValueError(f"{what} has undeclared key {key!r}")


def _name(rec: dict, what: str, key: str, n: int) -> str:
    """How messages name record n of list key: what and its id, else key[n]."""
    return f"{what} {rec['id']}" if "id" in rec else f"{key}[{n}]"


def _by_id(records, what: str) -> dict:
    """The records keyed by id; a repeated id is a ValueError naming it."""
    out = {}
    for rec in records:
        if out.setdefault(rec.id, rec) is not rec:
            raise ValueError(f"{what} {rec.id} is given twice")
    return out


class _Wrong(ValueError):
    """A JSON value (args[0]) that is not what its key holds (args[1])."""


def _is(ok, need, parse=lambda value, fact: value):
    """A parser of (value, fact=None): parse(value, fact) of a value with ok(value)."""
    def check(value, fact=None):
        if not ok(value):
            raise _Wrong(value, need)
        return parse(value, fact)
    return check


def _number(value, fact=None):
    """A decimal string, or nested lists of them, parsed to Fraction (fact unused)."""
    if isinstance(value, list):
        return [_number(v) for v in value]
    try:
        if type(value) is str:
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise _Wrong(value, "an exact number")


def _integer(text) -> int:
    q = _number(text)
    if type(q) is list or q.denominator != 1:
        raise _Wrong(text, "an integer")
    return int(q)


def _prime(n, low=2) -> bool:
    return type(n) is int and n >= low and is_prime(n)


def _countable(p) -> bool:
    """Whether an int p has p^3 < INT64_SAFE, as counts over F_{p^2} need;
    every prime the corpus names is bounded so."""
    return type(p) is not int or p**3 < INT64_SAFE


def _primes(low: int, need: str):
    """A parser of a non-empty list of primes >= low, each bounded before
    the primality test, which trial-divides up to sqrt(p)."""
    return _is(lambda v: type(v) is not list or all(map(_countable, v)),
               "a list of primes p with p^3 < 2^62",
               _is(lambda v: type(v) is list and v != [] and all(_prime(p, low) for p in v), need))


def _row(value) -> bool:
    """Whether value is a non-empty list of values, none of them a list."""
    return type(value) is list and value != [] and not any(type(v) is list for v in value)


def _flat(value, size: int) -> bool:
    """Whether value is a list of size values, none of them a list."""
    return _row(value) and len(value) == size


def _elements(depth: int):
    """A parser of (value, fact): elements of the fact's field, each a list of
    its coordinates, inside depth levels of lists."""
    def parse(value, fact):
        if depth and type(value) is list:
            return [_elements(depth - 1)(v, fact) for v in value]
        field = field_by_name(fact["field"])
        if not depth and _flat(value, field.degree):
            return FieldElem(field, _number(value))
        raise _Wrong(value, "a list" if depth else "one coordinate per degree of the field")
    return parse


def _y2(label: str, f: UniPoly, degrees: tuple, need: str, field=None) -> HyperCurve:
    """y^2 = f(x) for a curve kind that admits these degrees, else ValueError(need)."""
    if f.degree not in degrees:
        raise ValueError(need)
    return HyperCurve(label, f, field)


def _ec_model(value, fact) -> HyperCurve:
    rhs = UniPoly(_elements(1)(value, fact))
    try:
        return _y2(fact["kind"], rhs, (3,), "a cubic", field_by_name(fact["field"]))
    except ValueError:  # not a cubic, or one with a repeated root
        raise _Wrong(value, "a squarefree cubic") from None


def _branch(rec) -> Branch:
    if not isinstance(rec, dict) or sorted(rec) != ["a", "b", "c"]:
        raise _Wrong(rec, "a branch of forms a, b, c")
    return Branch(*(BinaryForm(_number(rec[k])) for k in "abc"))


def _claim(claim, fact) -> dict:
    if not isinstance(claim, dict) or len(claim) != 1 or not set(claim) <= set(RESULTANT_CLAIMS):
        raise ValueError(f"factorization resultant claim {claim!r} "
                         f"must name exactly one of {', '.join(RESULTANT_CLAIMS)}")
    return _record("factorization fact", claim, fact)


# key -> parser of its JSON value; every key a record may hold is listed
_TYPES = {
    **dict.fromkeys(("coef_a", "coef_b", "y_mult", "factor", "equals"),
                    _is(lambda v: type(v) is str, "an exact number", _number)),
    **dict.fromkeys(("divisor", "curve_divisor", "rhs_mult"),
                    _is(lambda v: type(v) is str and _number(v) != 0, "a nonzero exact number",
                        _number)),
    **dict.fromkeys(("rhs", "form", "expected_sextic", "expected_form", "product"),
                    _is(_row, "a non-empty list of exact numbers", _number)),
    **dict.fromkeys(("factor1", "factor2"), _is(lambda v: _flat(v, 2), "two exact numbers",
                                                _number)),
    "affine": _is(lambda v: type(v) is list and all(_flat(xy, 2) for xy in v),
                  "a list of (x, y) pairs", _number),
    **dict.fromkeys(("power", "z_mult", "z_power", "height", "divisible_by", "scan"),
                    _is(lambda v: type(v) is int and v >= 1, "a positive integer")),
    "primes_upto": _is(lambda v: type(v) is int and v >= 2, "an integer >= 2"),
    **dict.fromkeys(("branch", "infinity"),
                    _is(lambda v: type(v) is int and v >= 0, "a non-negative integer")),
    # the bound before the primality test, which trial-divides up to sqrt(p)
    "p": _is(_countable, "a prime p with p^3 < 2^62", _is(lambda v: _prime(v, 3), "an odd prime")),
    "primes": _primes(3, "a non-empty list of odd primes"),
    "s_unit": _primes(2, "a non-empty list of primes"),
    **dict.fromkeys(("expect", "real"), _is(lambda v: type(v) is bool, "a boolean")),
    **dict.fromkeys(("id", "version", "equation", "parity_rule", "kind", "label", "text",
                     "recipe", "map", "family", "description"),
                    _is(lambda v: type(v) is str, "a string")),
    "field": field_by_name,  # a name the loader has checked
    "value": _integer,
    "branches": _is(lambda v: type(v) is list, "a list of branches",
                    lambda rows, fact: tuple(map(_branch, rows))),
    "doubled_branch": _branch,
    **dict.fromkeys(("exponent_vector", "partner_vector"),
                    _is(lambda v: type(v) is list and v != []
                        and all(type(l) is int and l >= 2 for l in v),
                        "a non-empty list of integers >= 2")),
    # (fact kind, key) -> parser of (value, fact): values whose shape depends
    # on the fact's kind or field
    **dict.fromkeys((("form_value", "at"), ("cube_class_value", "at")),
                    _is(lambda v: _flat(v, 2), "two coordinates", _number)),
    **dict.fromkeys((("value_identity", "at"), ("value_square", "at")),
                    _is(lambda v: _flat(v, 1), "one coordinate", _number)),
    ("involution", "sub"): _is(lambda v: _flat(v, 4), "four numbers", _number),
    ("involution", "solution_pairs"): _is(
        lambda v: type(v) is list and all(type(pair) is list and len(pair) == 2
                                          and all(_flat(u, 2) for u in pair) for pair in v),
        "a list of pairs of 2-vectors", _number),
    ("factorization", "factors"): _is(lambda v: type(v) is list and len(v) >= 2,
                                      "at least two factors", _elements(2)),
    ("factorization", "resultant"): _claim,
    ("factorization", "shape"): _is(lambda v: v in ("unipoly", "form"), "'unipoly' or 'form'"),
    **dict.fromkeys((("value_identity", "shape"), ("value_square", "shape")),
                    _is(lambda v: v == "unipoly", "'unipoly'")),
    **dict.fromkeys((("ec_point", "rhs"), ("ec_two_torsion", "rhs"), ("ec_square_x", "rhs")),
                    _ec_model),
}

# key -> parser of (value, fact) of the field elements it holds in a fact with a field
_IN_FIELD = {**dict.fromkeys(("x", "y", "equals", "root", "delta", "z",
                              "equals_one_with_scale"), _elements(0)),
             **dict.fromkeys(("poly", "xs"), _elements(1))}


def _record(what: str, rec: dict, fact: Optional[dict] = None) -> dict:
    """rec with each value parsed to the type its key holds in fact (rec by default)."""
    fact = rec if fact is None else fact
    parsed = {}
    for key, value in rec.items():
        shaped = _TYPES.get((fact.get("kind"), key)) or ("field" in fact and _IN_FIELD.get(key))
        try:
            parsed[key] = shaped(value, fact) if shaped else _TYPES[key](value)
        except _Wrong as exc:
            raise ValueError(f"{what} key {key!r} holds {exc.args[0]!r}, "
                             f"not {exc.args[1]}") from None
    return parsed


# A family's keys are ParamFamily's fields, required unless they have a default.
_FAMILY_OPTIONAL = tuple(ParamFamily._field_defaults)
_FAMILY_REQUIRED = tuple(name for name in ParamFamily._fields if name not in _FAMILY_OPTIONAL)


def _parse_family(rec: dict, n: int) -> ParamFamily:
    name = _name(rec, "family", "families", n)
    _check_keys(name, rec, _FAMILY_REQUIRED, _FAMILY_OPTIONAL)
    return ParamFamily(**_record(f"{name}:", rec))


def _derivation_branch(deriv: dict, families: dict) -> Optional[Branch]:
    """The family branch a case's derivation reads: its branch (0 unless
    given) of its family, or none for a recipe that names no family."""
    if "family" not in deriv:
        return None
    fam = families.get(deriv["family"])
    if fam is None:
        raise ValueError(f"unknown family {deriv['family']!r}")
    index = deriv.get("branch", 0)
    if index >= len(fam.branches):
        raise ValueError(f"family {fam.id} has no branch {index!r}")
    return fam.branches[index]


# kind -> (curve record -> curve, required curve keys, required derivation keys);
# every kind but a superelliptic form is reached through a derivation map.
_CURVES = {
    "genus2": (lambda rec: _y2(rec["label"], UniPoly(rec["rhs"]), (5, 6),
                               "hyperelliptic model needs degree 5 or 6"),
               ("label", "rhs"), ("map",)),
    "elliptic": (lambda rec: _y2(rec["label"], UniPoly(rec["rhs"]), (3,),
                                 "elliptic model needs a cubic right-hand side"),
                 ("label", "rhs"), ("map",)),
    "superelliptic_form": (lambda rec: SuperellipticForm(
        rec["label"], BinaryForm(rec["form"]), z_mult=rec["z_mult"], z_power=rec["z_power"]),
        ("label", "form", "z_mult", "z_power"), ()),
}

def _curve(rec: dict, facts) -> object:
    """The curve of a parsed curve record, of a kind every fact's check
    reads, and checked at every prime one of the facts reduces it at; a
    ValueError names the fact and the kinds, or the key and prime."""
    try:
        curve = _CURVES[rec["kind"]][0](rec)
    except ValueError as exc:
        raise ValueError(f"curve: {exc}") from None
    rows = [(fact, FACT_KINDS[fact["kind"]]) for fact in facts]
    for fact, row in rows:
        if row.curves and rec["kind"] not in row.curves:
            raise ValueError(f"{fact['kind']} fact needs a {' or '.join(row.curves)} curve")
    for fact, key in ((fact, row.reduces_at) for fact, row in rows if row.reduces_at):
        for p in fact[key] if type(fact[key]) is list else [fact[key]]:
            try:
                good_reduction_data(curve, p)
            except BadReduction as exc:
                raise ValueError(f"{fact['kind']} fact key {key!r}: {exc}") from None
    return curve


def _parse_records(rec: dict) -> list:
    """The case's curve, derivation and facts, parsed once names and keys check."""
    curve, deriv = (_object(rec[key], f"key {key!r}") for key in ("curve", "derivation"))
    facts = _objects(rec, "facts") if "facts" in rec else []
    for what, record, key in [("curve", curve, "kind"), ("derivation", deriv, "recipe"),
                              *((f"facts[{n}]", fact, "kind") for n, fact in enumerate(facts))]:
        if key not in record:
            raise ValueError(f"{what} lacks required key {key!r}")
    names = [("curve kind", curve["kind"], _CURVES),
             ("derivation recipe", deriv["recipe"], RECIPES)]
    if "map" in deriv:
        names.append(("derivation map", deriv["map"], MAPS))
    for fact in facts:
        names.append(("fact kind", fact["kind"], FACT_KINDS))
        if "field" in fact:
            names.append(("fact field", fact["field"], FIELDS))
    for what, name, known in names:
        if not isinstance(name, str) or name not in known:
            raise ValueError(f"unknown {what} {name!r}")
    curve_keys, deriv_keys = _CURVES[curve["kind"]][1:]
    deriv_keys += RECIPES[deriv["recipe"]][1] + (MAPS[deriv["map"]][1] if "map" in deriv else ())
    records = [("curve", curve, curve_keys, ("kind",)),
               ("derivation", deriv, deriv_keys, ("recipe",))]
    records += [(f"{fact['kind']} fact", fact, FACT_KINDS[fact["kind"]].keys,
                 FACT_KINDS[fact["kind"]].optional + ("kind",)) for fact in facts]
    for what, record, keys, optional in records:
        _check_keys(what, record, keys, optional)
    return [_record(what, record) for what, record, _, _ in records]


def _parse_case(rec: dict, n: int, families: dict) -> CaseRecord:
    name = _name(rec, "case", "cases", n)
    _check_keys(name, rec, ("id", "exponent_vector", "curve", "derivation"),
                ("partner_vector", "description", "facts"))
    head = _record(f"{name}:", {"id": rec["id"], **{
        key: rec[key] for key in ("exponent_vector", "partner_vector", "description")
        if rec.get(key) is not None}})
    try:
        curve, deriv, *facts = _parse_records(rec)
        case = CaseRecord(
            id=head["id"],
            exponent_vector=tuple(head["exponent_vector"]),
            partner_vector=tuple(head["partner_vector"]) if "partner_vector" in head else None,
            derivation=deriv,
            derivation_branch=_derivation_branch(deriv, families),
            curve=_curve(curve, facts),
            facts=tuple(facts),
        )
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return case

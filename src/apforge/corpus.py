"""Corpus loading: parametrization families and per-case verification data.

The corpus is a JSON file (bundled copy under ``apforge/data/corpus.json``)
holding exact integers/rationals as decimal strings.  The path can be
overridden by the APFORGE_CORPUS environment variable or an explicit
argument; the active file's sha256 is stamped into reports.  Each case's
derivation is resolved at load to a branch of the same file's families, so
one loaded corpus is all a run reads.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

from .curvelab import CURVE_KINDS, FACT_KINDS, MAPS, RECIPES, RESULTANT_CLAIMS
from .exactmath import BinaryForm
from .numfield import FIELDS
from .parametrize import Branch, ParamFamily

ENV_VAR = "APFORGE_CORPUS"
# Keys whose strings are names or prose; every other string in a case's
# curve, derivation and facts is an exact number.
_NAME_KEYS = frozenset({"kind", "label", "text", "recipe", "map", "family", "field", "shape"})


@dataclass(frozen=True)
class CaseRecord:
    """One exponent case: derivation recipe, expected curve, typed facts."""

    id: str
    exponent_vector: tuple
    partner_vector: Optional[tuple]
    description: str
    derivation: dict
    derivation_branch: Optional[Branch]  # the family branch it reads; None for cube_pair_product
    curve: dict
    facts: tuple

    def matches(self, selector: str) -> bool:
        vec = "".join(str(l) for l in self.exponent_vector)
        partner = ("".join(str(l) for l in self.partner_vector)
                   if self.partner_vector else "")
        return selector in (self.id, vec, partner) or self.id.startswith(selector)


@dataclass(frozen=True)
class Corpus:
    version: str
    path: str
    sha256: str
    families: tuple
    cases: tuple


def corpus_path(path: Optional[str] = None) -> str:
    if path:
        return path
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    return str(resources.files("apforge").joinpath("data/corpus.json"))


def load_corpus(path: Optional[str] = None) -> Corpus:
    resolved = corpus_path(path)
    with open(resolved, "rb") as fh:
        raw = fh.read()
    data = json.loads(raw.decode("utf-8"))
    families = tuple(_parse_family(f) for f in data["families"])
    by_id = {f.id: f for f in families}
    return Corpus(
        version=data["version"],
        path=resolved,
        sha256=hashlib.sha256(raw).hexdigest(),
        families=families,
        cases=tuple(_parse_case(c, by_id) for c in data["cases"]),
    )


def _form(coeffs) -> BinaryForm:
    return BinaryForm([Fraction(c) for c in coeffs])


def _parse_family(rec: dict) -> ParamFamily:
    branches = tuple(
        Branch(a_form=_form(b["a"]), b_form=_form(b["b"]), c_form=_form(b["c"]))
        for b in rec["branches"]
    )
    doubled = rec.get("doubled_branch")
    return ParamFamily(
        id=rec["id"],
        equation=rec["equation"],
        coef_a=Fraction(rec["coef_a"]),
        coef_b=Fraction(rec["coef_b"]),
        rhs_mult=Fraction(rec["rhs_mult"]),
        power=rec["power"],
        branches=branches,
        parity_rule=rec.get("parity_rule"),
        doubled_branch=(Branch(a_form=_form(doubled["a"]), b_form=_form(doubled["b"]),
                               c_form=_form(doubled["c"])) if doubled else None),
    )


def _derivation_branch(rec: dict, families: dict) -> Optional[Branch]:
    """The family branch a case's derivation reads: the named branch for
    square_combo, branch 0 for eq7_combo, none for cube_pair_product."""
    deriv = rec["derivation"]
    recipe = deriv["recipe"]
    if recipe == "cube_pair_product":
        return None
    fam = families.get(deriv["family"])
    if fam is None:
        raise ValueError(f"case {rec['id']}: unknown family {deriv['family']!r}")
    index = deriv["branch"] if recipe == "square_combo" else 0
    if not isinstance(index, int) or not 0 <= index < len(fam.branches):
        raise ValueError(f"case {rec['id']}: family {fam.id} has no branch {index!r}")
    return fam.branches[index]


def _number_strings(node, key=None):
    """(key, string) for every string under node outside the name keys."""
    if isinstance(node, dict):
        for k, v in node.items():
            if k not in _NAME_KEYS:
                yield from _number_strings(v, k)
    elif isinstance(node, list):
        for v in node:
            yield from _number_strings(v, key)
    elif isinstance(node, str):
        yield key, node


def _check_names_and_keys(rec: dict) -> None:
    """Reject a case that names an unknown curve kind, recipe, map, fact kind,
    field or resultant claim, whose curve, derivation or facts lack a key
    they need, or hold a number string that is not an exact rational."""
    curve, deriv, facts = rec["curve"], rec["derivation"], rec.get("facts", ())
    names = [("curve kind", curve["kind"], CURVE_KINDS),
             ("derivation recipe", deriv["recipe"], RECIPES)]
    if "map" in deriv:
        names.append(("derivation map", deriv["map"], MAPS))
    for fact in facts:
        names.append(("fact kind", fact["kind"], FACT_KINDS))
        if "field" in fact:
            names.append(("fact field", fact["field"], FIELDS))
    for what, name, known in names:
        if not isinstance(name, str) or name not in known:
            raise ValueError(f"case {rec['id']}: unknown {what} {name!r}")
    curve_keys, deriv_keys = CURVE_KINDS[curve["kind"]]
    deriv_keys += RECIPES[deriv["recipe"]] + MAPS.get(deriv.get("map"), ())
    needs = [("curve", curve, curve_keys), ("derivation", deriv, deriv_keys)]
    needs += [(f"{fact['kind']} fact", fact, FACT_KINDS[fact["kind"]]) for fact in facts]
    for what, record, keys in needs:
        for key in keys:
            if key not in record:
                raise ValueError(f"case {rec['id']}: {what} lacks required key {key!r}")
        for key, text in _number_strings(record):
            try:
                Fraction(text)
            except ValueError:
                raise ValueError(f"case {rec['id']}: {what} key {key!r} holds "
                                 f"{text!r}, not an exact number") from None
    for claim in (f["resultant"] for f in facts if f["kind"] == "factorization"):
        if not isinstance(claim, dict) or len(set(claim) & set(RESULTANT_CLAIMS)) != 1:
            raise ValueError(f"case {rec['id']}: factorization resultant claim {claim!r} "
                             f"must name exactly one of {', '.join(RESULTANT_CLAIMS)}")


def _parse_case(rec: dict, families: dict) -> CaseRecord:
    _check_names_and_keys(rec)
    return CaseRecord(
        id=rec["id"],
        exponent_vector=tuple(rec["exponent_vector"]),
        partner_vector=tuple(rec["partner_vector"]) if rec.get("partner_vector") else None,
        description=rec.get("description", ""),
        derivation=rec["derivation"],
        derivation_branch=_derivation_branch(rec, families),
        curve=rec["curve"],
        facts=tuple(rec.get("facts", ())),
    )

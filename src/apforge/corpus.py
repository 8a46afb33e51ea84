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

from .curvelab import CURVE_KINDS, FACT_KINDS, MAPS, RECIPES
from .exactmath import BinaryForm
from .numfield import FIELDS
from .parametrize import Branch, ParamFamily

ENV_VAR = "APFORGE_CORPUS"


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
    if recipe not in RECIPES:
        raise ValueError(f"case {rec['id']}: unknown derivation recipe {recipe!r}")
    if recipe == "cube_pair_product":
        return None
    fam = families.get(deriv["family"])
    if fam is None:
        raise ValueError(f"case {rec['id']}: unknown family {deriv['family']!r}")
    index = deriv["branch"] if recipe == "square_combo" else 0
    if not isinstance(index, int) or not 0 <= index < len(fam.branches):
        raise ValueError(f"case {rec['id']}: family {fam.id} has no branch {index!r}")
    return fam.branches[index]


def _parse_case(rec: dict, families: dict) -> CaseRecord:
    names = [("curve kind", rec["curve"]["kind"], CURVE_KINDS)]
    if "map" in rec["derivation"]:
        names.append(("derivation map", rec["derivation"]["map"], MAPS))
    for fact in rec.get("facts", ()):
        names.append(("fact kind", fact["kind"], FACT_KINDS))
        if "field" in fact:
            names.append(("fact field", fact["field"], FIELDS))
    for what, name, known in names:
        if not isinstance(name, str) or name not in known:
            raise ValueError(f"case {rec['id']}: unknown {what} {name!r}")
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

"""Corpus loading: parametrization families and per-case verification data.

The corpus is a JSON file (bundled copy under ``apforge/data/corpus.json``)
holding exact integers/rationals as decimal strings.  The path can be
overridden by the APFORGE_CORPUS environment variable or an explicit
argument; the active file's sha256 is stamped into reports.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

from .curvelab import FACT_KINDS
from .exactmath import BinaryForm
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

    def case(self, selector: str):
        hits = [c for c in self.cases if c.matches(selector)]
        if not hits:
            raise ValueError(f"no case matches {selector!r}")
        return hits

    def family_map(self) -> dict:
        return {f.id: f for f in self.families}


def corpus_path(path: Optional[str] = None) -> str:
    if path:
        return path
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    return str(resources.files("apforge").joinpath("data/corpus.json"))


_CACHE: dict = {}


def load_corpus(path: Optional[str] = None) -> Corpus:
    resolved = corpus_path(path)
    if resolved in _CACHE:
        return _CACHE[resolved]
    with open(resolved, "rb") as fh:
        raw = fh.read()
    data = json.loads(raw.decode("utf-8"))
    corpus = Corpus(
        version=data["version"],
        path=resolved,
        sha256=hashlib.sha256(raw).hexdigest(),
        families=tuple(_parse_family(f) for f in data["families"]),
        cases=tuple(_parse_case(c) for c in data["cases"]),
    )
    _CACHE[resolved] = corpus
    return corpus


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


def _parse_case(rec: dict) -> CaseRecord:
    for fact in rec.get("facts", ()):
        if fact["kind"] not in FACT_KINDS:
            raise ValueError(f"case {rec['id']}: unknown fact kind {fact['kind']!r}")
    return CaseRecord(
        id=rec["id"],
        exponent_vector=tuple(rec["exponent_vector"]),
        partner_vector=tuple(rec["partner_vector"]) if rec.get("partner_vector") else None,
        description=rec.get("description", ""),
        derivation=rec["derivation"],
        curve=rec["curve"],
        facts=tuple(rec.get("facts", ())),
    )

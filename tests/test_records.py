"""The record contract: every record class compares and hashes by value,
keeps its field order and defaults, round-trips through `_replace`, and
refuses attribute assignment where it is immutable.  The records are
NamedTuples, or plain `records.Record` classes where a record checks itself
(`HyperCurve`), caches a value (`HyperCurve.model`, `Branch.int_forms`) or
accumulates (`RunReport.records`)."""

from fractions import Fraction

import pytest

from apforge.cli import RunReport
from apforge.corpus import CaseRecord, Corpus
from apforge.curvelab import CheckResult
from apforge.curves import HyperCurve, SuperellipticForm
from apforge.exactmath import BinaryForm, UniPoly
from apforge.genus import GenusZero
from apforge.parametrize import Branch, CoverReport, ParamFamily, TernarySolution
from apforge.searcher import PowerTerm, Progression, _VectorTask


def _branch():
    return Branch(BinaryForm([1, 0, -3]), BinaryForm([0, 2, 0]), BinaryForm([1, 0, 3]))


# class -> (fields in order, defaults, fresh field values, another value of
# the first field, whether immutable, whether its fields hash); two calls of
# the third build equal, distinct values.
RECORDS = {
    RunReport: (("command", "corpus_version", "corpus_sha256", "records"), {"records": []},
                lambda: ("cases", "v1", "abc", [CheckResult("r", "pass", "e", "a")]),
                "search", False, False),
    CaseRecord: (("id", "exponent_vector", "partner_vector", "derivation",
                  "derivation_branch", "curve", "facts"), {},
                 lambda: ("2223a", (2, 2, 2, 3), None, (("recipe", "x"),), _branch(),
                          HyperCurve("c", UniPoly([1, 0, 0, 1])), ()),
                 "2223b", True, True),
    Corpus: (("version", "sha256", "families", "cases"), {},
             lambda: ("v1", "abc", (), ()), "v2", True, True),
    CheckResult: (("id", "status", "expected", "actual", "runtime_ms"), {"runtime_ms": 0},
                  lambda: ("r", "pass", "e", "a", 3), "s", True, True),
    HyperCurve: (("label", "f", "field"), {"field": None},
                 lambda: ("c", UniPoly([Fraction(1, 2), 0, 0, 1]), None), "d", True, True),
    SuperellipticForm: (("label", "form", "z_mult", "z_power"), {},
                        lambda: ("f", BinaryForm([1, 0, 0, 0, 0, 0, 1]), 2, 3), "g", True, True),
    GenusZero: (("cover_degree",), {}, lambda: (60,), 12, True, True),
    Branch: (("a_form", "b_form", "c_form"), {},
             lambda: tuple(_branch()._asdict().values()), BinaryForm([2, 0, -3]), True, True),
    ParamFamily: (("id", "equation", "coef_a", "coef_b", "rhs_mult", "power", "branches",
                   "parity_rule", "doubled_branch"),
                  {"parity_rule": None, "doubled_branch": None},
                  lambda: ("i", "a^2 + 3b^2 = 4c^2", Fraction(1), Fraction(3), Fraction(4), 2,
                           (_branch(),), "x=y mod 2", _branch()),
                  "ii", True, True),
    TernarySolution: (("a", "b", "c"), {}, lambda: (3, 4, 5), 5, True, True),
    CoverReport: (("radius", "solutions_found", "matched", "unmatched", "via_doubled_forms",
                   "radius_doubled"),
                  {"unmatched": [], "via_doubled_forms": [], "radius_doubled": False},
                  lambda: (9, 4, 3, [TernarySolution(1, 1, 1)], [], True), 18, True, False),
    PowerTerm: (("x", "exponent", "eta"), {"eta": 1}, lambda: (2, 3, -1), 3, True, True),
    Progression: (("terms",), {}, lambda: ((PowerTerm(1, 2), PowerTerm(1, 3)),), (PowerTerm(2, 2),),
                 True, True),
    _VectorTask: (("lvec", "bounds", "etas", "gcd_cap", "use_sieve", "outer_slice", "half"),
                  {"outer_slice": (0, None), "half": False},
                  lambda: ((2, 3), (10, 5), ((1,), (1,)), 1, True, (2, 7), True), (3, 2),
                  True, True),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields, defaults, values, other, immutable, hashable = RECORDS[cls]
    assert cls._fields == fields
    a, b = cls(*values()), cls(*values())
    assert a is not b and a == b and not a != b
    assert [getattr(a, name) for name in fields] == list(values())
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    # The defaults, from a record built with the other fields alone.
    required = {name: value for name, value in zip(fields, values()) if name not in defaults}
    assert {name: getattr(cls(**required), name) for name in defaults} == defaults
    # _replace: a changed field makes an unequal record, and restoring it an equal one.
    first = fields[0]
    changed = a._replace(**{first: other})
    assert changed != a and getattr(changed, first) == other
    assert changed._replace(**{first: getattr(a, first)}) == a == a._replace()
    assert type(changed) is cls
    if immutable:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(b, name))
    assert repr(a).startswith(f"{cls.__name__}({first}=")


def test_record_reprs_keep_their_form():
    # The genus report prints a GenusZero's repr.
    assert repr(GenusZero(cover_degree=60)) == "GenusZero(cover_degree=60)"
    assert repr(TernarySolution(3, 4, 5)) == "TernarySolution(a=3, b=4, c=5)"
    assert repr(HyperCurve("c", UniPoly([1, 0, 0, 1]))) == (
        "HyperCurve(label='c', f=UniPoly([Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), "
        "Fraction(1, 1)]), field=None)")


def test_plain_records_keep_their_checks_and_caches():
    curve = HyperCurve("c", UniPoly([Fraction(1, 2), 0, 0, 1]))
    assert curve.model is curve.model and curve.model[1] == 2  # cached; v^2 f integral at v = 2
    with pytest.raises(ValueError, match="squarefree"):
        curve._replace(f=UniPoly([0, 0, 1, 1]))  # x^2 (x + 1)
    with pytest.raises(ValueError, match="degree 3, 5 or 6"):
        HyperCurve("q", UniPoly([1, 0, 1, 0, 1]))
    branch = _branch()
    assert branch.int_forms is branch.int_forms and branch == _branch()
    report = RunReport("cases", "v", "sha")
    report.records.append(CheckResult("r", "pass", "e", "a"))
    assert report.records == [CheckResult("r", "pass", "e", "a")]
    assert RunReport("cases", "v", "sha").records == []  # a fresh list per report

"""The corpus's string encoding stays in `corpus`: every key a record may
declare has a parser, after `load_corpus()` no value outside the name and
prose keys is still a string, and the exact algebra types refuse string
coefficients instead of parsing them."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from apforge import corpus
from apforge.corpus import corpus_path, load_corpus
from apforge.curvelab import FACT_KINDS, MAPS, RECIPES, RESULTANT_CLAIMS
from apforge.exactmath import BinaryForm, UniPoly
from apforge.numfield import FieldElem, NumberField, field_by_name
from apforge.parametrize import ParamFamily

NAME_KEYS = {"id", "equation", "parity_rule", "kind", "label", "text", "recipe", "map",
             "family", "field", "shape"}


def test_every_declared_key_has_a_parser():
    # (fact kind or None, key, whether the record names a field)
    row_keys = [keys for _, keys in (*RECIPES.values(), *MAPS.values())]
    declared = [(None, key, False) for keys in (("kind", "recipe"), *row_keys) for key in keys]
    declared += [(None, key, False) for _, curve_keys, deriv_keys in corpus._CURVES.values()
                 for key in curve_keys + deriv_keys]
    declared += [(None, name, False) for name in ParamFamily._fields]
    for kind, row in FACT_KINDS.items():
        required, optional = row.keys, row.optional
        claims = RESULTANT_CLAIMS if "resultant" in required else ()
        declared += [(kind, key, "field" in required)
                     for key in ("kind", *required, *optional, *claims)]
    missing = [(kind, key) for kind, key, in_field in declared
               if (kind, key) not in corpus._TYPES and key not in corpus._TYPES
               and not (in_field and key in corpus._IN_FIELD)]
    assert len(declared) > 50 and not missing, missing


def test_fact_kind_rows_name_known_curves_and_keys():
    # A row's curve kinds are the loader's, and the primes it reduces the
    # curve at sit under one of the fact's required keys.
    bad = [(kind, row.curves, row.reduces_at) for kind, row in FACT_KINDS.items()
           if not set(row.curves) <= set(corpus._CURVES)
           or row.reduces_at not in (None, *row.keys)]
    assert FACT_KINDS and not bad, bad


def string_leaves(node, path="", key=None):
    """Paths to every str under node outside the name keys."""
    if key in NAME_KEYS:
        return []
    if isinstance(node, str):
        return [path]
    if hasattr(node, "_fields"):
        node = {name: getattr(node, name) for name in node._fields}
    elif isinstance(node, (BinaryForm, UniPoly)):
        node = list(node.coeffs)
    elif isinstance(node, FieldElem):
        node = list(node.coords)
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, (list, tuple)):
        items = ((key, v) for v in node)
    else:
        return []
    return [p for k, v in items for p in string_leaves(v, f"{path}/{k}", k)]


def test_no_string_leaf_after_load():
    corpus = load_corpus()
    found = [p for fam in corpus.families for p in string_leaves(fam, f"family {fam.id}")]
    for case in corpus.cases:
        for part in ("curve", "derivation", "facts"):
            found += string_leaves(getattr(case, part), f"case {case.id} {part}")
    assert corpus.cases and corpus.families and not found, "\n".join(found)


@pytest.mark.parametrize("build", [
    lambda: BinaryForm([1, "2"]),
    lambda: UniPoly(["1", 0]),
    lambda: FieldElem(field_by_name("sqrt2"), ["1", Fraction(0)]),
    lambda: NumberField(["-2", 0, 1]),
], ids=["BinaryForm", "UniPoly", "FieldElem", "NumberField"])
def test_exact_types_refuse_string_coefficients(build):
    with pytest.raises(TypeError):
        build()


def _raw_strings(node):
    """Every string leaf of a JSON value."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [s for v in node for s in _raw_strings(v)]
    return [node] if isinstance(node, str) else []


def _parsed(parse, text):
    """(value, type) of parse(text), or the refusal's exception family."""
    try:
        q = parse(text)
    except ValueError:
        return "refused"
    except ZeroDivisionError:  # Fraction's own refusal of "1/0"
        return "refused"
    return q, type(q)


BUNDLED_STRINGS = _raw_strings(json.loads(Path(corpus_path()).read_text(encoding="utf-8")))
EDGE_STRINGS = ["-0", "007", "+5", " 12", "1_000", "1.5", "3/4", "-", "", "١٢", "--5", "-1/0",
                "5 ", "1e3", "-12345678901234567890"]


@pytest.mark.parametrize("text", sorted(set(BUNDLED_STRINGS)) + EDGE_STRINGS)
def test_number_parses_as_fraction_does(text):
    # The integer fast path gives Fraction(text)'s value and type, and every
    # string Fraction refuses is still refused.
    assert _parsed(corpus._number, text) == _parsed(Fraction, text)


def test_most_bundled_numbers_take_the_integer_path():
    numbers = [s for s in BUNDLED_STRINGS if _parsed(Fraction, s) != "refused"]
    integers = [s for s in numbers if s.lstrip("-").isdigit()]
    assert len(numbers) >= 600 and len(integers) / len(numbers) > 0.9

"""CLI behavior: exit codes, reports, corpus resolution."""

import json
import os
import subprocess
import sys

import pytest

from apforge import genus
from apforge.cli import RunReport, main
from apforge.corpus import corpus_path, load_corpus
from apforge.curvelab import CheckResult


def run_cli(*argv):
    return main(list(argv))


def test_verify_lemma_exit_zero(capsys):
    assert run_cli("verify-lemma", "--bound", "0") == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    assert "0 fail" in out


def test_verify_lemma_family_filter(capsys):
    assert run_cli("verify-lemma", "--family", "i", "--bound", "0") == 0
    out = capsys.readouterr().out
    assert "lemma:i:branch0:identity" in out
    assert "lemma:i:branch1:identity" in out
    assert "lemma:ii" not in out


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("nonsense")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("verify-lemma", "--family", "nope", "--bound", "0")
    assert exc.value.code == 2


def test_resource_ceiling_exit_three(capsys):
    code = run_cli("--jobs", "1", "search", "--k", "4", "--L", "2",
                   "--bound", "1000000")
    assert code == 3


def test_search_cubic_twin(capsys):
    assert run_cli("search", "--cubic-twin", "--bound", "100") == 0
    assert "cubic-twin" in capsys.readouterr().out


def test_search_theorem3_vector(capsys):
    code = run_cli("--jobs", "1", "search", "--theorem3",
                   "--bound-sq", "300", "--bound-cu", "80", "--vector", "2223")
    assert code == 0


def test_search_eta_twist(capsys):
    code = run_cli("--jobs", "1", "search", "--k", "4", "--L", "2",
                   "--eta", "73", "--bound", "500")
    assert code == 0
    out = capsys.readouterr().out
    assert "(1, 25, 49, 73)" in out


def test_genus_subcommand(capsys):
    assert run_cli("genus", "--chi", "2", "3", "7") == 0
    assert run_cli("genus", "--k", "4", "--scan-L", "3") == 0
    assert run_cli("genus", "--k", "3", "--l", "2", "3", "6") == 0
    with pytest.raises(SystemExit) as exc:
        run_cli("genus", "--k", "4", "--l", "2", "3")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, wrong", [
    (("--k", "4", "--l", "2", "3", "2", "2"), "ALL_GENUS_LE1_POSSIBLE"),
    (("--k", "4", "--l", "2", "2", "2", "2"), "GENUS_AT_LEAST_2"),
    (("--k", "5", "--l", "2", "2", "2", "2", "2"), "ALL_GENUS_LE1_POSSIBLE"),
], ids=["k4-2322", "k4-2222", "k5-22222"])
def test_genus_record_fails_on_a_wrong_classification(tmp_path, capsys, monkeypatch, argv, wrong):
    # k = 4: genus >= 2 exactly when the vector is not (2,2,2,2); k = 5: always.
    monkeypatch.setattr(genus, "rh_genus_bound", lambda k, vec: getattr(genus, wrong))
    path = tmp_path / "r.json"
    assert run_cli("--report", str(path), "genus", *argv) == 1
    assert [r["status"] for r in json.loads(path.read_text())["records"]] == ["fail"]


def test_cases_single(capsys):
    assert run_cli("cases", "--case", "3232", "--height", "100") == 0
    out = capsys.readouterr().out
    assert "3232:derivation" in out


def test_cases_partner_vector_selector(capsys):
    assert run_cli("cases", "--case", "2322", "--height", "50") == 0
    out = capsys.readouterr().out
    assert "2232:derivation" in out  # (2,3,2,2) is the partner of (2,2,3,2)


def test_report_roundtrip_and_stability(tmp_path, capsys):
    r1 = tmp_path / "a.json"
    r2 = tmp_path / "b.json"
    assert run_cli("--report", str(r1), "--no-timings", "verify-lemma",
                   "--bound", "30") == 0
    assert run_cli("--report", str(r2), "--no-timings", "verify-lemma",
                   "--bound", "30") == 0
    b1 = r1.read_bytes()
    assert b1 == r2.read_bytes()
    doc = json.loads(b1)
    assert doc["command"] == "verify-lemma"
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["pass"] == len(
        [r for r in doc["records"] if r["status"] == "pass"])
    assert all(set(r) == {"id", "status", "expected", "actual", "runtime_ms"}
               for r in doc["records"])
    assert doc["corpus_sha256"]


def test_corpus_env_override(tmp_path, capsys, monkeypatch):
    bogus = tmp_path / "missing.json"
    monkeypatch.setenv("APFORGE_CORPUS", str(bogus))
    assert run_cli("genus", "--chi", "2", "3", "7") == 2
    monkeypatch.delenv("APFORGE_CORPUS")


def test_console_script_entry():
    # The child imports apforge from wherever this process does.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "apforge.cli", "genus", "--chi", "2", "2", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "GenusZero" in proc.stdout


@pytest.mark.parametrize("statuses, code", [
    ((), 0),
    (("pass",), 0),
    (("pass", "unchecked-claim"), 0),
    (("pass", "fail"), 1),
    (("pass", "undecided"), 1),
    (("undecided", "unchecked-claim"), 1),
    (("fail", "undecided"), 1),
])
def test_exit_code_rule(statuses, code):
    """A fail or an undecided record exits 1; an unchecked claim alone does not."""
    report = RunReport("cases", "v", "sha", [CheckResult(f"r{n}", status, "e", "a")
                                             for n, status in enumerate(statuses)])
    assert report.exit_code == code


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("user_value", [None, "3"])
def test_cli_import_caps_openblas_threads(user_value):
    """Loading the CLI leaves one thread when the user sets no OpenBLAS thread
    count, and keeps a count the user sets.  The child imports apforge from
    wherever this process does."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    code = ("import os, apforge.cli; "
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    threads, value = proc.stdout.split()
    assert value == (user_value or "1")
    if user_value is None:
        assert threads == "1"


def test_verify_lemma_unknown_family_message(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify-lemma", "--family", "zz", "--bound", "0")
    assert exc.value.code == 2
    assert "error: no family matches 'zz'" in capsys.readouterr().err


def corpus_copy(tmp_path, edit):
    """Write the bundled corpus, changed in place by edit(data), to a file."""
    with open(corpus_path(), encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_corpus_unknown_fact_kind_rejected(tmp_path, capsys):
    bad = corpus_copy(
        tmp_path, lambda data: data["cases"][0]["facts"].append({"kind": "bogus_kind"}))
    assert run_cli("--corpus", bad, "cases") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load corpus:")
    assert "bogus_kind" in err


@pytest.mark.parametrize("key, value, message", [
    ("family", "zz", "unknown family 'zz'"),
    ("branch", 2, "family i has no branch 2"),
    ("recipe", "bogus_recipe", "unknown derivation recipe 'bogus_recipe'"),
])
def test_corpus_bad_derivation_reference_rejected(tmp_path, capsys, key, value, message):
    bad = corpus_copy(
        tmp_path, lambda data: data["cases"][0]["derivation"].update({key: value}))
    assert run_cli("--corpus", bad, "cases") == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot load corpus: case 2223a: {message}\n"


@pytest.mark.parametrize("cid, edit, message", [
    ("2223a", lambda case: case["curve"].update(kind="genus3"), "unknown curve kind 'genus3'"),
    ("2223a", lambda case: case["derivation"].update(map="y_over_x"),
     "unknown derivation map 'y_over_x'"),
    ("2233", lambda case: case["facts"][1].update(field="Q(sqrt(-999))"),
     "unknown fact field 'Q(sqrt(-999))'"),
    ("2233", lambda case: case["facts"][1].update(field=["cbrt2"]),
     "unknown fact field ['cbrt2']"),
], ids=["curve-kind", "derivation-map", "fact-field", "fact-field-list"])
def test_corpus_unknown_name_rejected(tmp_path, capsys, cid, edit, message):
    bad = corpus_copy(
        tmp_path, lambda data: edit(next(c for c in data["cases"] if c["id"] == cid)))
    assert run_cli("--corpus", bad, "cases") == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot load corpus: case {cid}: {message}\n"


@pytest.mark.parametrize("cid, edit, message", [
    ("2223b", lambda case: case["derivation"].pop("map"),
     "derivation lacks required key 'map'"),
    ("2223b", lambda case: case["facts"][0].pop("p"),
     "jacobian_order fact lacks required key 'p'"),
    ("2223b", lambda case: case["facts"][0].update(value="abc"),
     "jacobian_order fact key 'value' holds 'abc', not an exact number"),
    ("3323", lambda case: case["facts"][3].update(resultant={}),
     "factorization resultant claim {} must name exactly one of "
     "equals_one_with_scale, s_unit"),
    ("3232", lambda case: case["facts"][2].update(
         divisble_by=case["facts"][2].pop("divisible_by")),
     "torsion_gcd fact has undeclared key 'divisble_by'"),
], ids=["derivation-map", "jacobian-order-p", "jacobian-order-value", "resultant-claim",
        "misspelt-optional-key"])
def test_corpus_missing_key_rejected(tmp_path, capsys, cid, edit, message):
    bad = corpus_copy(
        tmp_path, lambda data: edit(next(c for c in data["cases"] if c["id"] == cid)))
    assert run_cli("--corpus", bad, "cases", "--height", "20") == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot load corpus: case {cid}: {message}\n"


def fact_of(data, cid, kind):
    case = next(c for c in data["cases"] if c["id"] == cid)
    return next(f for f in case["facts"] if f["kind"] == kind)


# Each edit once ended in a traceback, a silent verdict or a hang (the s_unit
# row looped in nf_is_s_unit), so each runs in a child with a timeout.
@pytest.mark.parametrize("edit, argv, message", [
    (lambda d: fact_of(d, "2223b", "jacobian_order").update(value="1.5"), None,
     "case 2223b: jacobian_order fact key 'value' holds '1.5', not an integer"),
    (lambda d: fact_of(d, "2223b", "rational_points").update(infinity="2"), None,
     "case 2223b: rational_points fact key 'infinity' holds '2', not a non-negative integer"),
    (lambda d: fact_of(d, "2223b", "jacobian_order").update(p="5"), None,
     "case 2223b: jacobian_order fact key 'p' holds '5', not an odd prime"),
    (lambda d: fact_of(d, "2223b", "jacobian_order").update(p=9), None,
     "case 2223b: jacobian_order fact key 'p' holds 9, not an odd prime"),
    (lambda d: fact_of(d, "2223b", "rational_points").update(height="1000"),
     ["cases", "--case", "2223b"],
     "case 2223b: rational_points fact key 'height' holds '1000', not a positive integer"),
    (lambda d: fact_of(d, "2223b", "torsion_gcd").update(primes=[]), None,
     "case 2223b: torsion_gcd fact key 'primes' holds [], not a non-empty list of odd primes"),
    (lambda d: fact_of(d, "2233", "factorization").update(resultant={"s_unit": [1]}),
     ["cases", "--case", "2233", "--height", "20"],
     "case 2233: factorization fact key 's_unit' holds [1], not a non-empty list of primes"),
    (lambda d: fact_of(d, "3223d1", "local_solvability").update(expect="true"),
     ["cases", "--case", "3223d1", "--height", "20"],
     "case 3223d1: local_solvability fact key 'expect' holds 'true', not a boolean"),
    (lambda d: next(f for f in d["families"] if f["id"] == "i").update(power="3"),
     ["verify-lemma", "--bound", "20"],
     "family i: key 'power' holds '3', not a positive integer"),
    (lambda d: fact_of(d, "2223b", "jacobian_order").update(p=3), None,
     "case 2223b: jacobian_order fact key 'p': bad reduction of g2_2223 at 3"),
    (lambda d: fact_of(d, "2223b", "torsion_gcd").update(primes=[5, 3]), None,
     "case 2223b: torsion_gcd fact key 'primes': bad reduction of g2_2223 at 3"),
    (lambda d: next(c for c in d["cases"] if c["id"] == "2232")["curve"].update(
         rhs=["1", "0", "-1", "0", "-1", "0", "1"]),  # (x^2 - 1)^2 (x^2 + 1)
     ["cases", "--case", "2232", "--height", "20"],
     "case 2232: curve: f must be squarefree"),
    (lambda d: next(c for c in d["cases"] if c["id"] == "2223a")["facts"].append(
         {"kind": "jacobian_order", "p": 5, "value": "21"}),
     ["cases", "--case", "2223a", "--height", "20"],
     "case 2223a: jacobian_order fact needs a genus2 curve"),
    (lambda d: fact_of(d, "3323", "form_value").update(at=["1", "-1", "0"]),
     ["cases", "--case", "3323", "--height", "20"],
     "case 3323: form_value fact key 'at' holds ['1', '-1', '0'], not two coordinates"),
    (lambda d: fact_of(d, "2233", "ec_point").update(x=["-1", "0"]),
     ["cases", "--case", "2233", "--height", "20"],
     "case 2233: ec_point fact key 'x' holds ['-1', '0'], "
     "not one coordinate per degree of the field"),
    (lambda d: fact_of(d, "2233", "factorization").update(factors=[[["1", "0", "0"]]]),
     ["cases", "--case", "2233", "--height", "20"],
     "case 2233: factorization fact key 'factors' holds [[['1', '0', '0']]], "
     "not at least two factors"),
    (lambda d: fact_of(d, "2233", "value_identity").update(equals=["-1", "1"]), None,
     "case 2233: value_identity fact key 'equals' holds ['-1', '1'], "
     "not one coordinate per degree of the field"),
    (lambda d: fact_of(d, "2332", "value_square").update(root=["1", "1", "1", "0"]), None,
     "case 2332: value_square fact key 'root' holds ['1', '1', '1', '0'], "
     "not one coordinate per degree of the field"),
    (lambda d: fact_of(d, "3323", "cube_class_value").update(delta=["-1", "-1", "1"]), None,
     "case 3323: cube_class_value fact key 'delta' holds ['-1', '-1', '1'], "
     "not one coordinate per degree of the field"),
    (lambda d: fact_of(d, "3323", "ec_square_x")["xs"].__setitem__(0, ["1"]), None,
     "case 3323: ec_square_x fact key 'xs' holds ['1'], "
     "not one coordinate per degree of the field"),
    (lambda d: fact_of(d, "3223d2", "ec_two_torsion")["rhs"].__setitem__(1, ["1", "2"]), None,
     "case 3223d2: ec_two_torsion fact key 'rhs' holds ['1', '2'], "
     "not one coordinate per degree of the field"),
    (lambda d: fact_of(d, "2233", "factorization")["factors"][0].__setitem__(0, ["2", "0"]),
     None, "case 2233: factorization fact key 'factors' holds ['2', '0'], "
     "not one coordinate per degree of the field"),
    (lambda d: fact_of(d, "2332", "factorization").update(
         resultant={"equals_one_with_scale": ["12", "6"]}), None,
     "case 2332: factorization fact key 'equals_one_with_scale' holds ['12', '6'], "
     "not one coordinate per degree of the field"),
    (lambda d: fact_of(d, "2233", "value_identity").update(at=[]), None,
     "case 2233: value_identity fact key 'at' holds [], not one coordinate"),
    (lambda d: fact_of(d, "3323", "cube_class_value").update(at=["1"]), None,
     "case 3323: cube_class_value fact key 'at' holds ['1'], not two coordinates"),
    (lambda d: fact_of(d, "3323", "involution").update(sub=["0", "-3", "1"]), None,
     "case 3323: involution fact key 'sub' holds ['0', '-3', '1'], not four numbers"),
    (lambda d: fact_of(d, "3323", "involution").update(solution_pairs=[[["1", "-1"]]]), None,
     "case 3323: involution fact key 'solution_pairs' holds [[['1', '-1']]], "
     "not a list of pairs of 2-vectors"),
    (lambda d: fact_of(d, "2233", "ec_point").update(rhs=[["0", "0", "0"]] * 3 + [["1", "0", "0"]]),
     None, "case 2233: ec_point fact key 'rhs' holds [['0', '0', '0'], ['0', '0', '0'], "
     "['0', '0', '0'], ['1', '0', '0']], not a squarefree cubic"),
    (lambda d: next(c for c in d["cases"] if c["id"] == "2223b").update(
         exponent_vector=[2, 2, 1, 3]), None,
     "case 2223b: key 'exponent_vector' holds [2, 2, 1, 3], "
     "not a non-empty list of integers >= 2"),
    (lambda d: next(c for c in d["cases"] if c["id"] == "2223b").update(
         partner_vector=["3", "2", "2", "2"]), None,
     "case 2223b: key 'partner_vector' holds ['3', '2', '2', '2'], "
     "not a non-empty list of integers >= 2"),
], ids=["value-not-integer", "infinity-string", "p-string", "p-not-prime", "height-string",
        "primes-empty", "s-unit-one", "expect-string", "family-power-string",
        "p-bad-reduction", "primes-bad-reduction", "rhs-not-squarefree",
        "jacobian-order-on-elliptic", "form-value-at-three", "ec-point-x-short",
        "factorization-one-factor", "value-identity-equals-short", "value-square-root-long",
        "cube-class-delta-short", "square-x-abscissa-short", "two-torsion-rhs-row-short",
        "factor-row-short", "resultant-scale-short", "value-identity-at-empty",
        "cube-class-at-one", "involution-sub-three", "solution-pair-one-vector",
        "ec-point-rhs-repeated-root", "exponent-vector-one", "partner-vector-strings"])
def test_corpus_badly_typed_value_rejected(tmp_path, edit, argv, message):
    bad = corpus_copy(tmp_path, edit)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "apforge.cli", "--corpus", bad,
         *(argv or ["cases", "--case", "2223b", "--height", "20"])],
        capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot load corpus: {message}\n")


def case_of(data, cid):
    return next(c for c in data["cases"] if c["id"] == cid)


REPEATED_ROOT_CUBIC = {3: [["0", "0", "0"]] * 3 + [["1", "0", "0"]],
                       4: [["0", "0", "0", "0"]] * 3 + [["1", "0", "0", "0"]]}


# A record of the wrong JSON type, a repeated id, a repeated-root elliptic
# rhs, a missing or undeclared key of the file, a case or a family, a
# misspelt shape, or an exact number of the wrong nesting or zero: each once
# ended in a traceback, a message naming only the key, or a silent load.
# Each edit returns the whole file's data.
@pytest.mark.parametrize("edit, message", [
    (lambda d: [d], "the corpus is a JSON list, not an object"),
    (lambda d: {**d, "version": 1}, "corpus key 'version' holds 1, not a string"),
    (lambda d: {**d, "families": 7}, "key 'families' holds 7, not a list"),
    (lambda d: {**d, "families": ["i", *d["families"][1:]]},
     "families[0] holds 'i', not an object"),
    (lambda d: {**d, "cases": [3232, *d["cases"]]}, "cases[0] holds 3232, not an object"),
    (lambda d: case_of(d, "3232").update(curve="g2_3232") or d,
     "case 3232: key 'curve' holds 'g2_3232', not an object"),
    (lambda d: case_of(d, "3232").update(derivation=5) or d,
     "case 3232: key 'derivation' holds 5, not an object"),
    (lambda d: case_of(d, "3232").update(facts="torsion_gcd") or d,
     "case 3232: key 'facts' holds 'torsion_gcd', not a list"),
    (lambda d: case_of(d, "3232")["facts"].__setitem__(1, 3) or d,
     "case 3232: facts[1] holds 3, not an object"),
    (lambda d: case_of(d, "3232").update(id=3232) or d,
     "case 3232: key 'id' holds 3232, not a string"),
    (lambda d: {**d, "cases": [*d["cases"], case_of(d, "3232")]}, "case 3232 is given twice"),
    (lambda d: {**d, "families": [*d["families"], d["families"][0]]},
     "family i is given twice"),
    (lambda d: fact_of(d, "3223d2", "ec_two_torsion").update(rhs=REPEATED_ROOT_CUBIC[3]) or d,
     f"case 3223d2: ec_two_torsion fact key 'rhs' holds {REPEATED_ROOT_CUBIC[3]!r}, "
     "not a squarefree cubic"),
    (lambda d: fact_of(d, "3323", "ec_square_x").update(rhs=REPEATED_ROOT_CUBIC[4]) or d,
     f"case 3323: ec_square_x fact key 'rhs' holds {REPEATED_ROOT_CUBIC[4]!r}, "
     "not a squarefree cubic"),
    (lambda d: {**d, "comment": "draft"}, "the corpus has undeclared key 'comment'"),
    (lambda d: {k: v for k, v in d.items() if k != "version"},
     "the corpus lacks required key 'version'"),
    (lambda d: case_of(d, "3232").update(partner_vectr=[2, 3, 3, 2]) or d,
     "case 3232 has undeclared key 'partner_vectr'"),
    (lambda d: case_of(d, "3232").pop("curve") and d, "case 3232 lacks required key 'curve'"),
    (lambda d: case_of(d, "3232").pop("derivation") and d,
     "case 3232 lacks required key 'derivation'"),
    (lambda d: case_of(d, "3232").pop("exponent_vector") and d,
     "case 3232 lacks required key 'exponent_vector'"),
    (lambda d: d["cases"][1].pop("id") and d, "cases[1] lacks required key 'id'"),
    (lambda d: case_of(d, "3232").update(description=5) or d,
     "case 3232: key 'description' holds 5, not a string"),
    (lambda d: d["families"][2].pop("id") and d, "families[2] lacks required key 'id'"),
    (lambda d: d["families"][0].pop("power") and d, "family i lacks required key 'power'"),
    (lambda d: d["families"][0].update(pwer=2) or d, "family i has undeclared key 'pwer'"),
    (lambda d: case_of(d, "3232")["curve"].pop("kind") and d,
     "case 3232: curve lacks required key 'kind'"),
    (lambda d: case_of(d, "3232")["derivation"].pop("recipe") and d,
     "case 3232: derivation lacks required key 'recipe'"),
    (lambda d: case_of(d, "3232")["facts"][1].pop("kind") and d,
     "case 3232: facts[1] lacks required key 'kind'"),
    (lambda d: fact_of(d, "2332", "factorization").update(shape="unipolly") or d,
     "case 2332: factorization fact key 'shape' holds 'unipolly', not 'unipoly' or 'form'"),
    (lambda d: fact_of(d, "2233", "value_identity").update(shape="form") or d,
     "case 2233: value_identity fact key 'shape' holds 'form', not 'unipoly'"),
    (lambda d: fact_of(d, "2332", "rational_points").update(affine=[["1"]]) or d,
     "case 2332: rational_points fact key 'affine' holds [['1']], not a list of (x, y) pairs"),
    (lambda d: case_of(d, "3232")["curve"].update(rhs="1") or d,
     "case 3232: curve key 'rhs' holds '1', not a non-empty list of exact numbers"),
    (lambda d: case_of(d, "3232")["derivation"].update(curve_divisor=["1"]) or d,
     "case 3232: derivation key 'curve_divisor' holds ['1'], not a nonzero exact number"),
    (lambda d: case_of(d, "3232")["derivation"].update(curve_divisor="0") or d,
     "case 3232: derivation key 'curve_divisor' holds '0', not a nonzero exact number"),
    (lambda d: case_of(d, "2223a")["derivation"].update(divisor="0") or d,
     "case 2223a: derivation key 'divisor' holds '0', not a nonzero exact number"),
    (lambda d: case_of(d, "3232")["derivation"].update(factor1=["1"]) or d,
     "case 3232: derivation key 'factor1' holds ['1'], not two exact numbers"),
    (lambda d: fact_of(d, "3323", "involution").update(factor=["1"]) or d,
     "case 3323: involution fact key 'factor' holds ['1'], not an exact number"),
    (lambda d: fact_of(d, "2332", "factorization").update(product="1") or d,
     "case 2332: factorization fact key 'product' holds '1', "
     "not a non-empty list of exact numbers"),
    (lambda d: d["families"][0].update(rhs_mult=["1"]) or d,
     "family i: key 'rhs_mult' holds ['1'], not a nonzero exact number"),
    (lambda d: d["families"][0].update(rhs_mult="0") or d,
     "family i: key 'rhs_mult' holds '0', not a nonzero exact number"),
    (lambda d: fact_of(d, "3323", "form_value").update(equals=["1"]) or d,
     "case 3323: form_value fact key 'equals' holds ['1'], not an exact number"),
    *((lambda d, kind=kind, cid=cid, on=on:
       case_of(d, on)["facts"].append(dict(fact_of(d, cid, kind))) or d,
       f"case {on}: {kind} fact needs a {needs} curve")
      for kind, cid, on, needs in [
          ("rational_points", "2232", "3323", "genus2 or elliptic"),
          ("local_solvability", "3223d1", "3323", "genus2 or elliptic"),
          ("form_value", "3323", "2232", "superelliptic_form"),
          ("involution", "3323", "2232", "superelliptic_form")]),
], ids=["top-level-array", "version-number", "families-number", "family-string",
        "case-number", "curve-string", "derivation-number", "facts-string", "fact-number",
        "case-id-number", "case-id-repeated", "family-id-repeated",
        "two-torsion-rhs-repeated-root", "square-x-rhs-repeated-root",
        "top-level-key-unknown", "version-missing", "case-key-unknown", "curve-missing",
        "derivation-missing", "exponent-vector-missing", "case-id-missing",
        "description-number", "family-id-missing", "family-key-missing",
        "family-key-unknown", "curve-kind-missing", "derivation-recipe-missing",
        "fact-kind-missing", "factorization-shape-misspelt", "value-identity-shape-form",
        "affine-one-coordinate", "curve-rhs-string", "curve-divisor-list",
        "curve-divisor-zero", "divisor-zero", "factor1-one-number", "involution-factor-list",
        "product-string", "rhs-mult-list", "rhs-mult-zero", "form-value-equals-list",
        "rational-points-on-form", "local-solvability-on-form", "form-value-on-genus2",
        "involution-on-genus2"])
def test_corpus_badly_shaped_record_rejected(tmp_path, capsys, edit, message):
    with open(corpus_path(), encoding="utf-8") as fh:
        data = edit(json.load(fh))
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli("--corpus", str(bad), "cases", "--case", "3232") == 2
    assert capsys.readouterr().err == f"error: cannot load corpus: {message}\n"


def test_corpus_flag_reaches_derivations(tmp_path, capsys, monkeypatch):
    def alter_family_i_branch1(data):
        fam = next(f for f in data["families"] if f["id"] == "i")
        fam["branches"][1]["a"][0] = "2"

    altered = corpus_copy(tmp_path, alter_family_i_branch1)
    by_flag, by_env = tmp_path / "flag.json", tmp_path / "env.json"
    args = ("--no-timings", "cases", "--case", "2223b", "--height", "50")
    assert run_cli("--corpus", altered, "--report", str(by_flag), *args) == 1
    monkeypatch.setenv("APFORGE_CORPUS", altered)
    assert run_cli("--report", str(by_env), *args) == 1
    assert by_flag.read_bytes() == by_env.read_bytes()
    records = {r["id"]: r for r in json.loads(by_flag.read_bytes())["records"]}
    assert records["2223b:derivation"]["status"] == "fail"


def test_cases_all_and_case_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("cases", "--all", "--case", "3232")
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_cases_all_runs_every_case(tmp_path, capsys):
    out = tmp_path / "all.json"
    assert run_cli("--report", str(out), "cases", "--all", "--height", "50") == 0
    ids = {r["id"].split(":")[0] for r in json.loads(out.read_bytes())["records"]}
    assert ids == {c.id for c in load_corpus().cases} | {"cases"}


@pytest.mark.parametrize("flag, value", [("--height", "0"), ("--local-primes", "-5")])
def test_cases_rejects_nonpositive_override(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli("cases", "--case", "3223d1", flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: apforge cases")
    assert f"argument {flag}: must be at least 1, got {value}" in err


@pytest.mark.parametrize("argv, flag, low, value", [
    (("search", "--theorem3", "--bound-sq", "-5"), "--bound-sq", 1, "-5"),
    (("search", "--theorem3", "--bound-cu", "0"), "--bound-cu", 1, "0"),
    (("search", "--cubic-twin", "--bound", "-4"), "--bound", 1, "-4"),
    (("search", "--L", "1", "--bound", "5"), "--L", 2, "1"),
    (("search", "--k", "2", "--bound", "5"), "--k", 3, "2"),
    (("--jobs", "-2", "search", "--cubic-twin", "--bound", "5"), "--jobs", 0, "-2"),
    (("verify-lemma", "--bound", "-3"), "--bound", 0, "-3"),
    (("genus", "--k", "4", "--l", "1", "2", "2", "2"), "--l", 2, "1"),
    (("genus", "--chi", "1", "2", "3"), "--chi", 2, "1"),
    (("genus", "--k", "3", "--scan-L", "1"), "--scan-L", 2, "1"),
    (("search", "--k", "3", "--L", "2", "--bound", "30", "--limit", "-1"), "--limit", 0, "-1"),
    (("search", "--D", "0", "--bound", "5"), "--D", 1, "0"),
])
def test_out_of_range_bounds_are_usage_errors(capsys, argv, flag, low, value):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: apforge")
    assert f"argument {flag}: must be at least {low}, got {value}" in err


@pytest.mark.parametrize("argv", [("--k", "2", "--l", "2", "2"),
                                  ("--k", "6", "--l", "2", "2", "2", "2", "2", "2")])
def test_genus_k_outside_choices_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli("genus", *argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --k: invalid choice:" in err and "(choose from 3, 4, 5)" in err


def test_verify_lemma_bound_beyond_int64(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify-lemma", "--family", "i", "--bound", str(2**31))
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: family i: bound 2147483648")


@pytest.mark.parametrize("vector", ["2245", "222"])
def test_theorem3_vector_outside_squares_and_cubes_exits_two(capsys, vector):
    with pytest.raises(SystemExit) as exc:
        run_cli("--jobs", "1", "search", "--theorem3", "--vector", vector)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad exponent vector (")
    assert "pass" not in captured.out


@pytest.mark.parametrize("argv, message", [
    (("--vector", "22a3"), "argument --vector: must be digits from 2 to 9, e.g. 2223, got '22a3'"),
    (("--vector", "2213"), "argument --vector: must be digits from 2 to 9"),
    (("--eta", "x"), "argument --eta: invalid prime value: 'x'"),
    (("--eta", "73", "4"), "argument --eta: must be a prime up to 1000000, got 4"),
    (("--eta", "1000003"), "argument --eta: must be a prime up to 1000000, got 1000003"),
])
def test_search_vector_and_eta_are_parsed_as_usage(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run_cli("search", *argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: apforge") and message in err


@pytest.mark.parametrize("argv, message", [
    (("--theorem3", "--eta", "73", "--k", "7", "--D", "5", "--bound-sq", "50", "--bound-cu", "20"),
     "error: the theorem3 search does not read --k, --D, --eta\n"),
    (("--cubic-twin", "--vector", "2223", "--no-sieve", "--eta", "--bound", "50"),
     "error: the cubic-twin search does not read --vector, --no-sieve, --eta\n"),
    (("--k", "3", "--L", "2", "--bound", "20", "--bound-sq", "50"),
     "error: the general search does not read --bound-sq\n"),
], ids=["theorem3", "cubic-twin", "general"])
def test_search_option_of_another_mode_exits_two(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run_cli("--jobs", "1", "search", *argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""


def test_search_modes_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("search", "--theorem3", "--cubic-twin")
    assert exc.value.code == 2
    assert "not allowed with argument --theorem3" in capsys.readouterr().err


def test_search_remark_families_flag_is_gone(capsys):
    # `cases` reports the same check as cases:remark-families.
    with pytest.raises(SystemExit) as exc:
        run_cli("search", "--remark-families")
    assert exc.value.code == 2
    assert "unrecognized arguments: --remark-families" in capsys.readouterr().err


def test_general_search_vector_of_wrong_length_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--jobs", "1", "search", "--k", "3", "--vector", "2222")
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: bad exponent vector (2, 2, 2, 2)\n"


def test_report_path_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--report", str(tmp_path / "missing" / "r.json"), "genus", "--chi", "2", "3", "7")
    assert exc.value.code == 2
    assert "argument --report: no directory for" in capsys.readouterr().err
    # A path that exists but cannot be written is caught at the write.
    assert run_cli("--report", str(tmp_path), "genus", "--chi", "2", "3", "7") == 2
    assert capsys.readouterr().err.startswith("error: cannot write report: ")

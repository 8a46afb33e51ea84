"""CLI behavior: exit codes, reports, corpus resolution."""

import json
import os
import subprocess
import sys

import pytest

from apforge.cli import main
from apforge.corpus import corpus_path, load_corpus


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

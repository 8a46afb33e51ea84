"""CLI behavior: exit codes, reports, corpus resolution."""

import json
import subprocess
import sys

import pytest

from apforge.cli import main


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
    proc = subprocess.run(
        [sys.executable, "-m", "apforge.cli", "genus", "--chi", "2", "2", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "GenusZero" in proc.stdout


def test_verify_lemma_unknown_family_message(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify-lemma", "--family", "zz", "--bound", "0")
    assert exc.value.code == 2
    assert "error: no family matches 'zz'" in capsys.readouterr().err


def test_corpus_unknown_fact_kind_rejected(tmp_path, capsys):
    from apforge.corpus import corpus_path

    with open(corpus_path(), encoding="utf-8") as fh:
        data = json.load(fh)
    data["cases"][0]["facts"].append({"kind": "bogus_kind"})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli("--corpus", str(bad), "cases") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load corpus:")
    assert "bogus_kind" in err

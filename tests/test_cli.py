import json
import subprocess
import sys

import pytest

from adjmon.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "e0 h1")
    assert (code, out) == (0, "1\n")


def test_normalize_unicode(capsys):
    code, out, _ = run(capsys, "normalize", "ε1η1")
    assert (code, out) == (0, "1\n")


def test_eq(capsys):
    code, out, _ = run(capsys, "eq", "h0 e0", "1")
    assert (code, out) == (0, "not-equal\n")
    code, out, _ = run(capsys, "eq", "e0 h1", "1")
    assert (code, out) == (0, "equal\n")


def test_mul_f_degree(capsys):
    assert run(capsys, "mul", "h0 e0", "h0 e0") == (0, "h0 e0\n", "")
    assert run(capsys, "f", "h0 e0") == (0, "h1 e1\n", "")
    assert run(capsys, "degree", "h2 e0") == (0, "4\n", "")


def test_trace_format(capsys):
    code, out, _ = run(capsys, "trace", "e1 h1")
    assert code == 0
    assert out.splitlines() == [
        "e1 h1",
        "e0 h1  [EpsEta_IEqJPos @ 0]",
        "e0 h0  [EpsEta_JEqIPlus1 @ 0]",
        "1  [EpsEta_Zero @ 0]",
    ]
    code, out, _ = run(capsys, "trace", "h0 e0")
    assert out == "h0 e0\n"  # already normal: the line is the normal form


def test_trace_json_fields(capsys):
    code, out, _ = run(capsys, "trace", "e0 h0", "--json")
    record = json.loads(out)
    assert record["start"] == "e0 h0"
    assert record["normal_form"] == "1"
    assert record["steps"] == [{"position": 0, "case": "EpsEta_Zero", "after": "1"}]


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "normalize", "h0 xx")
    assert code == 2
    assert "byte offset 3" in err
    code, _, err = run(capsys, "normalize", "h" + "9" * 5000)
    assert code == 2
    assert "byte offset 0" in err


def test_unknown_verb_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_axioms(capsys):
    code, out, _ = run(capsys, "axioms", "--max-len", "2", "--max-index", "2")
    assert code == 0
    assert "eps*eta=1  PASS (1 instances)" in out
    assert "FAIL" not in out


def test_ncheck_closure_and_membership(capsys):
    code, out, _ = run(capsys, "ncheck", "--max-len", "2", "--max-index", "2")
    assert code == 0
    assert "n=eps*f(n*eta)  PASS" in out
    code, out, _ = run(capsys, "ncheck", "1")
    assert (code, out) == (0, "member: witness h0\n")
    code, out, _ = run(capsys, "ncheck", "h0 e0", "--max-degree", "5")
    assert code == 0
    assert "no-witness-within-bound" in out


def test_ncheck_negative_bound_exit_2(capsys):
    code, out, err = run(capsys, "ncheck", "h0 e0", "--max-degree", "-1")
    assert (code, out) == (2, "")
    assert "search bound" in err


def test_iso(capsys):
    code, out, _ = run(capsys, "iso")
    assert code == 0
    assert "eta*eps=1  DOES-NOT-HOLD" in out
    assert "derived" in out


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "e0 h1", "1")
    assert (code, out.strip()) == (0, "equivalent")
    code, out, _ = run(capsys, "oracle", "h0 e0", "1", "--max-degree", "8")
    assert code == 0
    assert out.startswith("not-equivalent-within-bound (degree <= 8)")


def test_audit(capsys):
    code, out, _ = run(
        capsys, "audit", "--max-index", "3", "--max-len", "3",
        "--oracle-len", "2", "--oracle-index", "1", "--max-degree", "6",
    )
    assert code == 0
    assert "audit: PASS" in out
    assert "NOT_JOINABLE" not in out


def test_audit_default_bounds(capsys):
    code, out, _ = run(capsys, "audit", "--max-index", "6")
    assert code == 0
    assert "audit: PASS" in out
    assert "NOT INSTANTIATED" not in out
    # per-family table columns are present
    header = next(line for line in out.splitlines() if line.startswith("family"))
    for col in ("family", "subcase", "instances", "joinable", "sample bound", "formula"):
        assert col in header


def test_audit_json_stable(capsys):
    args = ("audit", "--json", "--max-index", "2", "--skip-oracle", "--skip-termination")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    assert records[-1] == {"record": "audit_summary", "pass": True}
    rows = [r for r in records if r["record"] == "confluence_row"]
    assert all(r["joinable"] == r["instances"] for r in rows)


def test_audit_table_golden(capsys):
    code, out, _ = run(capsys, "audit", "--max-index", "6", "--skip-oracle", "--skip-termination")
    assert code == 0
    assert out.splitlines() == [
        "local confluence (max index 6):",
        "family    subcase    instances joinable  sample bound   formula",
        "DISJOINT  -                 32       32  h0 h0 h0 h0    32/32",
        "EEE       -                 35       35  e0 e0 e0       35/35",
        "EEH       i+1<k<j           20       20  h1 e1 e0       20/20",
        "EEH       k<i               35       35  h0 e0 e0       35/35",
        "EEH       k=i               21       21  e0             21/21",
        "EEH       k=i+1<j           15       15  e1             15/15",
        "EEH       k=j               21       21  e0             21/21",
        "EEH       k=j+1             15       15  e0             15/15",
        "EEH       k>j+1             20       20  h1 e0 e0       20/20",
        "EHH       i=j               21       21  h0             21/21",
        "EHH       i=j-1             21       21  h0             21/21",
        "EHH       i>j               35       35  h0 h0 e0       35/35",
        "EHH       k<i<j-1           20       20  h0 h1 e0       20/20",
        "EHH       k=i+1             15       15  h1             15/15",
        "EHH       k=i<j-1           15       15  h1             15/15",
        "EHH       k>i+1             20       20  h1 h1 e0       20/20 (alt printed form 0/10)",
        "HHH       -                 35       35  h0 h0 h0       35/35",
        "joinable: PASS",
        "audit: PASS",
    ]


def test_audit_disjoint_sample_count(capsys):
    args = ("audit", "--json", "--max-index", "2", "--skip-oracle", "--skip-termination")
    code, out, _ = run(capsys, *args, "--disjoint-samples", "0")
    assert code == 0
    assert all(json.loads(line).get("family") != "DISJOINT" for line in out.splitlines())
    code, out, err = run(capsys, *args, "--disjoint-samples", "-1")
    assert (code, out) == (2, "")
    assert "disjoint sample count must be >= 0" in err


def test_answer(capsys):
    code, out, _ = run(capsys, "answer")
    assert code == 0
    assert "verdict: NOT_ISO" in out
    assert "'h0 e0'" in out
    assert "certificate" in out


def test_answer_json(capsys):
    code, out, _ = run(capsys, "answer", "--json")
    record = json.loads(out)
    assert code == 0
    assert record["verdict"] == "NOT_ISO"
    assert record["eta_eps"] == "h0 e0"
    assert record["eps_eta"] == "1"
    assert record["certificate"]["local_confluence"] is True


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "adjmon.cli", "normalize", "e0 h0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_cli_import_leaves_thread_pool_unloaded():
    code = "import adjmon.cli; import sys; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n")

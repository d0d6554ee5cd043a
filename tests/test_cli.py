import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

from adjmon import cli, confluence, monoid, rewrite
from adjmon.cli import main
from adjmon.rewrite import I, J
from adjmon.words import EPS, parse, render
from conftest import small_words


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


@given(small_words())
def test_trace_text_is_the_replayed_trace(w):
    # the command streams its lines from the rewriting; Trace.steps replays the stored moves
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["trace", render(w)]) == 0
    steps = rewrite.normalize_trace(w).steps
    assert out.getvalue().splitlines() == [render(w)] + [
        f"{render(s.after)}  [{s.rule.case.value} @ {s.position}]" for s in steps
    ]


def test_trace_json_fields(capsys):
    code, out, _ = run(capsys, "trace", "e0 h0", "--json")
    record = json.loads(out)
    assert record["start"] == "e0 h0"
    assert record["normal_form"] == "1"
    assert record["steps"] == [{"position": 0, "case": "EpsEta_Zero", "after": "1"}]


def test_normalize_huge_index_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "adjmon.cli", "normalize", "e1000000000000 h1000000000000"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (0, "1\n")


def test_trace_over_budget_exit_2(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "adjmon.cli", "trace", "e1000000000000 h1000000000000"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2,
        "",
        "adjmon: trace would take 2000000000001 steps on a word of 2 letters, "
        "over the budget of 10000000 letters printed, or held under --json\n",
    )
    # e0 ... e149: 11,175 steps of 150 letters, within the budget
    code, out, _ = run(capsys, "trace", " ".join(f"e{i}" for i in range(150)))
    assert code == 0 and len(out.splitlines()) == 11176


def test_internal_error_exit_3(capsys, monkeypatch):
    wrong = lambda w: parse("h1 h0")  # noqa: E731  (not a canonical form)
    monkeypatch.setattr(rewrite, "normalize", wrong)
    monkeypatch.setattr(monoid, "normalize", wrong)
    code, out, err = run(capsys, "mul", "h0", "h0")
    assert (code, out) == (3, "")
    assert err == "adjmon: internal error: not a canonical form: h1 h0\n"


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


def test_axioms_golden(capsys):
    code, out, _ = run(capsys, "axioms")
    assert code == 0
    assert out.splitlines() == [
        "eps*eta=1  PASS (1 instances)",
        "eps*f(eta)=1  PASS (1 instances)",
        "eps*f(eps)=eps^2  PASS (1 instances)",
        "eps*f^2(m)=f(m)*eps  PASS (495 instances)",
        "f(m)*eta=eta*m  PASS (495 instances)",
        "eps*f(eps*f(m))=eps*f(m)*eps  PASS (495 instances)",
        "m=eps*f(m)*eta  PASS (495 instances)",
    ]
    code, out, _ = run(capsys, "axioms", "--json")
    assert code == 0
    assert out.splitlines() == [
        '{"id": "eps*eta=1", "instances": 1, "pass": true, "record": "axiom"}',
        '{"id": "eps*f(eta)=1", "instances": 1, "pass": true, "record": "axiom"}',
        '{"id": "eps*f(eps)=eps^2", "instances": 1, "pass": true, "record": "axiom"}',
        '{"id": "eps*f^2(m)=f(m)*eps", "instances": 495, "pass": true, "record": "axiom"}',
        '{"id": "f(m)*eta=eta*m", "instances": 495, "pass": true, "record": "axiom"}',
        '{"id": "eps*f(eps*f(m))=eps*f(m)*eps", "instances": 495, "pass": true, "record": "axiom"}',
        '{"id": "m=eps*f(m)*eta", "instances": 495, "pass": true, "record": "axiom"}',
    ]


def test_ncheck_golden(capsys):
    code, out, _ = run(capsys, "ncheck")
    assert code == 0
    assert out.splitlines() == [
        "eps*f(m1)*eps*f(m2)=eps*f(eps*f(m1)*m2)  PASS (7056 instances)",
        "n=eps*f(n*eta)  PASS (84 instances)",
    ]
    code, out, _ = run(capsys, "ncheck", "--json")
    assert code == 0
    assert out.splitlines() == [
        '{"id": "eps*f(m1)*eps*f(m2)=eps*f(eps*f(m1)*m2)", "instances": 7056, "pass": true, "record": "submonoid"}',
        '{"id": "n=eps*f(n*eta)", "instances": 84, "pass": true, "record": "submonoid"}',
    ]


@pytest.mark.parametrize(
    "verb, word, line",
    [
        ("axioms", "e0 h1", "eps*f(eta)=1  FAIL: lhs=h7 rhs=1"),
        ("axioms", "h1 h0", "f(m)*eta=eta*m  FAIL at m=h0: lhs=h7 rhs=h0 h0"),
        ("ncheck", "e0 h1 e0 e1", "eps*f(m1)*eps*f(m2)=eps*f(eps*f(m1)*m2)  FAIL at m1=h0 m2=e0: lhs=h7 rhs=e0 e0"),
        ("ncheck", "e0 h1 e1", "n=eps*f(n*eta)  FAIL at n=eps*f(h0 e0): lhs=h7 rhs=e1"),
    ],
)
def test_identity_failure_lines(capsys, monkeypatch, verb, word, line):
    # normalize answers h7 for the one side word of the instance that is to fail
    real, bad = monoid.normalize, parse(word)
    monkeypatch.setattr(monoid, "normalize", lambda w: parse("h7") if w == bad else real(w))
    code, out, _ = run(capsys, verb)
    assert code == 1
    assert [text for text in out.splitlines() if "FAIL" in text] == [line]
    code, out, _ = run(capsys, verb, "--json")
    assert code == 1
    failed = [r["counterexample"] for r in map(json.loads, out.splitlines()) if not r["pass"]]
    at = line.split(" FAIL at ")[1].split(": ")[0] if " FAIL at " in line else None  # a ground identity has none
    assert [(c["at"], c["lhs"]) for c in failed] == [(at, "h7")]


def test_audit_failure_rows(capsys, monkeypatch):
    real = confluence.common_reducts
    monkeypatch.setattr(confluence, "common_reducts", lambda pair: frozenset() if pair.family == "EEE" else real(pair))
    monkeypatch.setattr(confluence, "normalize", lambda w: w)  # every word its own canonical form
    args = ("audit", "--max-index", "2")
    code, out, _ = run(capsys, *args)
    assert code == 1
    lines = out.splitlines()
    assert lines[4] == "EEE       -                  1        0  NOT_JOINABLE   0/1"  # after the DISJOINT row
    # 259 words in 84 components: each word after the first of its component is a discrepancy
    assert lines[-3:] == [
        "joinable: FAIL (NOT_JOINABLE pairs present)",
        "oracle cross-check: population 259, pairs 33670, spot-checked 25, discrepancies 175  FAIL",
        "audit: FAIL",
    ]
    code, out, _ = run(capsys, *args, "--json")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert records[2]["family"] == "EEE" and (records[2]["joinable"], records[2]["sample_bound"]) == (0, None)
    assert records[-2:] == [
        {"record": "oracle_cross_check", "population": 259, "pairs": 33670, "spot_checked": 25, "discrepancies": 175,
         "pass": False},
        {"record": "audit_summary", "pass": False},
    ]


def test_ncheck_closure_and_membership(capsys):
    code, out, _ = run(capsys, "ncheck")
    assert code == 0
    assert "n=eps*f(n*eta)  PASS" in out
    code, out, _ = run(capsys, "ncheck", "1")
    assert (code, out) == (0, "member: witness h0\n")
    code, out, _ = run(capsys, "ncheck", "h0 e0")
    assert (code, out) == (0, "not a member\n")


def test_ncheck_decides_membership_outright(capsys):
    # h9 e0 = eps*f(h9): the witness has degree 10, one above the element's
    assert run(capsys, "ncheck", "h9 e0") == (0, "member: witness h9\n", "")
    code, out, _ = run(capsys, "ncheck", "h9 e0", "--json")
    assert code == 0
    assert json.loads(out) == {"record": "membership", "element": "h9 e0", "member": True, "witness": "h9"}
    with pytest.raises(SystemExit) as exc:
        main(["ncheck", "h0 e0", "--max-degree", "5"])
    assert exc.value.code == 2


_ISO_LINES = [
    "f(eta)=eta  DOES-NOT-HOLD: lhs=h1 rhs=h0",
    "f(eps)=eps  DOES-NOT-HOLD: lhs=e1 rhs=e0",
    "eta*eps=1  DOES-NOT-HOLD: lhs=h0 e0 rhs=1",
    "f(m)=eta*m*eps  DOES-NOT-HOLD at m=1: lhs=1 rhs=h0 e0",
    "derived (f surjective; f iso; N=M)  DOES-NOT-HOLD [propagated by equivalence]",
]


def test_iso(capsys):
    code, out, _ = run(capsys, "iso")
    assert code == 0
    assert out.splitlines() == _ISO_LINES


def test_iso_json_golden(capsys):
    code, out, _ = run(capsys, "iso", "--json")
    assert code == 0
    assert out.splitlines() == [
        '{"at": null, "condition": "f(eta)=eta", "holds": false, "lhs": "h1", "record": "iso_condition", "rhs": "h0"}',
        '{"at": null, "condition": "f(eps)=eps", "holds": false, "lhs": "e1", "record": "iso_condition", "rhs": "e0"}',
        '{"at": null, "condition": "eta*eps=1", "holds": false, "lhs": "h0 e0", "record": "iso_condition", "rhs": "1"}',
        '{"at": "1", "condition": "f(m)=eta*m*eps", "holds": false, "lhs": "1", "record": "iso_condition", '
        '"rhs": "h0 e0"}',
        '{"holds": false, "record": "iso_derived"}',
    ]


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "e0 h1", "1")
    assert (code, out.strip()) == (0, "equivalent")
    code, out, _ = run(capsys, "oracle", "h0 e0", "1", "--max-degree", "8")
    assert code == 0
    assert out.startswith("not-equivalent-within-bound (degree <= 8)")


# (argv, the one line it prints) for the commands whose output is one line
_ONE_LINE_GOLDENS = [
    (("normalize", "e0 h1", "--json"), '{"input": "e0 h1", "normal_form": "1", "record": "normalize"}'),
    (("degree", "h2 e0", "--json"), '{"degree": 4, "record": "degree", "word": "h2 e0"}'),
    (("f", "h0 e0", "--json"), '{"image": "h1 e1", "record": "f", "word": "h0 e0"}'),
    (
        ("mul", "h0 e0", "h0 e0", "--json"),
        '{"left": "h0 e0", "product": "h0 e0", "record": "mul", "right": "h0 e0"}',
    ),
    (
        ("eq", "h0 e0", "1", "--json"),
        '{"equal": false, "left": "h0 e0", "normal_forms": ["h0 e0", "1"], "record": "eq", "right": "1"}',
    ),
    (
        ("eq", "e0 h1", "1", "--json"),
        '{"equal": true, "left": "e0 h1", "normal_forms": ["1", "1"], "record": "eq", "right": "1"}',
    ),
    (  # the record renders the parsed words, not the argument text
        ("eq", "η1  ε1", "1", "--json"),
        '{"equal": false, "left": "h1 e1", "normal_forms": ["h1 e1", "1"], "record": "eq", "right": "1"}',
    ),
    (
        ("trace", "e1 h1", "--json"),
        '{"normal_form": "1", "record": "trace", "start": "e1 h1", "steps": ['
        '{"after": "e0 h1", "case": "EpsEta_IEqJPos", "position": 0}, '
        '{"after": "e0 h0", "case": "EpsEta_JEqIPlus1", "position": 0}, '
        '{"after": "1", "case": "EpsEta_Zero", "position": 0}]}',
    ),
    (("ncheck", "e0"), "member: witness 1"),
    (("ncheck", "e0", "--json"), '{"element": "e0", "member": true, "record": "membership", "witness": "1"}'),
    (("oracle", "e0 h1", "1"), "equivalent"),
    (
        ("oracle", "e0 h1", "1", "--json"),
        '{"equivalent": true, "explored": 7, "left": "e0 h1", "max_degree": 9, "record": "oracle", "right": "1"}',
    ),
    (("oracle", "h0 e0", "1"), "not-equivalent-within-bound (degree <= 9)"),
    (
        ("oracle", "h0 e0", "1", "--json"),
        '{"equivalent": false, "explored": 580, "left": "h0 e0", "max_degree": 9, "record": "oracle", "right": "1"}',
    ),
    (("oracle", "h0 e0", "1", "--max-degree", "3"), "not-equivalent-within-bound (degree <= 3)"),
    (
        ("oracle", "h0 e0", "1", "--max-degree", "3", "--json"),
        '{"equivalent": false, "explored": 2, "left": "h0 e0", "max_degree": 3, "record": "oracle", "right": "1"}',
    ),
]


@pytest.mark.parametrize("argv, line", _ONE_LINE_GOLDENS, ids=[" ".join(argv) for argv, _ in _ONE_LINE_GOLDENS])
def test_one_line_golden(capsys, argv, line):
    assert run(capsys, *argv) == (0, line + "\n", "")


def test_oracle_degree_over_limit_exit_2(capsys):
    # refused before any search: 3^40 words would never finish
    for argv in (["audit", "--max-degree", "40"], ["oracle", "h0 e0", "1", "--max-degree", "40"]):
        proc = subprocess.run(
            [sys.executable, "-m", "adjmon.cli", *argv], capture_output=True, text=True, timeout=10
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "adjmon: --max-degree 40: the oracle universe would enumerate 3^40 words, over the limit of 1,000,000\n"
        )
    assert 3**11 <= cli.AUDIT_MAX_WORDS  # the benchmark's connected_components(11)


def test_oracle_cap_follows_audit_max_words(capsys, monkeypatch):
    # the oracle universe, the 3^d words of degree <= d, is held to AUDIT_MAX_WORDS: 3^12 = 531,441 <= 10^6 < 3^13
    audit = ("audit", "--max-index", "2", "--max-degree")
    searched, real = [], confluence.cross_check_oracle
    # a cross-check over 3^12 words takes over a second: search 3^9 and record the bound the audit asked for
    monkeypatch.setattr(confluence, "cross_check_oracle", lambda n, i, d: searched.append(d) or real(n, i, 9))
    for cap in (12, 9):
        if cap < 12:
            monkeypatch.setattr(cli, "AUDIT_MAX_WORDS", 3**cap)
        assert run(capsys, *audit, str(cap))[0] == 0
        assert run(capsys, "oracle", "e0 h1", "1", "--max-degree", str(cap)) == (0, "equivalent\n", "")
        refusal = (
            f"adjmon: --max-degree {cap + 1}: the oracle universe would enumerate 3^{cap + 1} words, "
            f"over the limit of {cli.AUDIT_MAX_WORDS:,}\n"
        )
        for argv in (audit, ("oracle", "h0 e0", "1", "--max-degree")):
            assert run(capsys, *argv, str(cap + 1)) == (2, "", refusal)
    assert searched == [12, 9]


def test_oracle_negative_json_keys(capsys):
    code, out, _ = run(capsys, "oracle", "h0 e0", "1", "--max-degree", "4", "--json")
    record = json.loads(out)
    assert code == 0 and record["equivalent"] is False
    assert sorted(record) == ["equivalent", "explored", "left", "max_degree", "record", "right"]


# Flags that became constants, with the value each is fixed at; the parser refuses them.
REMOVED_FLAGS = {
    ("audit", "--oracle-len"): confluence.ORACLE_MAX_LEN,
    ("audit", "--oracle-index"): confluence.ORACLE_MAX_INDEX,
    ("audit", "--disjoint-samples"): confluence.DISJOINT_SAMPLES,
    ("answer", "--max-index"): 6,  # the overlap index bound of `adjmon answer`'s certificate
    ("axioms", "--max-len"): 4,  # the suites' bounds, the defaults of check_axioms and check_N_closure
    ("axioms", "--max-index"): 3,
    ("ncheck", "--max-len"): 3,
    ("ncheck", "--max-index"): 2,
    ("audit", "--skip-oracle"): False,  # every audit runs termination, local confluence and the oracle cross-check
    ("audit", "--skip-termination"): False,
    ("audit", "--max-len"): 1,  # audit and answer decide termination on the redex pairs, at word length 1
}

# Every option and positional of each command, by its flag or its name: the settable values (ROADMAP aim 2).
PARSER_SURFACE = {
    "normalize": {"word", "--json"},
    "trace": {"word", "--json"},
    "degree": {"word", "--json"},
    "f": {"word", "--json"},
    "mul": {"left", "right", "--json"},
    "eq": {"left", "right", "--json"},
    "axioms": {"--json"},
    "ncheck": {"word", "--json"},
    "iso": {"--json"},
    "audit": {"--max-index", "--max-degree", "--json"},
    "oracle": {"left", "right", "--max-degree", "--json"},
    "answer": {"--json"},
}


def test_parser_surface():
    (verbs,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        verb: {max(a.option_strings, key=len, default=a.dest) for a in p._actions if a.dest != "help"}
        for verb, p in verbs.choices.items()
    }
    assert surface == PARSER_SURFACE
    assert not any(flag in PARSER_SURFACE[verb] for verb, flag in REMOVED_FLAGS)


def refused_before_any_audit(capsys, monkeypatch, *argv) -> str:
    """Run argv, which must exit 2 with no output and before any audit or suite; return its stderr."""
    def never(*args):
        raise AssertionError("an audit or suite ran before its arguments were checked")

    monkeypatch.setattr(confluence, "audit_termination", never)
    monkeypatch.setattr(confluence, "audit_local_confluence", never)
    monkeypatch.setattr(confluence, "cross_check_oracle", never)
    monkeypatch.setattr(monoid, "_check_suite", never)
    try:
        code = main(list(argv))
    except SystemExit as exc:  # refused by the argument parser
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    return err


def parser_refusal(*refused: str) -> str:
    return f"adjmon: error: unrecognized arguments: {' '.join(refused)}\n"


def refused_flags(err: str) -> list[str]:
    """The flags named in the parser's refusal, the last line of err.  Only
    the flags: ``ncheck`` with no word takes the first value for its word.
    """
    head, _, refused = err.splitlines()[-1].partition("unrecognized arguments: ")
    assert head == "adjmon: error: "
    return [a for a in refused.split() if a.startswith("--")]


def test_audit_empty_oracle_population_exit_2(capsys, monkeypatch):
    # the oracle population is fixed and not empty: asking for an empty one is refused by the parser
    assert confluence.ORACLE_MAX_LEN >= 1 and confluence.ORACLE_MAX_INDEX >= 0
    err = refused_before_any_audit(capsys, monkeypatch, "audit", "--oracle-len", "-1", "--max-index", "2")
    assert err.endswith(parser_refusal("--oracle-len", "-1"))


@pytest.mark.parametrize(
    "argv",
    [
        ("audit", "--oracle-len", "-1"),
        ("audit", "--oracle-index", "-1"),
        ("audit", "--max-degree", "8"),
        ("audit", "--max-index", "1"),
        ("audit", "--disjoint-samples", "-1"),
        ("answer", "--max-index", "1"),
        ("audit", "--max-len", "8"),
        ("audit", "--max-len", "1000000000"),
        ("audit", "--max-index", "50"),
    ],
    ids=" ".join,
)
def test_bad_audit_bounds_refused_before_any_audit(capsys, monkeypatch, argv):
    err = refused_before_any_audit(capsys, monkeypatch, *argv)
    if argv[:2] in REMOVED_FLAGS:
        assert err.endswith(parser_refusal(argv[1], argv[2]))
    else:
        assert err.startswith("adjmon: ")


@pytest.mark.parametrize(
    "argv",
    [
        # in-range values first, then out-of-range ones: a removed flag is refused whatever its value
        ("audit", "--oracle-len", "2"),
        ("audit", "--oracle-index", "1"),
        ("audit", "--disjoint-samples", "0"),
        ("answer", "--max-index", "6"),
        ("axioms", "--max-len", "4"),
        ("ncheck", "h0 e0", "--max-index", "2"),
        ("audit", "--oracle-len", "0"),
        ("answer", "--max-index", "50"),
        ("ncheck", "h0 e0", "--max-len", "0"),  # with a word, ncheck takes no suite bound either
        ("audit", "--skip-oracle"),
        ("audit", "--skip-termination"),
        ("audit", "--max-index", "3", "--skip-oracle"),
        ("audit", "--max-len", "1"),
        ("audit", "--max-len", "4"),  # its old default
    ],
    ids=" ".join,
)
def test_removed_flag_refused_before_any_audit(capsys, monkeypatch, argv):
    err = refused_before_any_audit(capsys, monkeypatch, *argv)
    flag = [a for a in argv if a.startswith("--")][-1]
    assert (argv[0], flag) in REMOVED_FLAGS
    assert err.endswith(parser_refusal(*argv[argv.index(flag):]))


@pytest.mark.parametrize(
    "argv",
    [
        ("audit", "--max-len", "0"),
        ("axioms", "--max-len", "0"),
        ("axioms", "--max-index", "0"),
        ("ncheck", "--max-len", "0"),
        ("ncheck", "--max-index", "-1"),
    ],
    ids=" ".join,
)
def test_bound_below_1_refused_naming_its_flag(capsys, monkeypatch, argv):
    err = refused_before_any_audit(capsys, monkeypatch, *argv)
    if argv[:2] in REMOVED_FLAGS:  # the suites' bounds are fixed: the parser refuses the flag
        assert REMOVED_FLAGS[argv[:2]] >= 1
        assert refused_flags(err) == [argv[1]]
    else:
        assert err == f"adjmon: {argv[1]} {argv[2]}: the bound must be >= 1\n"


@pytest.mark.parametrize(
    "argv, minimum",
    [
        ("audit --max-index 1", 2),
        ("answer --max-index 1", 2),
        ("audit --oracle-index -1", 0),
        ("audit --disjoint-samples -1", 0),
        ("audit --max-degree 8", 9),  # the oracle population's words: length <= 3, each letter of degree <= 2 + 1
    ],
)
def test_bound_refused_naming_its_flag(capsys, monkeypatch, argv, minimum):
    command, flag, value = argv.split()
    err = refused_before_any_audit(capsys, monkeypatch, *argv.split())
    if (command, flag) in REMOVED_FLAGS:
        # the flag is gone, and the value it is fixed at still meets the bound it was checked against
        assert REMOVED_FLAGS[command, flag] >= minimum
        assert err.endswith(parser_refusal(flag, value))
    else:
        assert err == f"adjmon: {flag} {value}: the bound must be >= {minimum}\n"


def test_oracle_input_over_bound_refused_naming_its_flag(capsys):
    code, out, err = run(capsys, "oracle", "h0 e0", "1", "--max-degree", "0")
    assert (code, out, err) == (2, "", "adjmon: --max-degree 0: the bound must be >= 2, the degree of the input\n")
    code, out, err = run(capsys, "oracle", "1", "h3", "--max-degree", "3", "--json")
    assert (code, out, err) == (2, "", "adjmon: --max-degree 3: the bound must be >= 4, the degree of the input\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("degree", "h{N}"),  # the degree, 10^N
        ("f", "h{N}"),  # the image's index
        ("oracle", "h{N}", "1"),  # the input's degree, in the refusal
        ("trace", "e{N} h{N}"),  # the step count, in the refusal
        ("audit", "--max-index", "{M}"),  # the overlap audit's word count, in the refusal
    ],
    ids=lambda argv: argv[0],
)
def test_number_over_digit_limit_refused(capsys, argv):
    # parse takes an index of as many digits as Python reads; a number one digit longer is not printed
    limit = sys.get_int_max_str_digits()
    nines = "9" * limit
    assert parse(f"h{nines}")
    code, out, err = run(capsys, *(a.format(N=nines, M=nines[: limit // 2]) for a in argv))
    assert (code, out, err) == (2, "", f"adjmon: a number to print has more than {limit:,} digits, "
                                       "the most that Python prints\n")


def test_audit_word_limit(capsys, monkeypatch):
    # --max-index 49 covers 100^3 three-letter words, at the limit: its audits run (the overlaps, 14 s, at index 2)
    indices, real = [], confluence.audit_local_confluence
    monkeypatch.setattr(confluence, "audit_local_confluence", lambda i: indices.append(i) or real(2))
    assert run(capsys, "audit", "--max-index", "49")[0] == 0
    assert indices == [49]
    assert run(capsys, "audit", "--max-index", "50", "--max-degree", "9") == (2, "", (
        "adjmon: --max-index 50: the overlap audit would cover 1,061,208 three-letter words, "
        "over the limit of 1,000,000\n"
    ))


def test_audit_and_answer_walk_no_word(capsys, monkeypatch):
    # termination is decided on the redex pairs: both ask for the words of length <= 1, of which none has a step
    bounds, real = [], confluence.audit_termination
    monkeypatch.setattr(confluence, "audit_termination", lambda n, i: bounds.append((n, i)) or real(n, i))
    assert run(capsys, "answer")[0] == 0
    assert run(capsys, "audit", "--max-index", "3")[0] == 0
    assert bounds == [(1, 6), (1, 3)]


def test_termination_fails_under_a_swapped_rule(capsys, mutated_rules):
    # e_i e_j -> e_j e_i keeps the degree: every pair e_i e_j (i < j) is bad, with drop 0
    mutated_rules(rewrite.RuleCase.EPS_EPS, rhs=((EPS, J, 0), (EPS, I, 0)))
    code, out, _ = run(capsys, "audit", "--json")
    assert code == 1
    assert json.loads(out.splitlines()[0]) == {
        "record": "termination", "letters": 14, "pass": False,
        "bad_pairs": [[f"e{i} e{j}", 0] for i in range(7) for j in range(i + 1, 7)],
    }
    assert json.loads(out.splitlines()[-1]) == {"record": "audit_summary", "pass": False}
    code, out, _ = run(capsys, "answer")
    assert code == 1
    assert out.splitlines()[-1].startswith("certificate: termination FAIL, ")


@pytest.mark.parametrize(
    "argv, count",
    [
        ("ncheck --max-len 6 --max-index 6", "1,502,376,360"),  # 38,760^2 + 38,760
        ("axioms --max-len 8 --max-index 8", "6,249,103"),  # 3 + 4 * 1,562,275
        ("axioms --max-len 100 --max-index 100", "more than 10^37"),
    ],
)
def test_suite_instance_limit(capsys, monkeypatch, argv, count):
    # each run would check `count` instances: the parser refuses it before any suite runs
    err = refused_before_any_audit(capsys, monkeypatch, *argv.split())
    assert refused_flags(err) == ["--max-len", "--max-index"], count


def test_audit(capsys):
    code, out, _ = run(capsys, "audit", "--max-index", "3")
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
    args = ("audit", "--json", "--max-index", "2", "--max-degree", "9")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    assert records[-1] == {"record": "audit_summary", "pass": True}
    rows = [r for r in records if r["record"] == "confluence_row"]
    assert all(r["joinable"] == r["instances"] for r in rows)


def test_audit_table_golden(capsys):
    code, out, _ = run(capsys, "audit", "--max-index", "6", "--max-degree", "9")
    assert code == 0
    assert out.splitlines() == [
        "termination: 14 letters of index <= 6, 0 bad pairs  PASS",
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
        "oracle cross-check: population 259, pairs 33670, spot-checked 25, discrepancies 0  PASS",
        "audit: PASS",
    ]


def test_audit_json_golden(capsys):
    code, out, _ = run(capsys, "audit", "--json", "--max-index", "6", "--max-degree", "9")
    assert code == 0
    assert out.splitlines() == [
        '{"bad_pairs": [], "letters": 14, "pass": true, "record": "termination"}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "DISJOINT", "formula_matches": 32'
        ', "instances": 32, "joinable": 32, "record": "confluence_row", "sample_bound": "h0 h0 h0 h0", "subcase": null}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "EEE", "formula_matches": 35'
        ', "instances": 35, "joinable": 35, "record": "confluence_row", "sample_bound": "e0 e0 e0", "subcase": null}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "EEH", "formula_matches": 20'
        ', "instances": 20, "joinable": 20, "record": "confluence_row", "sample_bound": "h1 e1 e0", "subcase": "i+1<k<j"}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "EEH", "formula_matches": 35'
        ', "instances": 35, "joinable": 35, "record": "confluence_row", "sample_bound": "h0 e0 e0", "subcase": "k<i"}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "EEH", "formula_matches": 21'
        ', "instances": 21, "joinable": 21, "record": "confluence_row", "sample_bound": "e0", "subcase": "k=i"}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "EEH", "formula_matches": 15'
        ', "instances": 15, "joinable": 15, "record": "confluence_row", "sample_bound": "e1", "subcase": "k=i+1<j"}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "EEH", "formula_matches": 21'
        ', "instances": 21, "joinable": 21, "record": "confluence_row", "sample_bound": "e0", "subcase": "k=j"}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "EEH", "formula_matches": 15'
        ', "instances": 15, "joinable": 15, "record": "confluence_row", "sample_bound": "e0", "subcase": "k=j+1"}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "EEH", "formula_matches": 20'
        ', "instances": 20, "joinable": 20, "record": "confluence_row", "sample_bound": "h1 e0 e0", "subcase": "k>j+1"}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "EHH", "formula_matches": 21'
        ', "instances": 21, "joinable": 21, "record": "confluence_row", "sample_bound": "h0", "subcase": "i=j"}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "EHH", "formula_matches": 21'
        ', "instances": 21, "joinable": 21, "record": "confluence_row", "sample_bound": "h0", "subcase": "i=j-1"}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "EHH", "formula_matches": 35'
        ', "instances": 35, "joinable": 35, "record": "confluence_row", "sample_bound": "h0 h0 e0", "subcase": "i>j"}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "EHH", "formula_matches": 20'
        ', "instances": 20, "joinable": 20, "record": "confluence_row", "sample_bound": "h0 h1 e0", "subcase": "k<i<j-1"}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "EHH", "formula_matches": 15'
        ', "instances": 15, "joinable": 15, "record": "confluence_row", "sample_bound": "h1", "subcase": "k=i+1"}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "EHH", "formula_matches": 15'
        ', "instances": 15, "joinable": 15, "record": "confluence_row", "sample_bound": "h1", "subcase": "k=i<j-1"}',
        '{"alt_formula_applicable": 10, "alt_formula_matches": 0, "family": "EHH", "formula_matches": 20'
        ', "instances": 20, "joinable": 20, "record": "confluence_row", "sample_bound": "h1 h1 e0", "subcase": "k>i+1"}',
        '{"alt_formula_applicable": 0, "alt_formula_matches": 0, "family": "HHH", "formula_matches": 35'
        ', "instances": 35, "joinable": 35, "record": "confluence_row", "sample_bound": "h0 h0 h0", "subcase": null}',
        '{"discrepancies": 0, "pairs": 33670, "pass": true, "population": 259, "record": "oracle_cross_check", '
        '"spot_checked": 25}',
        '{"pass": true, "record": "audit_summary"}',
    ]


def test_audit_disjoint_sample_count(capsys):
    code, out, _ = run(capsys, "audit", "--json", "--max-index", "2", "--max-degree", "9")
    assert code == 0
    rows = [r for r in map(json.loads, out.splitlines()) if r.get("family") == "DISJOINT"]
    assert [r["instances"] for r in rows] == [confluence.DISJOINT_SAMPLES]


def test_answer(capsys):
    code, out, _ = run(capsys, "answer")
    assert code == 0
    assert out.splitlines() == [
        "verdict: NOT_ISO",
        "an adjunction between monoids need not be an isomorphism:",
        "  eta*eps normalizes to 'h0 e0', a canonical form distinct from '1'",
        "  eps*eta normalizes to '1'",
        "  (eta*eps)^2 = eta*eps holds: eta*eps is a non-identity idempotent",
        *(f"  {line}" for line in _ISO_LINES),
        "certificate: termination PASS, local confluence PASS "
        "(overlaps at max index 6; run `adjmon audit` for the oracle cross-check)",
    ]


def test_answer_json(capsys):
    code, out, _ = run(capsys, "answer", "--json")
    record = json.loads(out)
    assert code == 0
    assert record["verdict"] == "NOT_ISO"
    assert record["eta_eps"] == "h0 e0"
    assert record["eps_eta"] == "1"
    assert record["certificate"]["local_confluence"] is True
    assert out == (
        '{"certificate": {"all_subcases_instantiated": true, "local_confluence": true, "termination": true}, '
        '"conditions": [{"condition": "f(eta)=eta", "holds": false}, {"condition": "f(eps)=eps", "holds": false}, '
        '{"condition": "eta*eps=1", "holds": false}, {"condition": "f(m)=eta*m*eps", "holds": false}], '
        '"derived_holds": false, "eps_eta": "1", "eta_eps": "h0 e0", "eta_eps_idempotent": true, '
        '"record": "answer", "verdict": "NOT_ISO"}\n'
    )


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


def test_cli_import_leaves_dataclasses_unloaded():
    # -S: no site hooks, so only adjmon's own imports count (dataclasses pulls in inspect, ast, dis)
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, adjmon.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_closed_stdout_exits_141_without_traceback():
    # as `adjmon answer | head -1` does when head exits first: the reader is gone
    proc = subprocess.Popen(
        [sys.executable, "-m", "adjmon.cli", "answer"], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    # unbuffered, the parent's print fails in cmd_answer; buffered, the flush at exit fails
    assert "Traceback" not in err.decode() and "BrokenPipeError" not in err.decode()
    assert proc.returncode == 141


# Run main(argv) in a fresh interpreter; print the adjmon modules it loaded and whether json is among them.
_LOADED_BY_MAIN = """
import contextlib, io, sys
before = set(sys.modules)
from adjmon.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
loaded = set(sys.modules) - before
print(status, sorted(m for m in loaded if m.startswith("adjmon")), "json" in loaded)
"""
_CORE = ["adjmon", "adjmon.cli", "adjmon.rewrite", "adjmon.words"]


def _loaded_by_main(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_MAIN, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["normalize", "e1 h1"], []),
        (["eq", "h0 e0", "1"], []),
        (["trace", "e1 h1"], []),
        (["degree", "h0 e0"], []),
        (["mul", "h0", "e0"], ["adjmon.monoid"]),
        (["f", "h0"], ["adjmon.monoid"]),
        (["iso"], ["adjmon.monoid"]),
        (["ncheck", "h0 e0"], ["adjmon.monoid"]),
        (["axioms"], ["adjmon.monoid"]),
        (["audit", "--max-index", "2", "--max-degree", "9"], ["adjmon.confluence"]),
        (["oracle", "h0 e0", "1", "--max-degree", "2"], ["adjmon.confluence"]),
        (["answer"], ["adjmon.confluence", "adjmon.monoid"]),
        (["ncheck"], ["adjmon.monoid"]),  # the closure suites
    ],
)
def test_commands_load_only_the_layers_they_call(argv, extra):
    assert _loaded_by_main(*argv) == f"0 {sorted(_CORE + extra)} False\n"


def test_json_loads_only_with_its_flag():
    assert _loaded_by_main("normalize", "e1 h1", "--json") == f"0 {_CORE} True\n"


def test_refusal_loads_no_layer():
    # a ValueError passes main's NotCanonicalError handler, which must not need monoid
    assert _loaded_by_main("trace", "e1000000000000 h1000000000000") == f"2 {_CORE} False\n"

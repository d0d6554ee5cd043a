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


@given(small_words())
def test_trace_json_streams_the_record(w):
    # a header record, then one step record per step as the rewriting makes it: the steps of Trace.steps
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["trace", render(w), "--json"]) == 0
    trace = rewrite.normalize_trace(w)
    header, *steps = map(json.loads, out.getvalue().splitlines())
    assert header == {"record": "trace", "start": render(w), "normal_form": render(trace.end)}
    assert steps == [{"record": "step", "position": s.position, "case": s.rule.case.value, "after": render(s.after)}
                     for s in trace.steps]


@pytest.mark.parametrize("argv, last", [
    (["trace", "e0 h1"], "1  [EpsEta_Zero @ 0]\n"),
    (["trace", "e0 h1", "--json"], '{"after": "1", "case": "EpsEta_Zero", "position": 0, "record": "step"}\n'),
    (["eq", "e0 h1", "1"], None),
    (["eq", "e0 h1", "1", "--json"], None),
], ids=["text", "json", "eq-text", "eq-json"])
def test_trace_ending_off_the_canonical_form_exit_3(capsys, monkeypatch, argv, last):
    # trace writes every step in either mode, each JSON record whole, then exits 3; eq prints nothing
    monkeypatch.setattr(rewrite, "normalize", lambda w: parse("h0"))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (3, "adjmon: internal error: the rewriting ends at 1, not at h0\n")
    assert out.endswith(last) if last else out == ""


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_eq_right_word_ending_off_the_canonical_form_exit_3(capsys, monkeypatch, json_flag):
    # both words are checked: the left one ends at its canonical form, the right one does not
    real = rewrite.normalize
    monkeypatch.setattr(rewrite, "normalize", lambda w: parse("h0") if w == parse("e0 h1") else real(w))
    code, out, err = run(capsys, "eq", "h0", "e0 h1", *json_flag)
    assert (code, out, err) == (3, "", "adjmon: internal error: the rewriting ends at 1, not at h0\n")


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
        "over the budget of 10000000 steps x letters\n",
    )
    # e0 ... e149: 11,175 steps of 150 letters, within the budget
    code, out, _ = run(capsys, "trace", " ".join(f"e{i}" for i in range(150)))
    assert code == 0 and len(out.splitlines()) == 11176


def test_internal_error_exit_3(capsys, monkeypatch):
    # rules that match no factor: eq's rewriting of e0 h0 stops there, away from its canonical form 1
    monkeypatch.setattr(rewrite, "match_rule", lambda x, y: None)
    code, out, err = run(capsys, "eq", "e0 h0", "1")
    assert (code, out) == (3, "")
    assert err == "adjmon: internal error: the rewriting ends at e0 h0, not at 1\n"


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
    # the suites' fold reads h7 in place of the one side word of the instance that is to fail; the counterexample's
    # forms are written from the states it left
    real, bad = monoid._state_table, parse(word)

    def faulty_table():
        state, states, moves = real()
        return (lambda w: state(parse("h7") if w == bad else w)), states, moves

    monkeypatch.setattr(monoid, "_state_table", faulty_table)
    code, out, _ = run(capsys, verb)
    assert code == 1
    assert [text for text in out.splitlines() if "FAIL" in text] == [line]
    code, out, _ = run(capsys, verb, "--json")
    assert code == 1
    failed = [r["counterexample"] for r in map(json.loads, out.splitlines()) if not r["pass"]]
    at = line.split(" FAIL at ")[1].split(": ")[0] if " FAIL at " in line else None  # a ground identity has none
    assert [(c["at"], c["lhs"]) for c in failed] == [(at, "h7")]


def test_audit_failure_rows(capsys, monkeypatch):
    # no EEE pair joins: neither its rewriting to the closed form nor its full graphs show a common reduct
    real, witness = confluence.common_reducts, confluence._rewrites_to_expected
    monkeypatch.setattr(confluence, "common_reducts", lambda pair: frozenset() if pair.family == "EEE" else real(pair))
    monkeypatch.setattr(confluence, "_rewrites_to_expected", lambda pair: pair.family != "EEE" and witness(pair))
    monkeypatch.setattr(confluence, "normalize", lambda w: w)  # every word its own canonical form
    code, out, _ = run(capsys, "audit")
    assert code == 1
    lines = out.splitlines()
    assert lines[4] == "EEE       -                 35        0  NOT_JOINABLE   0/35"  # after the DISJOINT row
    # 259 words in 84 components: each word after the first of its component is a discrepancy
    assert lines[-3:] == [
        "joinable: FAIL (NOT_JOINABLE pairs present)",
        "oracle cross-check: population 259, pairs 33670, spot-checked 25, discrepancies 175  FAIL",
        "audit: FAIL",
    ]
    code, out, _ = run(capsys, "audit", "--json")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert records[2]["family"] == "EEE" and (records[2]["joinable"], records[2]["sample_bound"]) == (0, None)
    assert records[-2:] == [
        {"record": "oracle_cross_check", "population": 259, "pairs": 33670, "spot_checked": 25, "discrepancies": 175,
         "pass": False},
        {"record": "audit_summary", "pass": False},
    ]


def test_audit_reports_a_form_heavier_than_the_oracle_universe(capsys, monkeypatch):
    # h0 h2 is the first sampled word; a form of degree 14 lies outside the universe of degree <= 9
    real, sampled = confluence.normalize, parse("h0 h2")
    heavy = sampled + parse("h9")
    monkeypatch.setattr(confluence, "normalize", lambda w: real(w) + parse("h9") if w == sampled else real(w))
    assert (sampled, heavy, False, False) in confluence.cross_check_oracle().discrepancies
    code, out, err = run(capsys, "audit")
    assert (code, out.splitlines()[-1], err) == (1, "audit: FAIL", "")


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
    "derived (f surjective; f iso; N=M)  DOES-NOT-HOLD: h0 not in f(M), h0 e0 not in N",
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
        '{"holds": false, "not_in_N": "h0 e0", "not_in_f_image": "h0", "record": "iso_derived"}',
    ]


# (argv, the one line it prints) for the commands whose output is one line
_ONE_LINE_GOLDENS = [
    (("normalize", "e0 h1", "--json"), '{"input": "e0 h1", "normal_form": "1", "record": "normalize"}'),
    (("degree", "h2 e0", "--json"), '{"degree": 4, "record": "degree", "word": "h2 e0"}'),
    (("f", "h0 e0", "--json"), '{"image": "h1 e1", "record": "f", "word": "h0 e0"}'),
    (
        ("mul", "h0 e0", "h0 e0", "--json"),
        '{"left": "h0 e0", "product": "h0 e0", "record": "mul", "right": "h0 e0"}',
    ),
    (("eq", "e0 h1", "1"), "equal"),
    (  # each word rewritten to its normal form, with its step count
        ("eq", "e0 h1", "1", "--json"),
        '{"equal": true, "left": "e0 h1", "normal_forms": ["1", "1"], "record": "eq", "right": "1", "steps": [2, 0]}',
    ),
    (("eq", "h0 e0", "1"), "not-equal"),
    (
        ("eq", "h0 e0", "1", "--json"),
        '{"equal": false, "left": "h0 e0", "normal_forms": ["h0 e0", "1"], "record": "eq", "right": "1", '
        '"steps": [0, 0]}',
    ),
    (("eq", "h1 e1", "1"), "not-equal"),
    (
        ("eq", "h1 e1", "1", "--json"),
        '{"equal": false, "left": "h1 e1", "normal_forms": ["h1 e1", "1"], "record": "eq", "right": "1", '
        '"steps": [0, 0]}',
    ),
    (("eq", "e1 h1", "e0 h0"), "equal"),
    (  # the right word is rewritten too: 3 steps on the left, 1 on the right
        ("eq", "e1 h1", "e0 h0", "--json"),
        '{"equal": true, "left": "e1 h1", "normal_forms": ["1", "1"], "record": "eq", "right": "e0 h0", '
        '"steps": [3, 1]}',
    ),
    (  # the record renders the parsed words, not the argument text
        ("eq", "η1  ε1", "1", "--json"),
        '{"equal": false, "left": "h1 e1", "normal_forms": ["h1 e1", "1"], "record": "eq", "right": "1", '
        '"steps": [0, 0]}',
    ),
    (("ncheck", "e0"), "member: witness 1"),
    (("ncheck", "e0", "--json"), '{"element": "e0", "member": true, "record": "membership", "witness": "1"}'),
]


@pytest.mark.parametrize("argv, line", _ONE_LINE_GOLDENS, ids=[" ".join(argv) for argv, _ in _ONE_LINE_GOLDENS])
def test_one_line_golden(capsys, argv, line):
    assert run(capsys, *argv) == (0, line + "\n", "")


def test_trace_json_golden(capsys):
    assert run(capsys, "trace", "e1 h1", "--json") == (0, (
        '{"normal_form": "1", "record": "trace", "start": "e1 h1"}\n'
        '{"after": "e0 h1", "case": "EpsEta_IEqJPos", "position": 0, "record": "step"}\n'
        '{"after": "e0 h0", "case": "EpsEta_JEqIPlus1", "position": 0, "record": "step"}\n'
        '{"after": "1", "case": "EpsEta_Zero", "position": 0, "record": "step"}\n'
    ), "")


def test_eq_rewrites_the_largest_class(capsys):
    # this word's class, 11,271 words, is the largest within degree 12; the rewriting takes 5 steps
    word = "h0 h0 h0 e0 h0 e0 h0 e0 h0 e0 h1"
    assert run(capsys, "eq", word, "1") == (0, "not-equal\n", "")
    code, out, err = run(capsys, "eq", word, "1", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"record": "eq", "left": word, "right": "1", "equal": False,
                               "normal_forms": ["h0 h0 h0", "1"], "steps": [5, 0]}


def test_eq_rewrites_every_word_of_degree_at_most_6_to_its_normal_form():
    parser = cli.build_parser()  # one parser for the 729 runs; main builds one per run
    universe = [w for level in confluence._words_by_degree(6) for w in level]
    assert len(universe) == 729
    for w in universe:
        args, out = parser.parse_args(["eq", render(w), "1", "--json"]), io.StringIO()
        with contextlib.redirect_stdout(out):
            assert args.func(args) == 0
        record, trace = json.loads(out.getvalue()), rewrite.normalize_trace(w)
        assert (record["steps"][0], record["normal_forms"][0]) == (len(trace.moves), render(trace.end)), w


def test_eq_answers_at_any_degree(capsys):
    # no universe is built: h12, of degree 13, is already normal
    assert run(capsys, "eq", "h12", "1") == (0, "not-equal\n", "")
    # each step makes new letters: 20,001 steps on a word of 2 letters
    code, out, err = run(capsys, "eq", "e10000 h10000", "1", "--json")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert (record["equal"], record["normal_forms"], record["steps"]) == (True, ["1", "1"], [20001, 0])


def test_eq_over_budget_answers_without_rewriting(capsys, monkeypatch):
    # 2,000,000,000,001 steps on a word of 2 letters: the word is not rewritten, and its steps are null
    rewritten, real = [], rewrite._leftmost_moves
    monkeypatch.setattr(rewrite, "_leftmost_moves", lambda letters: rewritten.append(render(letters)) or real(letters))
    assert run(capsys, "eq", "e1000000000000 h1000000000000", "1") == (0, "equal\n", "")
    assert rewritten == ["1"]
    code, out, err = run(capsys, "eq", "e1000000000000 h1000000000000", "1", "--json")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert (record["equal"], record["normal_forms"], record["steps"]) == (True, ["1", "1"], [None, 0])


@pytest.mark.parametrize("left, steps", [("1", [0, None]), ("e1000000000000 h1000000000000", [None, None])],
                         ids=["right", "both"])
def test_eq_over_budget_on_either_side(capsys, monkeypatch, left, steps):
    # each word is held to the budget on its own: a word over it is not rewritten, whichever side it is on
    rewritten, real = [], rewrite._leftmost_moves
    monkeypatch.setattr(rewrite, "_leftmost_moves", lambda letters: rewritten.append(render(letters)) or real(letters))
    code, out, err = run(capsys, "eq", left, "e1000000000000 h1000000000000", "--json")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert (record["equal"], record["normal_forms"], record["steps"]) == (True, ["1", "1"], steps)
    assert rewritten == ([] if steps[0] is None else ["1"])


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
    "audit": {"--json"},
    "answer": {"--json"},
}


def test_parser_surface():
    (verbs,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        verb: {max(a.option_strings, key=len, default=a.dest) for a in p._actions if a.dest != "help"}
        for verb, p in verbs.choices.items()
    }
    assert surface == PARSER_SURFACE


@pytest.mark.parametrize(
    "argv",
    # each bound flag that a command once took, --max-len, --max-index and --max-degree, on every command; each
    # positional is given a word, so the parser reads the value as the flag's, whatever the command
    [(verb, *("h0" for name in surface if not name.startswith("--")), flag, "1")
     for verb, surface in PARSER_SURFACE.items()
     for flag in ("--max-len", "--max-index", "--max-degree")],
    ids=" ".join,
)
def test_flag_outside_the_surface_refused_before_any_audit(capsys, monkeypatch, argv):
    def never(*args):
        raise AssertionError("an audit or suite ran before its arguments were checked")

    monkeypatch.setattr(confluence, "audit_termination", never)
    monkeypatch.setattr(confluence, "audit_local_confluence", never)
    monkeypatch.setattr(confluence, "cross_check_oracle", never)
    monkeypatch.setattr(monoid, "_check_suite", never)
    with pytest.raises(SystemExit) as exc:  # refused by the argument parser
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"adjmon: error: unrecognized arguments: {' '.join(argv[-2:])}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("degree", "h{N}"),  # the degree, 10^N
        ("f", "h{N}"),  # the image's index
        ("trace", "e{N} h{N}"),  # the step count, in the refusal
    ],
    ids=lambda argv: argv[0],
)
def test_number_over_digit_limit_refused(capsys, argv):
    # parse takes an index of as many digits as Python reads; a number one digit longer is not printed
    limit = sys.get_int_max_str_digits()
    nines = "9" * limit
    assert parse(f"h{nines}")
    code, out, err = run(capsys, *(a.format(N=nines) for a in argv))
    assert (code, out, err) == (2, "", f"adjmon: a number to print has more than {limit:,} digits, "
                                       "the most that Python prints\n")


def test_eq_answers_a_word_whose_step_count_is_past_the_digit_limit(capsys):
    # the step count of e{N} h{N} has more digits than Python prints; eq gives null for it, and answers
    limit = sys.get_int_max_str_digits()
    word = f"e{'9' * limit} h{'9' * limit}"
    assert run(capsys, "eq", word, "1") == (0, "equal\n", "")
    code, out, err = run(capsys, "eq", word, "1", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["steps"] == [None, 0]


def test_audit_and_answer_walk_no_word(capsys, monkeypatch):
    # termination is decided on the redex pairs: both ask for the words of length <= 1, of which none has a step
    bounds, real = [], confluence.audit_termination
    monkeypatch.setattr(confluence, "audit_termination", lambda n, i: bounds.append((n, i)) or real(n, i))
    assert run(capsys, "answer")[0] == 0
    assert run(capsys, "audit")[0] == 0
    assert bounds == [(1, 6), (1, 6)]


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


def test_audit_default_bounds(capsys):
    code, out, _ = run(capsys, "audit")
    assert code == 0
    assert "audit: PASS" in out
    assert "NOT_JOINABLE" not in out
    assert "NOT INSTANTIATED" not in out
    # per-family table columns are present
    header = next(line for line in out.splitlines() if line.startswith("family"))
    for col in ("family", "subcase", "instances", "joinable", "sample bound", "formula"):
        assert col in header


def test_audit_json_stable(capsys):
    args = ("audit", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    assert records[-1] == {"record": "audit_summary", "pass": True}
    rows = [r for r in records if r["record"] == "confluence_row"]
    assert all(r["joinable"] == r["instances"] for r in rows)


def test_audit_table_golden(capsys):
    code, out, _ = run(capsys, "audit")
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
    assert int(out.splitlines()[3].split()[2]) == confluence.DISJOINT_SAMPLES  # the DISJOINT row's instances


def test_audit_json_golden(capsys):
    code, out, _ = run(capsys, "audit", "--json")
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


def test_audit_and_answer_fail_an_uninstantiated_subcase(capsys, monkeypatch):
    # both commands read one certificate verdict: a subcase with no instance fails audit and answer alike
    real = confluence.audit_local_confluence

    def missing_eeh_k_eq_j(max_index=6):
        report = real(max_index)
        rows = tuple(r for r in report.rows if (r.family, r.subcase) != ("EEH", "k=j"))
        return report._replace(rows=rows, not_instantiated=(("EEH", "k=j"),))

    monkeypatch.setattr(confluence, "audit_local_confluence", missing_eeh_k_eq_j)
    code, out, _ = run(capsys, "audit")
    assert code == 1
    assert not any(line.startswith("EEH       k=j ") for line in out.splitlines())
    assert out.splitlines()[-5:] == [
        "HHH       -                 35       35  h0 h0 h0       35/35",
        "EEH k=j  NOT INSTANTIATED at this index bound",
        "joinable: PASS",
        "oracle cross-check: population 259, pairs 33670, spot-checked 25, discrepancies 0  PASS",
        "audit: FAIL",
    ]
    code, out, _ = run(capsys, "audit", "--json")
    assert code == 1
    assert out.splitlines()[-3:] == [
        '{"family": "EEH", "record": "not_instantiated", "subcase": "k=j"}',
        '{"discrepancies": 0, "pairs": 33670, "pass": true, "population": 259, "record": "oracle_cross_check", '
        '"spot_checked": 25}',
        '{"pass": false, "record": "audit_summary"}',
    ]
    code, out, _ = run(capsys, "answer")
    assert code == 1
    assert out.splitlines()[-1] == (
        "certificate: termination PASS, local confluence FAIL "
        "(overlaps at max index 6, not instantiated: EEH k=j; run `adjmon audit` for the oracle cross-check)"
    )
    code, out, _ = run(capsys, "answer", "--json")
    assert code == 1
    assert json.loads(out)["certificate"] == {
        "all_subcases_instantiated": False, "local_confluence": False, "termination": True,
    }


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
        (["audit"], ["adjmon.confluence"]),
        (["answer"], ["adjmon.confluence", "adjmon.monoid"]),
        (["ncheck"], ["adjmon.monoid"]),  # the closure suites
        (["eq", "e1 h1", "e0 h0"], []),  # both words rewritten by the rules
        (["eq", "e1000000000000 h1000000000000", "1"], []),  # a word over the budget, not rewritten
    ],
)
def test_commands_load_only_the_layers_they_call(argv, extra):
    assert _loaded_by_main(*argv) == f"0 {sorted(_CORE + extra)} False\n"


def test_json_loads_only_with_its_flag():
    assert _loaded_by_main("normalize", "e1 h1", "--json") == f"0 {_CORE} True\n"


def test_refusal_loads_no_layer():
    # a ValueError passes main's NotCanonicalError handler, which must not need monoid
    assert _loaded_by_main("trace", "e1000000000000 h1000000000000") == f"2 {_CORE} False\n"

"""Batch command-line interface.

Words on the command line use the grammar of :mod:`adjmon.words`:
tokens ``h<k>`` / ``e<k>`` (or ``η<k>`` / ``ε<k>``), optional whitespace,
and the bare token ``1`` for the identity.  Exit status: 0 for answered
queries and passing reports, 1 for failed reports or unjoinable pairs,
2 for usage or word-syntax errors, for bounds below their minimum, for
``trace`` runs over :data:`TRACE_BUDGET`, for an ``oracle`` input of
degree over ``--max-degree``, for audit and oracle bounds over
:data:`AUDIT_MAX_WORDS` words and for a number to print of more digits than
Python prints (``sys.get_int_max_str_digits()``),
3 for an internal error (a computed canonical form that is not
canonical), and 141 (128 + SIGPIPE), without a traceback, when stdout is
closed before the output is written, as by ``adjmon answer | head -1``.
``--json`` switches every command to line-delimited JSON records with
stable ordering.  Each command prints its result through :func:`_out`, one
record at a time, so its text and its JSON come from the same record.
``audit`` and ``answer`` decide termination on the redex pairs alone: they
call ``audit_termination`` at word length 1, where no word has a step.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain
from typing import Callable, Iterable

import adjmon as A  # A.monoid and A.confluence load on first access, as adjmon._DEFERRED says

from . import rewrite, words


def _out(args, record: Callable[[], dict] | None, lines: Iterable = ()) -> None:
    """Print one output record: under ``--json`` the dict that ``record()``
    returns, as one JSON line, otherwise ``lines``, one per line.  A record
    of None is text only.  Each side is built only in its own mode: the
    record is called only under ``--json``, and ``lines`` may be lazy.
    """
    if not args.json:
        for line in lines:
            print(line)
    elif record is not None:
        import json
        print(json.dumps(record(), sort_keys=True))


def _render_opt(w: words.Word | None) -> str | None:
    return None if w is None else words.render(w)


def cmd_normalize(args) -> int:
    w = words.parse(args.word)
    nf = words.render(rewrite.normalize(w))
    _out(args, lambda: {"record": "normalize", "input": words.render(w), "normal_form": nf}, [nf])
    return 0


# `trace` prints the word after every step, at most steps * len(w) letters, and
# under --json holds them all until the record is printed.
TRACE_BUDGET = 10**7

# `audit` finds the overlaps of the three-letter words over 2 (--max-index + 1) letters by joining their redex
# pairs: those of 100^3 words take 14-15 s and 18 MB (Python 3.11.7, 2-CPU Intel Xeon, fresh interpreters).
# The oracle's universe, the 3^d words of degree <= --max-degree, is held to it too:
# `audit --max-degree 12`, 531,441 words, takes 1.4-1.9 s (median 1.6 s) and 42 MB,
# its oracle run with the cyclic garbage collector paused.
AUDIT_MAX_WORDS = 10**6


def _check_words(flag: str, value: int, count: int, what: str) -> None:
    """Refuse flag's value if its audit would enumerate count words, over the limit; what says which."""
    if count > AUDIT_MAX_WORDS:
        raise ValueError(f"{flag} {value}: the {what}, over the limit of {AUDIT_MAX_WORDS:,}")


def cmd_trace(args) -> int:
    w = words.parse(args.word)
    nf = rewrite.normalize(w)
    # every step lowers the degree by 1, except EpsEta_Zero: by 2, deleting 2 letters
    steps = words.degree(w) - words.degree(nf) - (len(w) - len(nf)) // 2
    if steps * len(w) > TRACE_BUDGET:
        raise ValueError(
            f"trace would take {steps} steps on a word of {len(w)} letters, "
            f"over the budget of {TRACE_BUDGET} letters printed, or held under --json"
        )
    letters = list(w)
    moves = rewrite._leftmost_moves(letters)  # rewrites letters in place, step by step
    start = words.render(w)

    def record() -> dict:
        steps = [{"position": p, "case": rule.case.value, "after": words.render(letters)} for p, rule in moves]
        return {"record": "trace", "start": start, "steps": steps, "normal_form": words.render(letters)}

    _out(args, record, chain([start], (f"{words.render(letters)}  [{rule.case.value} @ {p}]" for p, rule in moves)))
    return 0


def cmd_degree(args) -> int:
    w = words.parse(args.word)
    d = words.degree(w)
    _out(args, lambda: {"record": "degree", "word": words.render(w), "degree": d}, [d])
    return 0


def cmd_f(args) -> int:
    w = words.parse(args.word)
    image = words.render(A.monoid.apply_f_word(w))
    _out(args, lambda: {"record": "f", "word": words.render(w), "image": image}, [image])
    return 0


def cmd_mul(args) -> int:
    a = A.monoid.element(words.parse(args.left))
    b = A.monoid.element(words.parse(args.right))
    product = A.monoid.mul(a, b)
    _out(args, lambda: {"record": "mul", "left": str(a), "right": str(b), "product": str(product)}, [product])
    return 0


def cmd_eq(args) -> int:
    left, right = words.parse(args.left), words.parse(args.right)
    u, v = rewrite.normalize(left), rewrite.normalize(right)
    _out(args, lambda: {"record": "eq", "left": words.render(left), "right": words.render(right), "equal": u == v,
                        "normal_forms": [words.render(u), words.render(v)]},
         ["equal" if u == v else "not-equal"])
    return 0


def _identity_records(args, report: A.monoid.IdentityReport, kind: str) -> int:
    for r in report.results:
        c = r.counterexample
        if c is None:
            failure, line = {}, f"{r.identity}  PASS ({r.instances} instances)"
        else:
            lhs, rhs = words.render(c.lhs_nf), words.render(c.rhs_nf)
            failure = {"counterexample": {"at": c.at, "lhs": lhs, "rhs": rhs}}
            at = f" at {c.at}" if c.at is not None else ""
            line = f"{r.identity}  FAIL{at}: lhs={lhs} rhs={rhs}"
        _out(args, lambda: {"record": kind, "id": r.identity, "pass": r.passed, "instances": r.instances, **failure},
             [line])
    return 0 if report.passed else 1


def _check_at_least(flag: str, value: int, minimum: int) -> None:
    """Refuse a bound below minimum, naming its flag and value."""
    if value < minimum:
        raise ValueError(f"{flag} {value}: the bound must be >= {minimum}")


def cmd_axioms(args) -> int:
    return _identity_records(args, A.monoid.check_axioms(), "axiom")


def cmd_ncheck(args) -> int:
    if args.word is not None:
        a = A.monoid.element(words.parse(args.word))
        # the only candidate witness, normalize(a*eta), has degree <= degree(a) + 1
        res = A.monoid.in_N(a, words.degree(a.nf) + 1)
        _out(args, lambda: {"record": "membership", "element": str(a), "member": res.member,
                            "witness": None if res.witness is None else str(res.witness)},
             [f"member: witness {res.witness}" if res.member else "not a member"])
        return 0
    return _identity_records(args, A.monoid.check_N_closure(), "submonoid")


def _condition_line(c: A.monoid.ConditionResult) -> str:
    at = f" at m={c.witness_at}" if c.witness_at is not None else ""
    status = "HOLDS" if c.holds else "DOES-NOT-HOLD"
    return f"{c.condition}  {status}{at}: lhs={words.render(c.lhs_nf)} rhs={words.render(c.rhs_nf)}"


def _derived_line(criteria: A.monoid.IsoCriteriaReport) -> str:
    status = "HOLDS" if criteria.derived_holds else "DOES-NOT-HOLD"
    return f"derived (f surjective; f iso; N=M)  {status} [propagated by equivalence]"


def cmd_iso(args) -> int:
    rep = A.monoid.iso_criteria_report()
    for c in rep.conditions:
        _out(args, lambda: {"record": "iso_condition", "condition": c.condition, "holds": c.holds, "at": c.witness_at,
                            "lhs": words.render(c.lhs_nf), "rhs": words.render(c.rhs_nf)},
             [_condition_line(c)])
    _out(args, lambda: {"record": "iso_derived", "holds": rep.derived_holds}, [_derived_line(rep)])
    return 0


def _row_line(r: A.confluence.SubcaseRow) -> str:
    formula = f"{r.formula_matches}/{r.instances}"
    if r.alt_formula_applicable:
        formula += f" (alt printed form {r.alt_formula_matches}/{r.alt_formula_applicable})"
    return (
        f"{r.family:9s} {r.subcase or '-':10s} {r.instances:>9d} {r.joinable:>8d}  "
        f"{_render_opt(r.sample_bound) or 'NOT_JOINABLE':14s} {formula}"
    )


def cmd_audit(args) -> int:
    oracle_len, oracle_index = A.confluence.ORACLE_MAX_LEN, A.confluence.ORACLE_MAX_INDEX
    d, letters = args.max_degree, 2 * args.max_index + 2
    # every bound is checked before the first audit runs; 3^64 words are over the limit already
    _check_words("--max-degree", d, 3 ** min(d, 64), f"oracle universe would enumerate 3^{d} words")
    _check_at_least("--max-degree", d, oracle_len * (oracle_index + 1))  # the population's top degree
    _check_at_least("--max-index", args.max_index, A.confluence.MIN_OVERLAP_INDEX)
    _check_words("--max-index", args.max_index, letters**3,  # the words whose overlaps the redex pairs' join covers
                 f"overlap audit would cover {letters**3:,} three-letter words")
    term = A.confluence.audit_termination(1, args.max_index)  # no word of length 1 has a step: the pairs decide
    conf = A.confluence.audit_local_confluence(args.max_index)
    oracle = A.confluence.cross_check_oracle(oracle_len, oracle_index, d)
    ok = term.passed and conf.passed and oracle.passed
    _out(args, lambda: {"record": "termination", "letters": letters, "pass": term.passed,
                        "bad_pairs": [[words.render((x, y)), drop] for x, y, drop in term.bad_pairs]},
         [f"termination: {letters} letters of index <= {args.max_index}, "
          f"{len(term.bad_pairs)} bad pairs  {'PASS' if term.passed else 'FAIL'}"])
    header = f"{'family':9s} {'subcase':10s} {'instances':>9s} {'joinable':>8s}  {'sample bound':14s} formula"
    _out(args, None, [f"local confluence (max index {conf.max_index}):", header])
    for r in conf.rows:  # the record's keys are SubcaseRow's field names
        _out(args, lambda: {"record": "confluence_row", **r._asdict(), "sample_bound": _render_opt(r.sample_bound)},
             [_row_line(r)])
    for family, subcase in conf.not_instantiated:
        _out(args, lambda: {"record": "not_instantiated", "family": family, "subcase": subcase},
             [f"{family} {subcase}  NOT INSTANTIATED at this index bound"])
    _out(args, None, [f"joinable: {'PASS' if conf.passed else 'FAIL (NOT_JOINABLE pairs present)'}"])
    bad = len(oracle.discrepancies)
    _out(args, lambda: {"record": "oracle_cross_check", "population": oracle.population,
                        "pairs": oracle.pairs_checked, "spot_checked": oracle.spot_checked,
                        "discrepancies": bad, "pass": oracle.passed},
         [f"oracle cross-check: population {oracle.population}, pairs {oracle.pairs_checked}, "
          f"spot-checked {oracle.spot_checked}, discrepancies {bad}  {'PASS' if oracle.passed else 'FAIL'}"])
    _out(args, lambda: {"record": "audit_summary", "pass": ok}, [f"audit: {'PASS' if ok else 'FAIL'}"])
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    u = words.parse(args.left)
    v = words.parse(args.right)
    _check_words("--max-degree", args.max_degree, 3 ** min(args.max_degree, 64),  # 3^64 words are over it already
                 f"oracle universe would enumerate 3^{args.max_degree} words")
    d = max(words.degree(u), words.degree(v))
    if d > args.max_degree:
        raise ValueError(f"--max-degree {args.max_degree}: the bound must be >= {d}, the degree of the input")
    res = A.confluence.equivalent_bounded(u, v, args.max_degree)
    # the record's other keys are OracleVerdict's field names
    _out(args, lambda: {"record": "oracle", "left": words.render(u), "right": words.render(v),
                        "max_degree": args.max_degree, **res._asdict()},
         ["equivalent" if res.equivalent else f"not-equivalent-within-bound (degree <= {args.max_degree})"])
    return 0


def cmd_answer(args) -> int:
    verdict = A.monoid.answer_open_question()
    term = A.confluence.audit_termination(1, 6)  # the redex pairs alone, at the overlaps' index bound
    conf = A.confluence.audit_local_confluence(6)
    certified = term.passed and conf.passed and conf.all_subcases_instantiated
    ok = verdict.verdict == A.monoid.NOT_ISO and certified
    criteria = verdict.criteria
    _out(
        args,
        lambda: {
            "record": "answer",
            "verdict": verdict.verdict,
            "eta_eps": words.render(verdict.eta_eps_nf),
            "eps_eta": words.render(verdict.eps_eta_nf),
            "eta_eps_idempotent": verdict.eta_eps_idempotent,
            "conditions": [{"condition": c.condition, "holds": c.holds} for c in criteria.conditions],
            "derived_holds": criteria.derived_holds,
            "certificate": {
                "termination": term.passed,
                "local_confluence": conf.passed,
                "all_subcases_instantiated": conf.all_subcases_instantiated,
            },
        },
        [
            f"verdict: {verdict.verdict}",
            "an adjunction between monoids need not be an isomorphism:",
            f"  eta*eps normalizes to {words.render(verdict.eta_eps_nf)!r}, a canonical form distinct from '1'",
            f"  eps*eta normalizes to {words.render(verdict.eps_eta_nf)!r}",
            f"  (eta*eps)^2 = eta*eps {'holds' if verdict.eta_eps_idempotent else 'fails'}: "
            "eta*eps is a non-identity idempotent",
            *(f"  {_condition_line(c)}" for c in criteria.conditions),
            f"  {_derived_line(criteria)}",
            f"certificate: termination {'PASS' if term.passed else 'FAIL'}, "
            f"local confluence {'PASS' if conf.passed else 'FAIL'} "
            f"(overlaps at max index {conf.max_index}; run `adjmon audit` for the oracle cross-check)",
        ],
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjmon",
        description="normal forms, word problem and confluence audit "
        "for the initial adjunction-in-monoids",
        epilog="words: whitespace-separated tokens h<k> / e<k> "
        "(unicode η<k> / ε<k> accepted); '1' is the identity",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="line-delimited JSON output")
        p.set_defaults(func=func)
        return p

    p = add("normalize", cmd_normalize, "print the canonical form of a word")
    p.add_argument("word")

    p = add("trace", cmd_trace, "print every leftmost reduction step")
    p.add_argument("word")

    p = add("degree", cmd_degree, "print the degree of a word")
    p.add_argument("word")

    p = add("f", cmd_f, "apply the index-shift endomorphism to a word")
    p.add_argument("word")

    p = add("mul", cmd_mul, "multiply two elements (canonical form of the product)")
    p.add_argument("left")
    p.add_argument("right")

    p = add("eq", cmd_eq, "decide the word problem for two words")
    p.add_argument("left")
    p.add_argument("right")

    add("axioms", cmd_axioms, "verify the defining identity suite at fixed bounds")

    p = add("ncheck", cmd_ncheck, "submonoid closure checks, or membership of a word")
    p.add_argument("word", nargs="?", default=None)

    add("iso", cmd_iso, "evaluate the conditions equivalent to the adjunction being an iso")

    p = add("audit", cmd_audit, "termination + local confluence + oracle cross-check")
    p.add_argument("--max-index", type=int, default=6, help="index bound for overlaps/termination")
    p.add_argument("--max-degree", type=int, default=9, help="oracle degree bound")

    p = add("oracle", cmd_oracle, "bounded bidirectional equivalence search for two words")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-degree", type=int, default=9)

    add("answer", cmd_answer, "the question's verdict with witnesses and certificate")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return status
    except BrokenPipeError:
        # the signal module's recipe: stdout to devnull, or the flush at exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except words.WordSyntaxError as exc:
        print(f"adjmon: parse error: {exc}", file=sys.stderr)
        return 2
    except words.NotCanonicalError as exc:
        print(f"adjmon: internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        if "integer string conversion" in str(exc):  # Python's own, raised while printing a number
            limit = sys.get_int_max_str_digits()
            exc = f"a number to print has more than {limit:,} digits, the most that Python prints"
        print(f"adjmon: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

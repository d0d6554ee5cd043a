"""Batch command-line interface.

Words on the command line use the grammar of :mod:`adjmon.words`:
tokens ``h<k>`` / ``e<k>`` (or ``η<k>`` / ``ε<k>``), optional whitespace,
and the bare token ``1`` for the identity.  Exit status: 0 for answered
queries and passing reports, 1 for failed reports or unjoinable pairs,
2 for usage or word-syntax errors, for ``trace`` runs over
:data:`TRACE_BUDGET`, for oracle bounds over :data:`ORACLE_MAX_DEGREE` and
for audit bounds over :data:`AUDIT_MAX_WORDS` words,
3 for an internal error (a computed canonical form that is not
canonical), and 141 (128 + SIGPIPE), without a traceback, when stdout is
closed before the output is written, as by ``adjmon answer | head -1``.
``--json`` switches every command to line-delimited JSON records with
stable ordering.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import confluence, monoid, rewrite, words


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _render_opt(w: words.Word | None) -> str | None:
    return None if w is None else words.render(w)


def cmd_normalize(args) -> int:
    w = words.parse(args.word)
    nf = rewrite.normalize(w)
    if args.json:
        _emit({"record": "normalize", "input": words.render(w), "normal_form": words.render(nf)})
    else:
        print(words.render(nf))
    return 0


# A trace stores the word after every step: at most steps * len(w) letters.
TRACE_BUDGET = 10**7

# The oracle searches words of degree <= --max-degree, and there are 3^d of
# them: 531,441 at this limit, where their component labels take 0.2 s to
# build and `adjmon audit --max-degree 12` takes 1.8-2.0 s with a peak RSS of
# 42 MB (Python 3.11.7, 2-CPU Intel Xeon).  Each degree above it about triples
# the time and more than doubles the memory.
ORACLE_MAX_DEGREE = 12


def _check_oracle_degree(max_degree: int) -> None:
    if max_degree > ORACLE_MAX_DEGREE:
        raise ValueError(
            f"--max-degree {max_degree}: the oracle universe would be 3^{max_degree} words, "
            f"over the limit of --max-degree {ORACLE_MAX_DEGREE} ({3**ORACLE_MAX_DEGREE} words)"
        )


# `audit` scans the three-letter words for overlaps and checks termination on the
# words of length <= --max-len, over 2 (--max-index + 1) letters.  Python 3.11.7,
# 2-CPU Intel Xeon: termination at (5, 6), 579,195 words, takes 1.6 s and 57 MB,
# at (6, 4), 1,111,111 words, 2.3 s and 93 MB; the overlaps at 100^3 words 24 s and 180 MB.
AUDIT_MAX_WORDS = 10**6


def _check_audit_words(max_index: int, max_len: int = -1) -> None:
    """Refuse an overlap scan, or a termination audit up to max_len (-1: none), over the limit."""
    letters = 2 * max_index + 2
    scans = {f"--max-index {max_index}: the overlap scan": range(3, 4)}
    scans[f"--max-len {max_len} --max-index {max_index}: the termination audit"] = range(max_len + 1)
    for what, lengths in scans.items():
        words = sum(letters**n for n in lengths[:65])  # 2^64 words are over the limit already
        if words > AUDIT_MAX_WORDS:
            count = f"{words:,}" if len(lengths) <= 65 else f"more than {letters}^64"
            raise ValueError(f"{what} would enumerate {count} words, over the limit of {AUDIT_MAX_WORDS:,}")


def cmd_trace(args) -> int:
    w = words.parse(args.word)
    nf = rewrite.normalize(w)
    # every step lowers the degree by 1, except EpsEta_Zero: by 2, deleting 2 letters
    steps = words.degree(w) - words.degree(nf) - (len(w) - len(nf)) // 2
    if steps * len(w) > TRACE_BUDGET:
        raise ValueError(
            f"trace would take {steps} steps on a word of {len(w)} letters, "
            f"over the budget of {TRACE_BUDGET} stored letters"
        )
    tr = rewrite.normalize_trace(w)
    if args.json:
        _emit(
            {
                "record": "trace",
                "start": words.render(tr.start),
                "steps": [
                    {"position": s.position, "case": s.rule.case.value, "after": words.render(s.after)}
                    for s in tr.steps
                ],
                "normal_form": words.render(tr.end),
            }
        )
    else:
        print(words.render(tr.start))
        for s in tr.steps:
            print(f"{words.render(s.after)}  [{s.rule.case.value} @ {s.position}]")
    return 0


def cmd_degree(args) -> int:
    w = words.parse(args.word)
    if args.json:
        _emit({"record": "degree", "word": words.render(w), "degree": words.degree(w)})
    else:
        print(words.degree(w))
    return 0


def cmd_f(args) -> int:
    w = words.parse(args.word)
    image = monoid.apply_f_word(w)
    if args.json:
        _emit({"record": "f", "word": words.render(w), "image": words.render(image)})
    else:
        print(words.render(image))
    return 0


def cmd_mul(args) -> int:
    a = monoid.element(words.parse(args.left))
    b = monoid.element(words.parse(args.right))
    product = monoid.mul(a, b)
    if args.json:
        _emit({"record": "mul", "left": str(a), "right": str(b), "product": str(product)})
    else:
        print(product)
    return 0


def cmd_eq(args) -> int:
    u = rewrite.normalize(words.parse(args.left))
    v = rewrite.normalize(words.parse(args.right))
    equal = u == v
    if args.json:
        _emit(
            {
                "record": "eq",
                "left": args.left,
                "right": args.right,
                "equal": equal,
                "normal_forms": [words.render(u), words.render(v)],
            }
        )
    else:
        print("equal" if equal else "not-equal")
    return 0


def _identity_records(report: monoid.IdentityReport, kind: str) -> int:
    for r in report.results:
        rec = {"record": kind, "id": r.identity, "pass": r.passed, "instances": r.instances}
        if r.counterexample is not None:
            rec["counterexample"] = {
                "at": r.counterexample.at,
                "lhs": words.render(r.counterexample.lhs_nf),
                "rhs": words.render(r.counterexample.rhs_nf),
            }
        _emit(rec)
    return 0 if report.passed else 1


def _check_at_least(args, minimum: int, *flags: str) -> None:
    """Refuse a bound below minimum, naming its flag and value."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < minimum:
            raise ValueError(f"{flag} {value}: the bound must be >= {minimum}")


def cmd_axioms(args) -> int:
    _check_at_least(args, 1, "--max-len", "--max-index")
    report = monoid.check_axioms(args.max_len, args.max_index)
    if args.json:
        return _identity_records(report, "axiom")
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_ncheck(args) -> int:
    if args.word is not None:
        a = monoid.element(words.parse(args.word))
        # the only candidate witness, normalize(a*eta), has degree <= degree(a) + 1
        res = monoid.in_N(a, words.degree(a.nf) + 1)
        if args.json:
            _emit(
                {
                    "record": "membership",
                    "element": str(a),
                    "member": res.member,
                    "witness": None if res.witness is None else str(res.witness),
                }
            )
        elif res.member:
            print(f"member: witness {res.witness}")
        else:
            print("not a member")
        return 0
    _check_at_least(args, 1, "--max-len", "--max-index")
    report = monoid.check_N_closure(args.max_len, args.max_index)
    if args.json:
        return _identity_records(report, "submonoid")
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_iso(args) -> int:
    rep = monoid.iso_criteria_report()
    if args.json:
        for c in rep.conditions:
            _emit(
                {
                    "record": "iso_condition",
                    "condition": c.condition,
                    "holds": c.holds,
                    "at": c.witness_at,
                    "lhs": words.render(c.lhs_nf),
                    "rhs": words.render(c.rhs_nf),
                }
            )
        _emit({"record": "iso_derived", "holds": rep.derived_holds})
    else:
        for line in rep.lines():
            print(line)
    return 0


def _termination_line(term: confluence.TerminationReport) -> str:
    status = "PASS" if term.passed else "FAIL"
    return (
        f"termination: {term.words_checked} words, {term.steps_checked} steps, "
        f"longest chain {term.longest_chain}  {status}"
    )


def _confluence_table(conf: confluence.LocalConfluenceReport) -> list[str]:
    lines = [f"local confluence (max index {conf.max_index}):"]
    header = f"{'family':9s} {'subcase':10s} {'instances':>9s} {'joinable':>8s}  {'sample bound':14s} formula"
    lines.append(header)
    for r in conf.rows:
        formula = f"{r.formula_matches}/{r.formula_applicable}" if r.formula_applicable else "-"
        if r.alt_formula_applicable:
            formula += f" (alt printed form {r.alt_formula_matches}/{r.alt_formula_applicable})"
        lines.append(
            f"{r.family:9s} {r.subcase or '-':10s} {r.instances:>9d} {r.joinable:>8d}  "
            f"{_render_opt(r.sample_bound) or 'NOT_JOINABLE':14s} {formula}"
        )
    if conf.not_instantiated:
        for family, subcase in conf.not_instantiated:
            lines.append(f"{family} {subcase}  NOT INSTANTIATED at this index bound")
    lines.append(f"joinable: {'PASS' if conf.passed else 'FAIL (NOT_JOINABLE pairs present)'}")
    return lines


def _oracle_line(oracle: confluence.CrossCheckReport) -> str:
    status = "PASS" if oracle.passed else "FAIL"
    return (
        f"oracle cross-check: population {oracle.population}, pairs {oracle.pairs_checked}, "
        f"spot-checked {oracle.spot_checked}, discrepancies {len(oracle.discrepancies)}  {status}"
    )


def cmd_audit(args) -> int:
    # every bound is checked before the first audit runs
    if not args.skip_oracle:
        _check_oracle_degree(args.max_degree)
        _check_at_least(args, 1, "--oracle-len")
        _check_at_least(args, 0, "--oracle-index")
        # the population's words have degree up to --oracle-len (--oracle-index + 1)
        _check_at_least(args, args.oracle_len * (args.oracle_index + 1), "--max-degree")
    _check_at_least(args, 2, "--max-index")  # indices up to 2 instantiate every overlap family
    _check_at_least(args, 0, "--disjoint-samples")
    if not args.skip_termination:
        _check_at_least(args, 1, "--max-len")
    _check_audit_words(args.max_index, -1 if args.skip_termination else args.max_len)
    ok = True
    term = None
    if not args.skip_termination:
        term = confluence.audit_termination(args.max_len, args.max_index)
        ok = ok and term.passed
    conf = confluence.audit_local_confluence(args.max_index, args.disjoint_samples)
    ok = ok and conf.passed
    oracle = None
    if not args.skip_oracle:
        oracle = confluence.cross_check_oracle(args.oracle_len, args.oracle_index, args.max_degree)
        ok = ok and oracle.passed
    if args.json:
        if term is not None:
            _emit(
                {
                    "record": "termination",
                    "words": term.words_checked,
                    "steps": term.steps_checked,
                    "longest_chain": term.longest_chain,
                    "pass": term.passed,
                }
            )
        for r in conf.rows:  # the record's keys are SubcaseRow's field names
            _emit({"record": "confluence_row", **r._asdict(), "sample_bound": _render_opt(r.sample_bound)})
        for family, subcase in conf.not_instantiated:
            _emit({"record": "not_instantiated", "family": family, "subcase": subcase})
        if oracle is not None:
            _emit(
                {
                    "record": "oracle_cross_check",
                    "population": oracle.population,
                    "pairs": oracle.pairs_checked,
                    "spot_checked": oracle.spot_checked,
                    "discrepancies": len(oracle.discrepancies),
                    "pass": oracle.passed,
                }
            )
        _emit({"record": "audit_summary", "pass": ok})
    else:
        if term is not None:
            print(_termination_line(term))
        for line in _confluence_table(conf):
            print(line)
        if oracle is not None:
            print(_oracle_line(oracle))
        print(f"audit: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    u = words.parse(args.left)
    v = words.parse(args.right)
    _check_oracle_degree(args.max_degree)
    d = max(words.degree(u), words.degree(v))
    if d > args.max_degree:
        raise ValueError(f"--max-degree {args.max_degree}: the bound must be >= {d}, the degree of the input")
    res = confluence.equivalent_bounded(u, v, args.max_degree)
    if args.json:
        _emit(
            {
                "record": "oracle",
                "left": words.render(u),
                "right": words.render(v),
                "equivalent": res.equivalent,
                "truncated": res.truncated,
                "max_degree": args.max_degree,
                "explored": res.explored,
            }
        )
    elif res.equivalent:
        print("equivalent")
    else:
        note = "; frontier truncated by the bound" if res.truncated else ""
        print(f"not-equivalent-within-bound (degree <= {args.max_degree}){note}")
    return 0


def cmd_answer(args) -> int:
    _check_at_least(args, 2, "--max-index")
    _check_audit_words(args.max_index)
    verdict = monoid.answer_open_question()
    term = confluence.audit_termination(4, 3)
    conf = confluence.audit_local_confluence(args.max_index)
    certified = term.passed and conf.passed and conf.all_subcases_instantiated
    ok = verdict.verdict == monoid.NOT_ISO and certified
    if args.json:
        _emit(
            {
                "record": "answer",
                "verdict": verdict.verdict,
                "eta_eps": words.render(verdict.eta_eps_nf),
                "eps_eta": words.render(verdict.eps_eta_nf),
                "eta_eps_idempotent": verdict.eta_eps_idempotent,
                "conditions": [
                    {"condition": c.condition, "holds": c.holds} for c in verdict.criteria.conditions
                ],
                "derived_holds": verdict.criteria.derived_holds,
                "certificate": {
                    "termination": term.passed,
                    "local_confluence": conf.passed,
                    "all_subcases_instantiated": conf.all_subcases_instantiated,
                },
            }
        )
    else:
        print(f"verdict: {verdict.verdict}")
        print("an adjunction between monoids need not be an isomorphism:")
        print(f"  eta*eps normalizes to {words.render(verdict.eta_eps_nf)!r}, "
              f"a canonical form distinct from '1'")
        print(f"  eps*eta normalizes to {words.render(verdict.eps_eta_nf)!r}")
        idem = "holds" if verdict.eta_eps_idempotent else "fails"
        print(f"  (eta*eps)^2 = eta*eps {idem}: eta*eps is a non-identity idempotent")
        for line in verdict.criteria.lines():
            print(f"  {line}")
        print(
            f"certificate: termination {'PASS' if term.passed else 'FAIL'}, "
            f"local confluence {'PASS' if conf.passed else 'FAIL'} "
            f"(overlaps at max index {conf.max_index}; run `adjmon audit` for the oracle cross-check)"
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

    p = add("axioms", cmd_axioms, "verify the defining identity suite within bounds")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--max-index", type=int, default=3)

    p = add("ncheck", cmd_ncheck, "submonoid closure checks, or membership of a word")
    p.add_argument("word", nargs="?", default=None)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--max-index", type=int, default=2)

    add("iso", cmd_iso, "evaluate the conditions equivalent to the adjunction being an iso")

    p = add("audit", cmd_audit, "termination + local confluence + oracle cross-check")
    p.add_argument("--max-index", type=int, default=6, help="index bound for overlaps/termination")
    p.add_argument("--max-len", type=int, default=4, help="word length bound for termination")
    p.add_argument("--max-degree", type=int, default=9, help="oracle degree bound")
    p.add_argument("--oracle-len", type=int, default=3)
    p.add_argument("--oracle-index", type=int, default=2)
    p.add_argument("--disjoint-samples", type=int, default=32)
    p.add_argument("--skip-oracle", action="store_true")
    p.add_argument("--skip-termination", action="store_true")

    p = add("oracle", cmd_oracle, "bounded bidirectional equivalence search for two words")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-degree", type=int, default=9)

    p = add("answer", cmd_answer, "the question's verdict with witnesses and certificate")
    p.add_argument("--max-index", type=int, default=6)

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
    except monoid.NotCanonicalError as exc:
        print(f"adjmon: internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"adjmon: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

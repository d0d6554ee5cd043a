"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from contextlib import contextmanager

from adjmon.cli import main
from adjmon.confluence import (
    all_words,
    audit_local_confluence,
    audit_termination,
    cross_check_oracle,
    equivalent_bounded,
)
from adjmon.monoid import (
    apply_f,
    check_axioms,
    check_N_closure,
    counit_shift,
    element,
    identity,
    in_N,
    mul,
    normal_words,
    shift_word,
)
from adjmon.rewrite import (
    is_normal,
    normalize,
    normalize_trace,
    reduction_graph,
    redexes,
    RuleCase,
)
from adjmon.words import degree, is_canonical_shape, parse, render


@contextmanager
def criterion(num, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {description}")
        raise
    else:
        elapsed = time.perf_counter() - started
        print(f"criterion {num}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_open_question(capsys):
    with criterion(1, "eta*eps != 1 while eps*eta = 1; answer exits 0 with NOT_ISO; < 1 ms"):
        he, eh = parse("h0 e0"), parse("e0 h0")
        normalize(he), normalize(eh)  # warm-up
        best = min(
            _timed(lambda: (normalize(he), normalize(eh))) for _ in range(5)
        )
        nf_he, nf_eh = normalize(he), normalize(eh)
        assert render(nf_he) == "h0 e0" and nf_he != ()
        assert nf_eh == ()
        assert best < 0.001
        code = main(["answer"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NOT_ISO" in out


def _timed(thunk):
    t = time.perf_counter()
    thunk()
    return time.perf_counter() - t


def test_criterion_2_axiom_suite():
    with criterion(2, "identity suite passes over nf len<=4, idx<=3; < 10 s"):
        t = time.perf_counter()
        report = check_axioms(max_len=4, max_index=3)
        elapsed = time.perf_counter() - t
        assert report.passed, report.results
        counts = {r.identity: r.instances for r in report.results}
        assert counts["eps*eta=1"] == 1
        assert counts["eps*f^2(m)=f(m)*eps"] == 495
        assert counts["f(m)*eta=eta*m"] == 495
        assert counts["eps*f(eps*f(m))=eps*f(m)*eps"] == 495
        assert counts["m=eps*f(m)*eta"] == 495
        assert elapsed < 10


def test_criterion_3_canonical_form_uniqueness():
    with criterion(3, "unique sinks equal normalize; three-way normality agreement; < 30 s"):
        t = time.perf_counter()
        for w in all_words(4, 3):
            assert reduction_graph(w).sinks == {normalize(w)}
        for w in all_words(4, 4):
            shape = is_canonical_shape(w)
            assert is_normal(w) == shape == (redexes(w) == [])
        assert time.perf_counter() - t < 30


def test_criterion_4_termination():
    with criterion(4, "every step drops degree by 1 (2 for the vanishing rule); chains <= degree"):
        report = audit_termination(max_len=4, max_index=3)
        assert report.passed
        assert report.bad_pairs == ()
        # the same facts observed on leftmost traces
        for w in all_words(3, 3):
            for s in normalize_trace(w).steps:
                gap = 2 if s.rule.case is RuleCase.EPS_ETA_ZERO else 1
                assert degree(s.before) - degree(s.after) == gap
            assert len(normalize_trace(w).steps) <= degree(w)


def test_criterion_5_local_confluence_audit():
    with criterion(5, "all families/subcases instantiated at index 6, 100% joinable, closed forms found; < 60 s"):
        t = time.perf_counter()
        report = audit_local_confluence(max_index=6)
        assert report.passed
        assert report.all_subcases_instantiated
        families = {(r.family, r.subcase) for r in report.rows}
        assert ("EEE", None) in families and ("HHH", None) in families
        assert len([f for f, s in families if f == "EEH"]) == 7
        assert len([f for f, s in families if f == "EHH"]) == 7
        for row in report.rows:
            assert row.joinable == row.instances
            # the stated closed form joins for every subcase (for the one
            # disputed subcase this is the derivation's form)
            assert row.formula_matches == row.instances
        disputed = report.row("EHH", "k>i+1")
        assert disputed.alt_formula_applicable == 10
        assert disputed.alt_formula_matches == 0  # the other printed form never joins
        assert time.perf_counter() - t < 60


def test_criterion_6_oracle_cross_check():
    with criterion(6, "bidirectional closure agrees with normal forms on len<=3, idx<=2, deg<=9; < 120 s"):
        t = time.perf_counter()
        report = cross_check_oracle(max_len=3, max_index=2, max_degree=9)
        assert report.passed
        assert report.population == 259
        assert equivalent_bounded(parse("e0 h1"), (), 9)
        assert equivalent_bounded(parse("e1 h1"), (), 9)
        assert not equivalent_bounded(parse("h0 e0"), (), 9)
        assert time.perf_counter() - t < 120


def test_criterion_7_algebraic_laws():
    with criterion(7, "monoid laws; f injective endomorphism commuting with normalize; tower cancellations"):
        pop = [element(w) for w in normal_words(2, 2)]
        assert len(pop) == 28
        one = identity()
        for a in pop:
            assert mul(a, one) == a == mul(one, a)
            for b in pop:
                ab = mul(a, b)
                for c in pop:
                    assert mul(ab, c) == mul(a, mul(b, c))
        big = [element(w) for w in normal_words(4, 3)]
        assert len({apply_f(a) for a in big}) == len(big)  # injective
        for a in big[:60]:
            for b in big[:30]:
                assert apply_f(mul(a, b)) == mul(apply_f(a), apply_f(b))
        for w in all_words(4, 3):
            assert normalize(shift_word(w)) == shift_word(normalize(w))
        for k in range(6):
            assert normalize(parse(f"e{k} h{k}")) == ()
            assert normalize(parse(f"e{k} h{k + 1}")) == ()


def test_criterion_8_submonoid_evidence():
    with criterion(8, "submonoid closure and recovery identities; membership witnesses for all products"):
        report = check_N_closure(max_len=3, max_index=2)
        assert report.passed, report.results
        assert {r.identity for r in report.results} == {
            "eps*f(m1)*eps*f(m2)=eps*f(eps*f(m1)*m2)",
            "n=eps*f(n*eta)",
        }
        for text in ("e0", "1"):
            a = element(parse(text))
            res = in_N(a, degree(a.nf) + 1)
            assert res.member and counit_shift(res.witness) == a
        members = [counit_shift(element(w)) for w in normal_words(3, 2)]
        for n1 in members:
            for n2 in members:
                product = mul(n1, n2)
                res = in_N(product, degree(product.nf) + 1)
                assert res.member
                assert counit_shift(res.witness) == product

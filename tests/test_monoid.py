from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given

from adjmon import monoid
from adjmon.monoid import (
    Element,
    answer_open_question,
    apply_f,
    apply_f_word,
    check_axioms,
    check_N_closure,
    counit_shift,
    element,
    elements,
    eps,
    eta,
    identity,
    in_N,
    iso_criteria_report,
    mul,
    normal_words,
    normal_words_of_degree,
    shift_word,
)
from adjmon.confluence import all_words
from adjmon.rewrite import is_normal, normalize
from adjmon.words import concat, degree, parse, render, word_key
from conftest import small_words


def test_distinguished_elements():
    assert str(identity()) == "1"
    assert str(eta()) == "h0"
    assert str(eps()) == "e0"


def test_element_requires_canonical_form():
    with pytest.raises(ValueError):
        Element(parse("e0 h0"))
    assert element(parse("e0 h0")) == identity()


def test_mul_examples():
    he = element(parse("h0 e0"))
    assert str(mul(he, he)) == "h0 e0"
    assert str(mul(eps(), eta())) == "1"
    assert str(mul(eta(), eps())) == "h0 e0"


def test_mul_monoid_laws_exhaustive():
    pop = elements(2, 2)
    assert len(pop) == 28
    one = identity()
    for a in pop:
        assert mul(a, one) == a == mul(one, a)
    for a in pop:
        for b in pop:
            ab = mul(a, b)
            for c in pop:
                assert mul(ab, c) == mul(a, mul(b, c))


@given(small_words(), small_words(), small_words())
def test_mul_associative(u, v, w):
    a, b, c = element(u), element(v), element(w)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(small_words(), small_words())
def test_mul_well_defined_on_representatives(u, v):
    assert normalize(concat(u, v)) == mul(element(u), element(v)).nf


def test_apply_f_examples():
    assert str(apply_f(element(parse("h0 e0")))) == "h1 e1"
    assert apply_f(identity()) == identity()
    assert apply_f_word(parse("e0 h0")) == parse("e1 h1")


def test_f_commutes_with_normalize_exhaustive():
    for w in all_words(3, 2):
        assert normalize(apply_f_word(w)) == apply_f(element(w)).nf


@given(small_words())
def test_f_commutes_with_normalize(w):
    assert normalize(apply_f_word(w)) == apply_f_word(normalize(w))


def test_f_is_injective_endomorphism():
    pop = elements(3, 2)
    images = {apply_f(a) for a in pop}
    assert len(images) == len(pop)
    for a in pop:
        for b in pop[:20]:
            assert apply_f(mul(a, b)) == mul(apply_f(a), apply_f(b))


def test_f_tower_cancellations():
    for k in range(6):
        assert normalize(parse(f"e{k} h{k}")) == ()
        assert normalize(parse(f"e{k} h{k + 1}")) == ()


def test_check_axioms_passes():
    report = check_axioms(2, 2)
    assert report.passed
    by_id = {r.identity: r for r in report.results}
    assert by_id["eps*eta=1"].instances == 1
    assert by_id["f(m)*eta=eta*m"].instances == 28
    assert by_id["m=eps*f(m)*eta"].passed
    assert report.results[0].passed


def test_check_axioms_specific_instances():
    # the two sides of each suite member at a chosen element
    assert normalize(parse("e0 h2")) == parse("h1 e0")  # eps*f^2(m) at m=eta
    assert normalize(parse("e1 h0")) == parse("h0 e0")  # f(m)*eta at m=eps
    assert normalize(parse("e0 h0")) == ()


def test_check_axioms_rejects_bad_bounds():
    with pytest.raises(ValueError):
        check_axioms(0, 3)


E0, H0 = parse("e0"), parse("h0")

# Each suite row's two sides with shift_word applied to whole arguments: the
# reference for the rows, which apply a memoized f to the pieces of a product.
REFERENCE_SIDES = {
    "eps*eta=1": lambda: (E0 + H0, ()),
    "eps*f(eta)=1": lambda: (E0 + parse("h1"), ()),
    "eps*f(eps)=eps^2": lambda: (E0 + parse("e1"), E0 + E0),
    "eps*f^2(m)=f(m)*eps": lambda m: (E0 + shift_word(m, 2), shift_word(m) + E0),
    "f(m)*eta=eta*m": lambda m: (shift_word(m) + H0, H0 + m),
    "eps*f(eps*f(m))=eps*f(m)*eps": lambda m: (E0 + shift_word(E0 + shift_word(m)), E0 + shift_word(m) + E0),
    "m=eps*f(m)*eta": lambda m: (m, E0 + shift_word(m) + H0),
    "eps*f(m1)*eps*f(m2)=eps*f(eps*f(m1)*m2)": lambda m1, m2: (
        E0 + shift_word(m1) + E0 + shift_word(m2),
        E0 + shift_word(E0 + shift_word(m1) + m2),
    ),
    "n=eps*f(n*eta)": lambda m: (E0 + shift_word(m), E0 + shift_word(E0 + shift_word(m) + H0)),
}


def test_suite_rows_build_the_reference_sides():
    pop = normal_words(3, 3)
    f = lru_cache(maxsize=None)(shift_word)
    suite = monoid._AXIOMS + monoid._N_CLOSURE
    assert [name for name, *_ in suite] == list(REFERENCE_SIDES)
    for name, arity, sides, _ in suite:
        for ws in product(pop, repeat=arity):
            assert sides(f, *ws) == REFERENCE_SIDES[name](*ws)


def test_check_N_closure_passes():
    report = check_N_closure(2, 2)
    assert report.passed
    closure, recovery = report.results
    assert closure.instances == 28 * 28
    assert recovery.instances == 28


def test_N_closure_specific_instances():
    # m1 = m2 = 1: both sides are eps*f(eps)
    assert normalize(parse("e0 e0")) == normalize(parse("e0 e1"))
    # m1 = eta, m2 = 1
    assert normalize(parse("e0 h1 e0")) == normalize(parse("e0 e1 h2")) == parse("e0")
    # member recovery at n = eps: n*eta = 1 so eps*f(n*eta) has word e0 e1 h1
    assert normalize(parse("e0 e1 h1")) == parse("e0")


def test_in_N_examples():
    found = in_N(eps(), 6)
    assert found.member and found.witness == identity()
    found = in_N(identity(), 6)
    assert found.member and str(found.witness) == "h0"
    assert not in_N(element(parse("h0 e0")), 6).member


def test_in_N_rejects_negative_bound():
    with pytest.raises(ValueError):
        in_N(eps(), -1)


def test_in_N_agrees_with_witness_scan():
    # reference: scan canonical forms by ascending degree for the first w
    # with eps*f(w) = a, the search in_N decides without enumerating
    population = [w for d in range(7) for w in normal_words_of_degree(d)]
    images = {w: counit_shift(Element(w)).nf for w in population}

    def scan(a, bound):
        for w in population:
            if degree(w) <= bound and images[w] == a.nf:
                return Element(w)
        return None

    cases = 0
    for w in population:
        a = Element(w)
        for bound in range(7):
            res = in_N(a, bound)
            witness = scan(a, bound)
            assert (res.member, res.witness) == (witness is not None, witness)
            cases += 1
    assert cases == 973


def test_in_N_at_degree_plus_one_is_the_h0_rule():
    # a is in N exactly when its canonical form does not begin with h0, and
    # the only candidate witness has degree <= degree(a) + 1
    cases = 0
    for d in range(10):
        for w in normal_words_of_degree(d):
            assert in_N(Element(w), d + 1).member == (w[:1] != eta().nf)
            cases += 1
    assert cases == 734


@given(small_words(max_len=5, max_index=10**12))
def test_in_N_h0_rule_at_huge_indices(w):
    for a in (element(w), mul(eta(), element(w))):
        assert in_N(a, degree(a.nf) + 1).member == (a.nf[:1] != eta().nf)


def test_in_N_witness_verifies():
    for text in ("e0", "1", "h1 e1", "h2 h2 e0"):
        a = element(parse(text))
        res = in_N(a, degree(a.nf) + 1)
        if res.member:
            assert counit_shift(res.witness) == a
            assert degree(res.witness.nf) <= degree(a.nf) + 1


def test_in_N_product_witness_matches_closure_form():
    # the found witness for n1*n2 equals normalize(eps*f(m1)*m2)
    m1, m2 = element(parse("h0")), element(parse("e1"))
    n1, n2 = counit_shift(m1), counit_shift(m2)
    product = mul(n1, n2)
    res = in_N(product, degree(product.nf) + 1)
    assert res.member
    expected = normalize(concat(concat((parse("e0")), shift_word(m1.nf)), m2.nf))
    assert res.witness.nf == expected


def test_iso_criteria_report():
    rep = iso_criteria_report()
    assert [c.condition for c in rep.conditions] == [
        "f(eta)=eta",
        "f(eps)=eps",
        "eta*eps=1",
        "f(m)=eta*m*eps",
    ]
    assert not any(c.holds for c in rep.conditions)
    assert {c.holds for c in rep.conditions} == {False} and not rep.derived_holds
    by_name = {c.condition: c for c in rep.conditions}
    assert render(by_name["f(eta)=eta"].lhs_nf) == "h1"
    assert render(by_name["eta*eps=1"].lhs_nf) == "h0 e0"
    assert by_name["f(m)=eta*m*eps"].witness_at == "1"


def test_answer_open_question():
    verdict = answer_open_question()
    assert verdict.verdict == "NOT_ISO"
    assert render(verdict.eta_eps_nf) == "h0 e0"
    assert verdict.eps_eta_nf == ()
    assert verdict.eta_eps_idempotent
    assert is_normal(verdict.eta_eps_nf)


def test_normal_word_enumeration_matches_filter():
    direct = normal_words(3, 2)
    filtered = {w for w in all_words(3, 2) if is_normal(w)}
    assert set(direct) == filtered
    assert len(direct) == 84
    assert len(normal_words(4, 3)) == 495
    assert direct == sorted(direct, key=word_key)


def test_normal_words_of_degree_matches_filter():
    # words of degree <= 5 have length <= 5 and indices <= 4
    by_degree = {}
    for w in all_words(5, 4):
        if is_normal(w) and degree(w) <= 5:
            by_degree.setdefault(degree(w), set()).add(w)
    for d in range(6):
        assert set(normal_words_of_degree(d)) == by_degree.get(d, set())

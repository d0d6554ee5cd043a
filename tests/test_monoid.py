import math
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adjmon import monoid, rewrite
from adjmon.monoid import (
    Element,
    MembershipResult,
    answer_open_question,
    apply_f,
    check_axioms,
    check_N_closure,
    counit_shift,
    element,
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
from adjmon.rewrite import _form, is_normal, normalize
from adjmon.words import NotCanonicalError, _words_by_degree, degree, is_canonical_shape, parse, render, word_key
from conftest import letters, small_words


def _elements(max_len, max_index):
    return [element(w) for w in normal_words(max_len, max_index)]


def test_distinguished_elements():
    assert str(identity()) == "1"
    assert str(eta()) == "h0"
    assert str(eps()) == "e0"


def test_element_requires_canonical_form():
    # a state: etas non-decreasing naturals, merges strictly increasing naturals
    for etas, merges in (((1, 0), ()), ((-1,), ()), ((), (0, 0)), ((), (1, 0)), ((), (-1,)), ((0.5,), ())):
        with pytest.raises(NotCanonicalError):
            Element(etas, merges)
    assert element(parse("e0 h0")) == identity()
    assert Element((0, 0, 2), (0, 2)) == element(parse("h0 h0 h2 e1 e0"))


def test_element_refuses_bool_entries():
    # isinstance(True, int) holds, but an entry True writes the letter ("h", True): it renders as hTrue, and the
    # shared letter cache, once it has evicted h1, hands that letter out for h1
    for etas, merges in (((True,), ()), ((), (False,)), ((0, True), (False,))):
        with pytest.raises(NotCanonicalError):
            Element(etas, merges)
    with pytest.raises(NotCanonicalError):
        element(parse("h1"))._replace(etas=(True,))


def test_element_times_a_non_element_is_a_type_error():
    # Element * x returns NotImplemented for a non-Element x, so Python raises TypeError, as for a + x and x * a.
    # x + a raises: Python tries a subclass's reflected __radd__ first, and on NotImplemented fell back to
    # tuple + tuple, which spliced a's two lists into the word x
    a = element(parse("h0"))
    for other in (2, 2.0, None, parse("e0"), ()):
        with pytest.raises(TypeError):
            a * other
        with pytest.raises(TypeError):
            other * a
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            other + a
    assert a * element(parse("e0")) == element(parse("h0 e0"))


def test_element_equals_only_an_element():
    # a tuple of the same two fields is not the element, in either order of comparison and as a dict key
    a = element(parse("h0"))
    for other in (((0,), ()), [(0,), ()], tuple(a), parse("h0"), None):
        assert not a == other and a != other
        assert not other == a and other != a
    assert ((0,), ()) not in {a: 1} and a not in {((0,), ()): 1}
    assert a == element(parse("e0 h1 h0")) and not a != element(parse("e0 h1 h0"))
    assert {a: 1}[Element((0,), ())] == 1 and len({a, Element((0,), ()), element(parse("h0 e0"))}) == 2


def test_element_states_are_the_canonical_forms():
    # a pair of tuples is admitted exactly when the word it writes is canonical, its indices naturals
    entries = [t for n in range(4) for t in product(range(-1, 3), repeat=n)]
    admitted = 0
    for etas, merges in product(entries, repeat=2):
        form = _form(etas, merges)
        canonical = is_canonical_shape(form) and all(g.index >= 0 for g in form)
        try:
            a = Element(etas, merges)
        except NotCanonicalError:
            assert not canonical
        else:
            assert canonical and a.nf == form and element(form) == a
            admitted += 1
    assert admitted == 20 * 8  # non-decreasing and strictly increasing tuples of length <= 3 over 0..2


def test_mul_examples():
    he = element(parse("h0 e0"))
    assert str(mul(he, he)) == "h0 e0"
    assert str(mul(eps(), eta())) == "1"
    assert str(mul(eta(), eps())) == "h0 e0"


def test_mul_monoid_laws_exhaustive():
    pop = _elements(2, 2)
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
    assert normalize(u + v) == mul(element(u), element(v)).nf


def test_apply_f_examples():
    assert str(apply_f(element(parse("h0 e0")))) == "h1 e1"
    assert apply_f(identity()) == identity()
    assert shift_word(parse("e0 h0")) == parse("e1 h1")


def test_f_commutes_with_normalize_exhaustive():
    for w in all_words(3, 2):
        assert element(w).nf == normalize(w)
        assert normalize(shift_word(w)) == apply_f(element(w)).nf


@given(small_words())
def test_f_commutes_with_normalize(w):
    assert normalize(shift_word(w)) == shift_word(normalize(w))


def test_f_is_injective_endomorphism():
    pop = _elements(3, 2)
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


def test_element_count_is_the_population_formula():
    # C(L + 2I + 2, L) canonical words of length <= L over indices <= I:
    # an h-block and an e-block, multisets over I + 1 indices each
    for max_len, max_index in ((3, 2), (4, 3), (5, 4)):
        assert len(_elements(max_len, max_index)) == math.comb(max_len + 2 * max_index + 2, max_len)


E0, H0 = parse("e0"), parse("h0")

# Each suite row's two sides with shift_word applied to whole arguments: the
# reference for the rows, which apply a memoized f to the pieces of a product.
REFERENCE_SIDES = {
    "eps*eta=1": lambda: (E0 + H0, ()),
    "eps*f(eta)=1": lambda: (E0 + parse("h1"), ()),
    "eps*f(eps)=eps^2": lambda: (E0 + parse("e1"), E0 + E0),
    "eps*f^2(m)=f(m)*eps": lambda m: (E0 + shift_word(shift_word(m)), shift_word(m) + E0),
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
    images = {w: counit_shift(element(w)).nf for w in population}

    def scan(a, bound):
        for w in population:
            if degree(w) <= bound and images[w] == a.nf:
                return element(w)
        return None

    cases = 0
    for w in population:
        a = element(w)
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
            assert in_N(element(w), d + 1).member == (w[:1] != eta().nf)
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
    expected = normalize(parse("e0") + shift_word(m1.nf) + m2.nf)
    assert res.witness.nf == expected


HUGE_WORDS = small_words(max_len=6, max_index=10**12)


@given(HUGE_WORDS)
def test_element_agrees_with_normalize_at_huge_indices(w):
    assert element(w).nf == normalize(w)


@given(HUGE_WORDS, HUGE_WORDS)
def test_mul_agrees_with_normalize_at_huge_indices(u, v):
    assert mul(element(u), element(v)).nf == normalize(u + v)


@given(HUGE_WORDS)
def test_apply_f_agrees_with_normalize_at_huge_indices(w):
    assert apply_f(element(w)).nf == normalize(shift_word(w))


@given(HUGE_WORDS)
def test_counit_shift_agrees_with_normalize_at_huge_indices(w):
    assert counit_shift(element(w)).nf == normalize(E0 + shift_word(w))


def in_N_reference(a, search_bound):
    """in_N on words: the candidate normalize(a*eta), accepted when eps*f of it normalizes to a's form."""
    c = normalize(a.nf + H0)
    if degree(c) <= search_bound and normalize(E0 + shift_word(c)) == a.nf:
        return True, c
    return False, None


@given(HUGE_WORDS, st.integers(-2, 1))
def test_in_N_agrees_with_word_reference_at_huge_indices(w, offset):
    # members, the element itself and non-members; the bound at and around the candidate's degree
    for a in (counit_shift(element(w)), element(w), mul(eta(), element(w))):
        bound = max(0, degree(normalize(a.nf + H0)) + offset)
        res = in_N(a, bound)
        assert (res.member, None if res.witness is None else res.witness.nf) == in_N_reference(a, bound)


def test_mul_folds_only_the_left_factor(monkeypatch):
    # the fold reads a's letters onto b's state: len(a.nf) letters, none of b's; in_N reads a member's onto h0's
    # and a non-member's none, counit_shift the one letter e0, and apply_f none
    pop = _elements(2, 2)
    read = []

    def counting(a, merges, letters):
        letters = list(letters)
        read.append(len(letters))
        rewrite._read(a, merges, letters)

    monkeypatch.setattr(monoid, "_read", counting)
    for a in pop:
        for b in pop:
            read.clear()
            assert mul(a, b).nf == normalize(a.nf + b.nf)
            assert read == [len(a.nf)]
        read.clear()
        apply_f(a)
        assert read == []
        counit_shift(a)
        assert read == [1]
        read.clear()
        res = in_N(a, 10)
        assert res.member == (a.nf[:1] != H0)
        assert read == ([len(a.nf)] if res.member else [])  # the witness alone: every one here has degree <= 7


def test_query_path_never_rechecks_a_form(monkeypatch):
    # element, mul, apply_f, in_N and counit_shift match no rule and normalize no word
    words = [parse(t) for t in ("1", "h0", "e0", "h0 e0", "e2 h1 h1 e0", "h3 e1 h1000000000000 e999999999999")]
    expected = [(mul(element(u), element(v)), apply_f(element(u)), in_N(element(u), 9), counit_shift(element(u)))
                for u in words for v in words]

    def refuse(*args):
        raise AssertionError("the query path re-checked a form")

    for module, name in ((rewrite, "is_normal"), (rewrite, "match_rule"), (rewrite, "normalize"),
                         (monoid, "normalize")):
        monkeypatch.setattr(module, name, refuse, raising=False)
    got = [(mul(element(u), element(v)), apply_f(element(u)), in_N(element(u), 9), counit_shift(element(u)))
           for u in words for v in words]
    assert got == expected


def test_state_table_matches_normalize_on_every_word_of_degree_9():
    # one table for all 19,683 words in _words_by_degree order: the rest r of each word x r was read before it,
    # so each word adds at most one transition, x at the state of r; each word leaves its canonical form's state
    state, _, moves = monoid._state_table()
    ws = [w for level in _words_by_degree(9) for w in level]
    assert len(ws) == 19683
    states = list(map(state, ws))
    assert sum(map(len, moves)) < len(ws) < sum(map(len, ws))
    assert states == [state(normalize(w)) for w in ws]


def test_state_table_numbers_each_canonical_form_once_on_every_word_of_degree_9():
    # two words share a state number exactly when normalize gives them the same form: the pairs (form, number)
    # are a bijection
    state, _, _ = monoid._state_table()
    pairs = {(normalize(w), state(w)) for level in _words_by_degree(9) for w in level}
    forms, numbers = zip(*pairs)
    assert len(pairs) == len(set(forms)) == len(set(numbers)) < 19683


BIG = 10**12


@given(st.lists(st.lists(st.one_of(letters(3), letters(BIG)), max_size=12).map(tuple), min_size=1, max_size=8))
def test_state_table_matches_normalize_at_huge_indices(ws):
    # through one table: every word, its suffix after one letter, and every word again, which walks only
    # transitions already made
    (state, _, _), numbers = monoid._state_table(), {}
    for w in ws + [w[1:] for w in ws] + ws:
        s = state(w)
        assert numbers.setdefault(normalize(w), s) == s
    assert len(set(numbers.values())) == len(numbers)


@given(st.lists(st.lists(st.one_of(letters(2), letters(BIG)), max_size=6).map(tuple), min_size=2, max_size=8))
def test_state_table_numbers_agree_with_forms_at_huge_indices(ws):
    # every pair of the words and their canonical forms through one table: equal numbers exactly when the forms are
    state, _, _ = monoid._state_table()
    ws += [normalize(w) for w in ws]
    for u, v in product(ws, repeat=2):
        assert (state(u) == state(v)) == (normalize(u) == normalize(v))


def test_monoid_reaches_no_normalize(monkeypatch):
    # every equality monoid decides is one of fold states: with normalize raising wherever monoid could reach it,
    # the suites, the isomorphism conditions and the verdict report what they report unpatched
    calls = (check_axioms, check_N_closure, iso_criteria_report, answer_open_question)
    expected = [call() for call in calls]

    def refuse(w):
        raise AssertionError("monoid normalized a word")

    monkeypatch.setattr(rewrite, "normalize", refuse)
    monkeypatch.setattr(monoid, "normalize", refuse, raising=False)
    assert [call() for call in calls] == expected


def _plain_table():
    # the suites' table without transitions: each word normalized whole, one number per canonical form
    states, ids = [], {}

    def state(w):
        nf = normalize(w)
        if nf not in ids:
            ids[nf] = len(states)
            states.append(tuple(element(nf)))
        return ids[nf]

    return state, states, []


@pytest.mark.parametrize(
    "check, suite, row",
    [
        (check_axioms, "_AXIOMS", ("m=f(m) at length 3", 1, lambda f, m: (m, f(m) if len(m) == 3 else m), "m={}")),
        (check_N_closure, "_N_CLOSURE", ("m1*m2=m2*m1", 2, lambda f, m1, m2: (m1 + m2, m2 + m1), "m1={} m2={}")),
    ],
)
def test_suite_memo_keeps_every_verdict(monkeypatch, check, suite, row):
    # a false row added to the suite: the table's state numbers and plain normalize's forms find the same counterexample
    monkeypatch.setattr(monoid, suite, getattr(monoid, suite) + (row,))
    memoized = check()
    monkeypatch.setattr(monoid, "_state_table", _plain_table)
    plain = check()
    assert memoized == plain
    failed = [r for r in memoized.results if not r.passed]
    assert [r.identity for r in failed] == [row[0]] and failed[0].instances > 2


@pytest.mark.parametrize("check, suite", [(check_axioms, "_AXIOMS"), (check_N_closure, "_N_CLOSURE")])
def test_suites_write_forms_only_for_a_counterexample(monkeypatch, check, suite):
    # the sides are compared by state number; _form writes a form for each side of a counterexample, and no other
    written = []

    def form_spy(etas, merges):
        written.append(_form(etas, merges))
        return written[-1]

    monkeypatch.setattr(monoid, "_form", form_spy)
    assert check(2, 1).passed and written == []
    row = ("m*h0=h0*m", 1, lambda f, m: (m + parse("h0"), parse("h0") + m), "m={}")
    monkeypatch.setattr(monoid, suite, getattr(monoid, suite) + (row,))
    bad = check(2, 1).results[-1].counterexample
    assert written == [bad.lhs_nf, bad.rhs_nf] and bad.lhs_nf != bad.rhs_nf


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
    # the derived conditions are decided by two witnesses, each checked here by its own criterion
    assert (render(rep.not_in_f_image), render(rep.not_in_N)) == ("h0", "h0 e0")
    assert all(g.index >= 1 for m in _elements(3, 2) for g in apply_f(m).nf)  # f(M) has no index-0 letter
    assert not in_N(element(rep.not_in_N), 3).member


def test_iso_derived_one_witness_decides(monkeypatch):
    # were h0 e0 in N, one witness would still decide the derived conditions false
    monkeypatch.setattr(monoid, "in_N", lambda a, bound: MembershipResult(True, a))
    rep = iso_criteria_report()
    assert (render(rep.not_in_f_image), rep.not_in_N, rep.derived_holds) == ("h0", None, False)


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

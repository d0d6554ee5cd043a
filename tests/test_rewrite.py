import pytest
from hypothesis import example, given

from adjmon.confluence import all_words
from adjmon.rewrite import (
    MATCH_RULE_CACHE_SIZE,
    NotARedexError,
    RuleCase,
    apply,
    is_canonical_shape,
    is_normal,
    match_rule,
    normalize,
    normalize_trace,
    reduction_graph,
    redexes,
)
from adjmon.words import Generator, _words_of_degree, degree, eps, eta, parse, render
from conftest import small_words

BIG = 10**12


def tags(w):
    return [(p, rule.case.value) for p, rule in redexes(w)]


def test_redexes_examples():
    assert tags(parse("h0 h1")) == []
    assert tags(parse("e0 h0")) == [(0, "EpsEta_Zero")]
    assert tags(parse("e0 e1 h2")) == [(0, "EpsEps"), (1, "EpsEta_JEqIPlus1")]


def test_rule_match_is_deterministic_and_total_on_eps_eta():
    for i in range(6):
        for j in range(6):
            assert match_rule(eps(i), eta(j)) is not None  # eps then eta: always
            assert match_rule(eta(i), eps(j)) is None  # eta then eps: never
            assert (match_rule(eps(i), eps(j)) is not None) == (j > i)
            assert (match_rule(eta(i), eta(j)) is not None) == (i > j)


def test_eps_eta_conditions_partition_index_pairs():
    seen = {}
    for i in range(8):
        for j in range(8):
            seen[(i, j)] = match_rule(eps(i), eta(j)).case
    assert seen[(0, 0)] is RuleCase.EPS_ETA_ZERO
    assert seen[(2, 2)] is RuleCase.EPS_ETA_EQUAL
    assert seen[(1, 2)] is RuleCase.EPS_ETA_NEXT
    assert seen[(0, 2)] is RuleCase.EPS_ETA_FAR
    assert seen[(3, 1)] is RuleCase.EPS_ETA_PAST
    assert all((i, j) in seen for i in range(8) for j in range(8))


def test_match_rule_shares_one_instance_per_letter_pair():
    pairs = {
        RuleCase.EPS_EPS: (eps(1), eps(3)),
        RuleCase.ETA_ETA: (eta(3), eta(1)),
        RuleCase.EPS_ETA_FAR: (eps(1), eta(4)),
        RuleCase.EPS_ETA_PAST: (eps(4), eta(1)),
        RuleCase.EPS_ETA_EQUAL: (eps(2), eta(2)),
        RuleCase.EPS_ETA_NEXT: (eps(2), eta(3)),
        RuleCase.EPS_ETA_ZERO: (eps(0), eta(0)),
    }
    assert set(pairs) == set(RuleCase)
    for case, (x, y) in pairs.items():
        rule = match_rule(x, y)
        assert rule.case is case
        assert match_rule(x, y) is rule
        assert match_rule(Generator(x.kind, x.index), Generator(y.kind, y.index)) is rule
    w = parse("e0 e1 h2 e0 h0")
    assert all(rule is match_rule(*w[p : p + 2]) for p, rule in redexes(w))


def test_is_normal_beyond_the_match_rule_cache():
    # more distinct letter pairs than the cache keeps, each index huge
    w = tuple(eta(BIG + t) for t in range(MATCH_RULE_CACHE_SIZE + 10))
    for word, normal in ((w, True), (w + (eps(BIG), eta(BIG)), False), ((eps(BIG),) + w, False)):
        assert is_normal(word) == is_canonical_shape(word) == normal
        assert match_rule.cache_info().currsize <= MATCH_RULE_CACHE_SIZE


def test_apply_examples():
    assert apply(parse("e0 h0"), 0) == parse("1")
    assert apply(parse("e0 e1"), 0) == parse("e0 e0")
    assert apply(parse("e2 h0"), 0) == parse("h0 e1")


def test_apply_rejects_non_redex():
    with pytest.raises(NotARedexError):
        apply(parse("h0 e0"), 0)
    with pytest.raises(NotARedexError):
        apply(parse("e0 h0"), 5)


def test_normalize_examples():
    assert render(normalize(parse("e0 h1"))) == "1"
    assert render(normalize(parse("h0 e0"))) == "h0 e0"
    assert render(normalize(parse("h1 h0"))) == "h0 h0"
    assert render(normalize(parse("e1 h1"))) == "1"


def test_normalize_trace_examples():
    tr = normalize_trace(parse("e0 h0"))
    assert len(tr.steps) == 1 and tr.end == ()
    assert normalize_trace(parse("h0 e0")).steps == ()
    tr = normalize_trace(parse("e1 h1"))
    assert len(tr.steps) == 3 and tr.end == ()
    assert [(s.position, s.rule.case.value) for s in tr.steps] == [
        (0, "EpsEta_IEqJPos"),
        (0, "EpsEta_JEqIPlus1"),
        (0, "EpsEta_Zero"),
    ]


def test_normalize_matches_rewriting_exhaustive():
    # the model read-off against the leftmost rewrite loop, on all 19,683 words of degree <= 9
    count = 0
    for d in range(10):
        for w in _words_of_degree(d):
            assert normalize(w) == normalize_trace(w).end, render(w)
            count += 1
    assert count == 19683


@given(small_words(max_len=39, max_index=11))
# the least eta index one below, equal to and above the letter's index
@example((eta(BIG + 1), eta(BIG)))
@example((eta(BIG), eta(BIG)))
@example((eps(BIG + 1), eta(BIG)))
@example((eta(BIG), eta(BIG + 1)))
def test_normalize_matches_rewriting(w):
    assert normalize(w) == normalize_trace(w).end


def test_normalize_long_and_huge_index_words():
    big = 10**12
    assert normalize(tuple(eps(i) for i in range(3000))) == (eps(0),) * 3000
    assert normalize((eps(0),) * 4000 + (eta(0),) * 4000) == ()
    # rewriting each of these takes more than 2 * 10**12 steps
    assert normalize((eps(big), eta(big))) == ()
    assert normalize((eta(5), eps(big), eta(big + 1), eps(3))) == parse("h5 e3")


@given(small_words())
def test_trace_steps_chain_and_decompose(w):
    tr = normalize_trace(w)
    assert tr.start == w
    assert tr.end == normalize(w)
    prev = w
    for s in tr.steps:
        assert s.before is prev  # shared, not copied: one new tuple per step
        p = s.position
        assert s.before[:p] == s.after[:p]
        assert s.before[p : p + 2] == s.rule.lhs
        assert s.after[p : p + len(s.rule.rhs)] == s.rule.rhs
        assert s.before[p + 2 :] == s.after[p + len(s.rule.rhs) :]
        prev = s.after


@given(small_words())
def test_every_step_drops_degree_by_its_gap(w):
    for s in normalize_trace(w).steps:
        gap = 2 if s.rule.case is RuleCase.EPS_ETA_ZERO else 1
        assert degree(s.before) - degree(s.after) == gap


@given(small_words())
def test_normalize_idempotent(w):
    nf = normalize(w)
    assert normalize(nf) == nf


@given(small_words())
def test_trace_length_bounded_by_degree(w):
    assert len(normalize_trace(w).steps) <= degree(w)


def test_is_normal_examples():
    assert is_normal(parse("1"))
    assert is_normal(parse("h0 h2 e3 e3 e1"))
    assert not is_normal(parse("e0 h5"))


def test_normality_three_way_characterization():
    for w in all_words(4, 4):
        shape = is_canonical_shape(w)
        assert is_normal(w) == shape
        assert (redexes(w) == []) == shape


def test_reduction_graph_examples():
    g = reduction_graph(parse("h0 e0"))
    assert g.nodes == {parse("h0 e0")} and g.edges == set()
    g = reduction_graph(parse("e0 e1 h2"))
    assert g.sinks == {normalize(parse("e0 e1 h2"))} == {parse("e0")}
    g = reduction_graph(parse("e0 h0"))
    assert g.nodes == {parse("e0 h0"), ()}
    assert g.edges == {(parse("e0 h0"), ())}


def test_strategy_independence_small_exhaustive():
    for w in all_words(3, 2):
        assert reduction_graph(w).sinks == {normalize(w)}


@given(small_words(max_len=5, max_index=3))
def test_strategy_independence(w):
    assert reduction_graph(w).sinks == {normalize(w)}


def test_longest_chain():
    assert reduction_graph(parse("e1 h1")).longest_chain() == 3
    assert reduction_graph(parse("h0 e0")).longest_chain() == 0


def test_longest_chain_deeper_than_recursion_limit():
    w = (eps(0),) * 600 + (eta(0),) * 600
    assert reduction_graph(w).longest_chain() == 600


def test_graph_deduplicates_nodes():
    # both redexes of this word produce the same successor
    w = parse("e0 h0 e0 h0")
    g = reduction_graph(w)
    assert g.successors[w] == (parse("e0 h0"),)
    assert g.sinks == {()}

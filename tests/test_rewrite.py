import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from adjmon import rewrite
from adjmon.confluence import all_words
from adjmon.rewrite import (
    INF,
    I,
    J,
    O,
    MATCH_RULE_CACHE_SIZE,
    VANISHING,
    NotARedexError,
    RuleCase,
    RuleInstance,
    _leftmost_moves,
    apply,
    first_row,
    forward_steps,
    inverse_steps,
    is_normal,
    left_sides,
    match_rule,
    normalize,
    normalize_trace,
    reduction_graph,
    redexes,
)
from adjmon.words import _LETTERS, EPS, ETA, LETTER_CACHE_SIZE, Generator, _words_by_degree, degree, eps, eta, is_canonical_shape, letter, parse, render
from conftest import letters, small_words

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


def test_rule_case_prints_as_its_tag():
    # how a str-mixin Enum formats has changed between Python versions; the tag must not
    for case in RuleCase:
        assert str(case) == f"{case}" == case.value


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


# The rules written as an if/else ladder, and their inversion by a scan over
# every index split: independent references for RULES, match_rule and left_sides.
def _ladder(x, y):
    if x.kind == EPS:
        i = x.index
        if y.kind == EPS:
            j = y.index
            if j > i:
                return RuleInstance(RuleCase.EPS_EPS, (x, y), (eps(j - 1), eps(i)))
            return None
        j = y.index
        if j > i + 1:
            return RuleInstance(RuleCase.EPS_ETA_FAR, (x, y), (eta(j - 1), eps(i)))
        if i > j:
            return RuleInstance(RuleCase.EPS_ETA_PAST, (x, y), (eta(j), eps(i - 1)))
        if i == j:
            if i == 0:
                return RuleInstance(RuleCase.EPS_ETA_ZERO, (x, y), ())
            return RuleInstance(RuleCase.EPS_ETA_EQUAL, (x, y), (eps(i - 1), eta(i)))
        # j == i + 1
        return RuleInstance(RuleCase.EPS_ETA_NEXT, (x, y), (eps(i), eta(i)))
    if y.kind == ETA:
        j, i = x.index, y.index
        if j > i:
            return RuleInstance(RuleCase.ETA_ETA, (x, y), (eta(i), eta(j - 1)))
        return None
    return None


def _scan(x, y):
    total = x.index + y.index + 1
    out = []
    for n, a, b in product(range(total + 1), (ETA, EPS), (ETA, EPS)):
        lhs = (letter(a, n), letter(b, total - n))
        rule = _ladder(*lhs)
        if rule is not None and rule.rhs == (x, y):
            out.append(lhs)
    return tuple(out)


def _pairs(max_index):
    indices = range(max_index + 1)
    return [(letter(a, i), letter(b, j)) for a, b in product((ETA, EPS), repeat=2) for i in indices for j in indices]


def test_match_rule_agrees_with_the_ladder():
    for x, y in _pairs(40):
        rule = match_rule(x, y)
        assert rule == _ladder(x, y)
        assert rule is None or all(g is letter(*g) for g in rule.rhs)  # shared letters


@given(letters(BIG), letters(BIG))
@example(eps(BIG), eta(BIG))
@example(eps(0), eta(0))
@example(eps(BIG), eta(BIG + 1))
def test_match_rule_agrees_with_the_ladder_at_huge_indices(x, y):
    assert match_rule(x, y) == _ladder(x, y)


def test_left_sides_equal_the_scan_in_order():
    for x, y in _pairs(24):
        if x.index + y.index <= 24:
            assert left_sides(x, y) == _scan(x, y)


def _rule_rows():
    """(kinds, row) for every row of RULES, in table order."""
    return [(kinds, row) for kinds, rows in rewrite.RULES.items() for row in rows]


def _rule_guards_are_disjoint():
    # a row fires on a factor of its kinds whose indices satisfy its guard, read alone
    def fires(kinds, row, x, y):
        return kinds == (x.kind, y.kind) and first_row((row,), (x.index, y.index)) is row

    return all(sum(fires(kinds, row, x, y) for kinds, row in _rule_rows()) <= 1 for x, y in _pairs(40))


def test_rule_guards_are_disjoint():
    assert [row[0] for _, row in _rule_rows()] == list(RuleCase)
    assert _rule_guards_are_disjoint()
    # each two-letter right-hand side reads i once and j once, with constants <= 0, as left_sides solves it
    rhss = [rhs for _, (*_, rhs) in _rule_rows() if rhs]
    assert all(sorted(v for _, v, _ in rhs) == [I, J] and all(c <= 0 for *_, c in rhs) for rhs in rhss)


def test_rule_table_states_the_degree_facts_inverse_steps_rests_on():
    # inverse_steps admits a replaced factor at degree d + 1 and an inserted vanishing side at d + its degree;
    # audit_termination checks the same drops on the redex pairs, these checks tie them to the rows themselves
    assert all(sum(c for *_, c in rhs) == -1 for _, (*_, rhs) in _rule_rows() if len(rhs) == 2)
    assert all(degree(lhs) == 2 for lhs in VANISHING)
    assert VANISHING == (parse("e0 h0"),)
    assert inverse_steps((), 2) == [parse("e0 h0")] and inverse_steps((), 1) == []


def _agrees_with_the_ladder():
    return all(match_rule(x, y) == _ladder(x, y) for x, y in _pairs(40))


def _agrees_with_the_scan():
    return all(left_sides(x, y) == _scan(x, y) for x, y in _pairs(24) if x.index + y.index <= 24)


def test_a_widened_rule_guard_fails_disjointness_and_the_ladder(mutated_rules):
    # e_i h_{i+2} now also matches EpsEta_JEqIPlus1, which is read before EpsEta_JGtIPlus1 and wins there
    mutated_rules(RuleCase.EPS_ETA_NEXT, ((J, I, 1, 2),))
    assert not _rule_guards_are_disjoint()
    assert not _agrees_with_the_ladder()


def test_a_raised_rule_bound_fails_the_scan(mutated_rules):
    mutated_rules(RuleCase.EPS_ETA_EQUAL, ((J, I, 0, 0), (I, O, 2, INF)))  # e1 h1 no longer rewrites
    assert _rule_guards_are_disjoint()  # narrowing a guard keeps the rows disjoint
    assert not _agrees_with_the_scan()
    assert left_sides(eps(0), eta(1)) == () and _scan(eps(0), eta(1)) == (parse("e1 h1"),)


@pytest.mark.parametrize("rewriter", [normalize_trace, forward_steps, lambda w: apply(w, 0), reduction_graph],
                         ids=["normalize_trace", "forward_steps", "apply", "reduction_graph"])
def test_a_right_hand_side_of_none_raises_in_every_rewriter(mutated_rules, rewriter):
    # e_i e_j -> e_{j-2} e_i gives e0 e1 the letter e_{-1}: the leftmost rewriting raises as the others do, deleting nothing
    mutated_rules(RuleCase.EPS_EPS, rhs=((EPS, J, -2), (EPS, I, 0)))
    assert match_rule(eps(0), eps(1)).rhs is None
    with pytest.raises(TypeError):
        rewriter(parse("e0 e1"))


def test_inverse_steps_order():
    # replaced factors left to right, each in left_sides order, then each vanishing side at every position
    def reference(w, max_degree):
        d, parents = degree(w), []
        if d + 1 <= max_degree:
            for p in range(len(w) - 1):
                parents.extend(w[:p] + lhs + w[p + 2 :] for lhs in left_sides(w[p], w[p + 1]))
        for lhs in VANISHING:
            if d + degree(lhs) <= max_degree:
                parents.extend(w[:p] + lhs + w[p:] for p in range(len(w) + 1))
        return parents

    for level in _words_by_degree(6):
        for w in level:
            for bound in range(degree(w), degree(w) + 3):
                assert inverse_steps(w, bound) == reference(w, bound)


@given(letters(BIG), letters(BIG))
@example(eps(BIG), eta(BIG))
@example(eps(BIG), eta(BIG + 1))
@example(eta(BIG + 1), eta(BIG))
def test_left_sides_invert_match_rule_at_huge_indices(a, b):
    targets = [(a, b)]
    rule = match_rule(a, b)
    if rule is not None and rule.rhs:
        assert (a, b) in left_sides(*rule.rhs)
        targets.append(rule.rhs)
    for x, y in targets:
        for lhs in left_sides(x, y):
            assert match_rule(*lhs).rhs == (x, y)


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
    for level in _words_by_degree(9):
        for w in level:
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
    # the families whose letters land at the back of a or merges: e0^n h0^n and h0^n update a run of equal
    # values at the back of a, h(n-1) ... h0 appends to a and e(n-1) ... e0 to merges; h0 ... h(n-1) inserts
    # at the front of a
    assert normalize((eps(0),) * 4000 + (eta(0),) * 4000) == ()
    assert normalize((eta(0),) * 4000) == (eta(0),) * 4000
    assert normalize(tuple(eta(i) for i in reversed(range(4000)))) == (eta(0),) * 4000
    ups = tuple(eta(i) for i in range(2000))
    downs = tuple(eps(i) for i in reversed(range(2000)))
    assert normalize(ups) == ups
    assert normalize(downs) == downs
    assert normalize(ups[::-1]) == (eta(0),) * 2000
    # rewriting each of these takes more than 2 * 10**12 steps
    assert normalize((eps(big), eta(big))) == ()
    assert normalize((eta(5), eps(big), eta(big + 1), eps(3))) == parse("h5 e3")


def test_normalize_returns_shared_letters():
    for w in all_words(3, 2):
        assert all(g is letter(*g) for g in normalize(w))
    assert all(g is letter(*g) for g in normalize(parse("h5 e9 h7 e3 e4")))


def test_normalize_beyond_the_letter_cache():
    # 5,000 distinct indices, more than a letter table keeps: a canonical
    # eta block and eps block, then one eta that rewriting moves a few places
    ups = tuple(eta(BIG + 2 * t) for t in range(4990))
    downs = tuple(eps(BIG + 10**6 - t) for t in range(10))
    w = ups + downs + (eta(BIG + 2 * 4985 + 1),)
    assert len({g.index for g in w}) == 5001
    nf = normalize(w)
    assert all(len(table) <= LETTER_CACHE_SIZE for table in _LETTERS.values())
    assert is_canonical_shape(nf)
    assert nf == normalize_trace(w).end


@given(st.lists(letters(63), min_size=100, max_size=300).map(tuple))
def test_normalize_matches_rewriting_long_words(w):
    # long lists a and merges: both bisections run many iterations
    assert normalize(w) == normalize_trace(w).end


@given(st.lists(st.tuples(letters(7), st.integers(1, 60)), max_size=12))
def test_normalize_matches_rewriting_on_runs(runs):
    # each run repeats one letter: long runs of equal values in a, updated at its back when they reach it
    w = tuple(g for g, count in runs for _ in range(count))
    assert normalize(w) == normalize_trace(w).end


@pytest.mark.parametrize(
    "word, nf",
    [
        # r, the number of gaps below k, for an eta: 0, len(a) and interior
        ("h0 h5", "h0 h5"),
        ("h5 h0", "h0 h4"),
        ("h3 h0 h5", "h0 h2 h5"),
        # the same three for an eps, which deletes a gap or lowers the gaps from r on
        ("e0 h1 h4", "h4"),
        ("e0 h2 h5", "h1 h4 e0"),
        ("e9 h0 h2", "h0 h2 e7"),
        ("e4 h0 h4", "h0"),
        ("e3 h0 h5", "h0 h4 e2"),
        # a run of equal values from r on, in a list of more than 64: updated at the back of a when the run
        # reaches the back, at r when it stops short; an eta, then an eps that deletes a gap
        pytest.param("h0 " * 65 + "h0", "h0 " * 65 + "h0", id="h0^66"),
        pytest.param("h0 " * 66 + "h70", "h0 " * 66 + "h70", id="h0^66 h70"),
        pytest.param("e0 " + "h0 " * 65 + "h0", "h0 " * 64 + "h0", id="e0 h0^66"),
        pytest.param("e0 " + "h0 " * 65 + "h70", "h0 " * 64 + "h70", id="e0 h0^65 h70"),
        # m, the number of merge points of rank <= y: 0, len(merges) and interior
        ("e0 e5", "e4 e0"),
        ("e5 e0", "e5 e0"),
        ("e3 e0 e5", "e3 e3 e0"),
    ],
)
def test_normalize_search_ends_and_interior(word, nf):
    w = parse(word)
    assert render(normalize(w)) == nf
    assert normalize(w) == normalize_trace(w).end


def test_normalize_search_interior_of_long_lists():
    # gaps 0, 3, ..., 117: h61 lands at r = 21 of 40
    w = (eta(61),) + tuple(eta(2 * t) for t in range(40))
    assert normalize(w) == w[1:22] + (eta(40),) + w[22:] == normalize_trace(w).end
    # merge ranks 0, 3, ..., 117: e50 lands at m = 17 of 40
    w = (eps(50),) + tuple(eps(3 * t) for t in reversed(range(40)))
    assert normalize(w) == normalize_trace(w).end


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
def test_trace_end_is_the_last_replayed_word(w):
    tr = normalize_trace(w)
    steps = tr.steps
    assert [(s.position, s.rule) for s in steps] == list(tr.moves)
    assert tr.end == (steps[-1].after if steps else tr.start) == normalize(w)


@given(small_words(max_len=12))
@example(parse("e0 e1 e2 e3"))
@example(parse("e0 e0 e0 h0 h0 h0"))
def test_leftmost_moves_rewrite_before_each_yield(w):
    # adjmon trace prints the list as it stands at each yield
    buf = list(w)
    seen = [(p, rule, tuple(buf)) for p, rule in _leftmost_moves(buf)]
    assert seen == [(s.position, s.rule, s.after) for s in normalize_trace(w).steps]
    assert tuple(buf) == normalize(w)


def test_trace_memory_grows_with_its_steps_not_their_words():
    # e0 ... e299: 44,850 steps on 300 letters; a word stored per step takes about 108 MB
    w = tuple(eps(i) for i in range(300))
    tracemalloc.start()
    try:
        tr = normalize_trace(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tr.moves) == 44850
    assert peak < 16 * 2**20


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
    assert g.successors == {parse("h0 e0"): ()}
    g = reduction_graph(parse("e0 e1 h2"))
    assert g.sinks == {normalize(parse("e0 e1 h2"))} == {parse("e0")}
    g = reduction_graph(parse("e0 h0"))
    assert g.nodes == {parse("e0 h0"), ()}
    assert g.successors == {parse("e0 h0"): ((),), (): ()}


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

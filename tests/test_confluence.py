import gc
import subprocess
import sys

import pytest
from collections import Counter
from itertools import accumulate, combinations, combinations_with_replacement, islice, product
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adjmon import confluence, rewrite
from adjmon.confluence import (
    CriticalPair,
    _least,
    all_words,
    alternative_bound,
    audit_local_confluence,
    audit_termination,
    common_reducts,
    connected_components,
    cross_check_oracle,
    enumerate_overlaps,
    equivalent_bounded,
    forward_steps,
    inverse_steps,
)
from adjmon import cli
from adjmon.rewrite import INF, I, J, K, O, RuleCase, RuleInstance, apply, instantiate, normalize_trace, reduction_graph, redexes
from adjmon.words import EPS, Generator, _block_start, _words_by_degree, alphabet, degree, is_canonical_shape, letter
from adjmon.words import ETA, parse, render
from adjmon.words import eps as eps_letter
from adjmon.words import eta as eta_letter
from conftest import small_words


# --- overlap enumeration ------------------------------------------------------

def test_enumerate_overlap_family_counts():
    for max_index, counts in [
        (2, {"EEE": 1, "HHH": 1, "EEH": 9, "EHH": 9}),
        (6, {"EEE": 35, "HHH": 35, "EEH": 147, "EHH": 147}),
    ]:
        got = Counter(p.family for p in enumerate_overlaps(max_index))
        assert got == counts


def test_enumerate_overlaps_examples():
    parents = {render(p.parent): (p.family, p.subcase) for p in enumerate_overlaps(2)}
    assert parents["e0 e1 e2"] == ("EEE", None)
    assert parents["e0 e1 h2"] == ("EEH", "k=j+1")


# The critical pairs as they were built before the audits read one scan of
# the redex pairs (``confluence._redex_pairs``): the overlaps from a scan of
# every three-letter word, the disjoint sample from a search of the redex
# positions of every word of length <= 4.  The built pairs must equal them.
def _scanned_overlap_pairs(max_index):
    for parent in product(alphabet(max_index), repeat=3):
        if confluence.match_rule(*parent[:2]) is None or confluence.match_rule(*parent[1:]) is None:
            continue
        family = "".join(g.kind for g in parent).upper()
        if family not in confluence._CASES:
            raise AssertionError(f"overlap outside the four families at {render(parent)}")
        indices = tuple(g.index for g in parent)
        name, _, form = rewrite.first_row(confluence._CASES[family], indices)
        yield CriticalPair(parent, apply(parent, 0), apply(parent, 1), family, name, instantiate(form, indices))


def _searched_disjoint_pair(w):
    for p1, p2 in combinations([p for p, _ in redexes(w)], 2):
        if p2 - p1 >= 2:
            left = apply(w, p1)
            # rewriting at p1 may shorten the word by 2 (the vanishing rule)
            both = apply(left, p2 + len(left) - len(w))
            return CriticalPair(w, left, apply(w, p2), confluence.DISJOINT, None, both)
    return None


def _searched_disjoint_parents(max_index):
    parents = (w for w in all_words(5, min(max_index, 3)) if _searched_disjoint_pair(w) is not None)
    return list(islice(parents, confluence.DISJOINT_SAMPLES))


def test_overlap_pairs_match_the_word_scan():
    for max_index in [*range(2, 13), 20]:
        assert list(confluence._overlap_pairs(max_index)) == list(_scanned_overlap_pairs(max_index))


def test_disjoint_pairs_match_the_redex_search():
    for max_index in (2, 3, 6, 10):
        searched = [_searched_disjoint_pair(w) for w in _searched_disjoint_parents(max_index)]
        assert list(confluence._disjoint_pairs(max_index)) == searched


def test_an_overlap_outside_the_families_is_a_hard_error(monkeypatch):
    # a rule h0 e0 -> 1 makes h0 e0 h0, of letter pattern HEH, the first parent with two redexes
    real = confluence.match_rule
    vanishing = real(*parse("e0 h0"))
    monkeypatch.setattr(confluence, "match_rule", lambda x, y: vanishing if (x, y) == parse("h0 e0") else real(x, y))
    for overlaps in (enumerate_overlaps, lambda max_index: list(_scanned_overlap_pairs(max_index))):
        with pytest.raises(AssertionError, match="^overlap outside the four families at h0 e0 h0$"):
            overlaps(2)


def test_enumerate_overlaps_requires_bound():
    with pytest.raises(ValueError, match="max_index must be >= 2 to instantiate every overlap family"):
        enumerate_overlaps(1)
    # the least bound at which every family has a parent; every subcase needs 3
    assert {p.family for p in enumerate_overlaps(confluence.MIN_OVERLAP_INDEX)} == {"EEE", "HHH", "EEH", "EHH"}


def test_overlap_parents_reduce_to_both_reducts():
    for p in enumerate_overlaps(3):
        succ = set(forward_steps(p.parent))
        assert p.left_reduct in succ and p.right_reduct in succ


def test_subcases_partition():
    def subcase(family, i, j, k):
        return rewrite.first_row(confluence._CASES[family], (i, j, k))[0]

    names = {family: {name for name, _, _ in table} for family, table in confluence._CASES.items()}
    r = range(7)
    eeh = {(i, j, k): subcase("EEH", i, j, k) for i in r for j in r for k in r if i < j}
    assert set(eeh.values()) == names["EEH"]
    assert eeh[(0, 1, 3)] == "k>j+1"
    assert eeh[(0, 1, 2)] == "k=j+1"
    assert eeh[(0, 3, 2)] == "i+1<k<j"
    assert eeh[(1, 2, 0)] == "k<i"
    ehh = {(i, j, k): subcase("EHH", i, j, k) for i in r for j in r for k in r if j > k}
    assert set(ehh.values()) == names["EHH"]
    assert ehh[(2, 1, 0)] == "i>j"
    assert ehh[(0, 3, 2)] == "k>i+1"
    assert ehh[(1, 3, 0)] == "k<i<j-1"


# --- joinability and closed forms --------------------------------------------

def test_resolve_examples():
    by_parent = {render(p.parent): p for p in enumerate_overlaps(3)}
    pair = by_parent["e0 e1 e2"]
    assert _least(common_reducts(pair)) in common_reducts(pair)
    assert parse("e0 e0 e0") in common_reducts(pair)
    pair = by_parent["e0 e3 h2"]
    assert pair.subcase == "i+1<k<j"
    assert parse("h1 e1 e0") in common_reducts(pair)
    pair = by_parent["e0 h3 h2"]
    assert pair.subcase == "k>i+1"
    assert parse("h1 h1 e0") in common_reducts(pair)


def test_resolve_picks_minimal_bound():
    pair = enumerate_overlaps(2)[0]
    commons = common_reducts(pair)
    bound = _least(commons)
    assert bound in commons
    assert all(degree(bound) <= degree(c) for c in commons)


def test_alternative_printed_form_does_not_join():
    for p in enumerate_overlaps(4):
        alt = alternative_bound(p)
        if alt is None:
            continue
        assert p.family == "EHH" and p.subcase == "k>i+1"
        assert alt not in common_reducts(p)
        assert p.expected in common_reducts(p)
    # the well-formed instance from the derivation: parent e1 h4 h3
    pair = next(
        p for p in enumerate_overlaps(4) if render(p.parent) == "e1 h4 h3"
    )
    assert common_reducts(pair) == frozenset({parse("h2 h2 e1")})
    assert alternative_bound(pair) == parse("e3 h2 h0")


def test_disjoint_pairs_commute():
    w = parse("e0 h0 e0 h0")
    assert [p for p, _ in redexes(w)] == [0, 2]  # one disjoint pair: h0 e0 is no redex
    (pair,) = confluence._disjoint_pairs(0)  # e0 h0 is the one redex pair at index 0
    assert pair.parent == w and pair == _searched_disjoint_pair(w)
    assert pair.left_reduct == pair.right_reduct == parse("e0 h0")
    assert pair.expected == ()  # both vanishing steps applied directly
    assert pair.expected in common_reducts(pair)
    assert _least(common_reducts(pair)) == ()
    assert _searched_disjoint_pair(parse("e0 h0 h0")) is None  # overlapping redexes only


def _disjoint_parents(max_index):
    return [pair.parent for pair in confluence._disjoint_pairs(max_index)]


def test_sampled_disjoint_parents_have_disjoint_redexes():
    for max_index in (2, 3, 6):
        for w in _disjoint_parents(max_index):
            ps = [p for p, _ in redexes(w)]
            assert any(q - p >= 2 for p in ps for q in ps)
            # the sample stays inside length 4, and each sampled parent has exactly one disjoint pair
            assert len(w) == 4 and sum(q - p >= 2 for p, q in combinations(ps, 2)) == 1
    assert _disjoint_parents(6) == _disjoint_parents(3)


def test_sample_disjoint_parents_count_is_exact():
    for max_index in (2, 3, 6):
        assert len(_disjoint_parents(max_index)) == confluence.DISJOINT_SAMPLES


def test_overlap_expected_is_the_subcase_closed_form():
    forms = {(family, name): form for family, table in confluence._CASES.items() for name, _, form in table}
    for pair in enumerate_overlaps(6):
        assert pair.expected == instantiate(forms[pair.family, pair.subcase], tuple(g.index for g in pair.parent))


# The overlap case table as it was written before it became data: guards and
# closed forms as functions of the parent indices i, j, k.  The data table
# must agree with it on every parent.
_REFERENCE_CASES = {
    "EEE": ((None, lambda i, j, k: True, lambda i, j, k: (eps_letter(k - 2), eps_letter(j - 1), eps_letter(i))),),
    "HHH": ((None, lambda i, j, k: True, lambda i, j, k: (eta_letter(k), eta_letter(j - 1), eta_letter(i - 2))),),
    "EEH": (
        ("k>j+1", lambda i, j, k: k > j + 1, lambda i, j, k: (eta_letter(k - 2), eps_letter(j - 1), eps_letter(i))),
        ("k=j+1", lambda i, j, k: k == j + 1, lambda i, j, k: (eps_letter(i),)),
        ("k=j", lambda i, j, k: k == j, lambda i, j, k: (eps_letter(i),)),
        ("i+1<k<j", lambda i, j, k: i + 1 < k, lambda i, j, k: (eta_letter(k - 1), eps_letter(j - 2), eps_letter(i))),
        ("k=i+1<j", lambda i, j, k: k == i + 1, lambda i, j, k: (eps_letter(j - 1),)),
        ("k=i", lambda i, j, k: k == i, lambda i, j, k: (eps_letter(j - 1),)),
        ("k<i", lambda i, j, k: True, lambda i, j, k: (eta_letter(k), eps_letter(j - 2), eps_letter(i - 1))),
    ),
    "EHH": (
        ("i>j", lambda i, j, k: i > j, lambda i, j, k: (eta_letter(k), eta_letter(j - 1), eps_letter(i - 2))),
        ("i=j", lambda i, j, k: i == j, lambda i, j, k: (eta_letter(k),)),
        ("i=j-1", lambda i, j, k: i == j - 1, lambda i, j, k: (eta_letter(k),)),
        ("k<i<j-1", lambda i, j, k: k < i, lambda i, j, k: (eta_letter(k), eta_letter(j - 2), eps_letter(i - 1))),
        ("k=i<j-1", lambda i, j, k: k == i, lambda i, j, k: (eta_letter(j - 1),)),
        ("k=i+1", lambda i, j, k: k == i + 1, lambda i, j, k: (eta_letter(j - 1),)),
        ("k>i+1", lambda i, j, k: True, lambda i, j, k: (eta_letter(k - 1), eta_letter(j - 2), eps_letter(i))),
    ),
}

# the index order of each family's overlap parents, as the module docstring states it
_IS_PARENT = {
    "EEE": lambda i, j, k: i < j < k,
    "HHH": lambda i, j, k: i > j > k,
    "EEH": lambda i, j, k: i < j,
    "EHH": lambda i, j, k: j > k,
}


def _reference_alternative_bound(family, name, i, j, k):
    if family != "EHH" or name != "k>i+1":
        return None
    return (eps_letter(k), eta_letter(j - 2), eta_letter(i - 1)) if i >= 1 else None


def _table_mismatches(triples):
    """The (family, i, j, k) at which the data table and the reference disagree
    on the subcase, the closed form or the alternative form."""
    bad = []
    for family, is_parent in _IS_PARENT.items():
        for i, j, k in triples:
            if not is_parent(i, j, k):
                continue
            name, _, form = next(row for row in _REFERENCE_CASES[family] if row[1](i, j, k))
            pair = CriticalPair(tuple(letter(c.lower(), n) for c, n in zip(family, (i, j, k))), (), (), family, name, ())
            got = rewrite.first_row(confluence._CASES[family], (i, j, k))
            if (got[0], instantiate(got[2], (i, j, k)), alternative_bound(pair)) != (
                name, form(i, j, k), _reference_alternative_bound(family, name, i, j, k)
            ):
                bad.append((family, i, j, k))
    return bad


_SMALL_TRIPLES = [(i, j, k) for i in range(13) for j in range(13) for k in range(13)]


def test_case_table_matches_the_reference_on_small_indices():
    assert _table_mismatches(_SMALL_TRIPLES) == []
    # the alternative form is undefined at i = 0 and defined from i = 1
    pair = next(p for p in enumerate_overlaps(3) if render(p.parent) == "e0 h3 h2")
    assert pair.subcase == "k>i+1" and alternative_bound(pair) is None


_near = st.builds(
    lambda n, d: tuple(n + x for x in d), st.integers(3, 10**12 - 3), st.tuples(*[st.integers(-3, 3)] * 3)
)


@given(st.one_of(st.tuples(*[st.integers(0, 10**12)] * 3), _near))
@example((10**12 - 2, 10**12, 10**12 - 1))
@example((0, 10**12, 10**12 - 1))
def test_case_table_matches_the_reference_at_huge_indices(triple):
    assert _table_mismatches([triple]) == []


def _replace_row(monkeypatch, family, name, **fields):
    position = {"guard": 1, "form": 2}
    table = [list(row) for row in confluence._CASES[family]]
    for row in table:
        if row[0] == name:
            for field, value in fields.items():
                row[position[field]] = value
    monkeypatch.setitem(confluence._CASES, family, tuple(map(tuple, table)))


def test_a_wrong_closed_form_constant_shows_on_its_row_only(monkeypatch):
    _replace_row(monkeypatch, "EEH", "k=j", form=((EPS, I, 1),))  # e_{i+1} instead of e_i
    report = audit_local_confluence(6)
    assert report.passed  # the pairs still join; only the closed form is wrong
    short = {(r.family, r.subcase) for r in report.rows if r.formula_matches < r.instances}
    assert short == {("EEH", "k=j")}


def test_a_widened_guard_fails_the_reference(monkeypatch):
    _replace_row(monkeypatch, "EHH", "i=j-1", guard=((I, J, -2, -1),))
    assert _table_mismatches(_SMALL_TRIPLES)
    monkeypatch.undo()
    # a widening that an earlier row already covers changes nothing: "i>j" matches i - j = 1 first
    _replace_row(monkeypatch, "EHH", "i=j", guard=((I, J, 0, 1),))
    assert _table_mismatches(_SMALL_TRIPLES) == []


def test_both_tables_share_the_one_guard_format():
    # every bound of every row is (u, v, lo, hi) with lo <= hi, u a slot of the row's pattern, v another or O
    tables = [((I, J), rows) for rows in rewrite.RULES.values()]
    tables += [((I, J, K), rows) for rows in confluence._CASES.values()]
    for slots, rows in tables:
        for _, guard, _ in rows:
            assert isinstance(guard, tuple)
            for bound in guard:
                u, v, lo, hi = bound
                assert u in slots and v in set(slots) - {u} | {O} and lo <= hi
    # a vanishing row pins each slot, in slot order, to a natural: VANISHING builds its letters from the low bounds
    for rows in rewrite.RULES.values():
        for _, guard, rhs in rows:
            if not rhs:
                assert [u for u, *_ in guard] == [I, J]
                assert all(v == O and lo == hi >= 0 for _, v, lo, hi in guard)
    # the overlap tables are first-match: each family ends in a row that always holds
    assert all(rows[-1][1] == () for rows in confluence._CASES.values())
    # the least bound at which every subcase has an instance
    assert audit_local_confluence(3).not_instantiated == ()


def test_local_confluence_audit_peak_memory():
    # a fresh interpreter, so that the peak is this call's alone
    script = (
        "import tracemalloc\n"
        "from adjmon.confluence import audit_local_confluence\n"
        "tracemalloc.start()\n"
        "assert audit_local_confluence(20).passed\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # bytes at the peak: about 0.8 MiB streaming the pairs, 8.2 MiB holding all 11,512 in one list
    assert int(proc.stdout) < 4 * 2**20


def test_audit_local_confluence_full():
    report = audit_local_confluence(6)
    assert report.passed
    assert report.all_subcases_instantiated
    for row in report.rows:
        assert row.joinable == row.instances
        # formula_matches counts the pairs whose ``expected`` is a common reduct
        assert row.formula_matches == row.instances
    alt_row = report.row("EHH", "k>i+1")
    assert alt_row.alt_formula_applicable == 10  # instances with i >= 1
    assert alt_row.alt_formula_matches == 0
    assert {r.family for r in report.rows} == {"DISJOINT", "EEE", "HHH", "EEH", "EHH"}


def test_audit_local_confluence_low_bound_reports_missing():
    report = audit_local_confluence(2)
    assert report.passed
    assert set(report.not_instantiated) == {
        ("EEH", "i+1<k<j"),
        ("EEH", "k>j+1"),
        ("EHH", "k<i<j-1"),
        ("EHH", "k>i+1"),
    }
    with pytest.raises(KeyError):  # a subcase with no instance has no row
        report.row("EEH", "k>j+1")


@pytest.mark.parametrize("max_index", range(1, 8))
def test_audit_local_confluence_at_every_index_bound(max_index):
    # `adjmon audit` runs index 6 alone; the library takes any bound from MIN_OVERLAP_INDEX up
    if max_index < confluence.MIN_OVERLAP_INDEX:
        with pytest.raises(ValueError, match="max_index must be >= 2 to instantiate every overlap family"):
            audit_local_confluence(max_index)
        return
    report = audit_local_confluence(max_index)
    assert report.passed
    assert {r.family for r in report.rows} == {"DISJOINT", "EEE", "HHH", "EEH", "EHH"}
    assert report.all_subcases_instantiated == (max_index >= 3)
    assert all(r.joinable == r.formula_matches == r.instances for r in report.rows)
    assert report.row("DISJOINT").instances == confluence.DISJOINT_SAMPLES


# --- termination --------------------------------------------------------------

def test_audit_termination():
    report = audit_termination(3, 2)
    assert report.passed
    assert report.words_checked == 259
    assert not report.bad_pairs
    assert report.longest_chain <= 9
    for bounds in ((0, 2), (3, 0)):
        with pytest.raises(ValueError, match="bounds must be >= 1"):
            audit_termination(*bounds)


def test_termination_chain_examples():
    report = audit_termination(2, 1)
    assert report.passed
    # e1 h1 has the longest chain in the (2, 1) population: 3 steps
    assert report.longest_chain == 3


def _termination_reference(max_len, max_index):
    """The population, step count and bad steps of the termination audit,
    built word by word from ``redexes``, ``forward_steps`` and ``degree``.
    """
    population = list(all_words(max_len, max_index))
    steps, bad = 0, []
    for w in population:
        for (p, rule), v in zip(redexes(w), forward_steps(w)):
            steps += 1
            want = 2 if rule.case is RuleCase.EPS_ETA_ZERO else 1
            inside = len(v) in (len(w), len(w) - 2) and all(g.index <= max_index for g in v)
            if degree(w) - degree(v) != want or not inside:
                bad.append((w, p, degree(w) - degree(v)))
    return population, steps, tuple(bad)


def _bad_pairs(bad_steps):
    """The letter pairs that bad steps rewrite, with their drops, by first
    occurrence: as every pair is a word of length 2, in scan order."""
    return tuple(dict.fromkeys((w[p], w[p + 1], drop) for w, p, drop in bad_steps))


def _assert_matches_reference(report, max_len, max_index):
    population, steps, bad = _termination_reference(max_len, max_index)
    chains = [reduction_graph(w).longest_chain() for w in population]
    assert (report.words_checked, report.steps_checked, report.longest_chain) == (len(population), steps, max(chains))
    assert report.bad_pairs == _bad_pairs(bad)
    assert all(c <= degree(w) for w, c in zip(population, chains))


@pytest.mark.parametrize("bounds", [(3, 2), (2, 4), (4, 1)])
def test_termination_matches_word_reference(bounds, monkeypatch):
    def never(w):
        raise AssertionError("the termination audit called normalize")

    monkeypatch.setattr(rewrite, "normalize", never)
    monkeypatch.setattr(confluence, "normalize", never)
    report = audit_termination(*bounds)
    _assert_matches_reference(report, *bounds)
    assert report.passed


def _patch_rule(monkeypatch, patch):
    """Make the rule table return patch(x, y, rule) instead of rule."""
    real = rewrite.match_rule

    def match_rule(x, y):
        return patch(x, y, real(x, y))

    monkeypatch.setattr(rewrite, "match_rule", match_rule)
    monkeypatch.setattr(confluence, "match_rule", match_rule)


def _swap_eps(x, y, rule):
    # e_i e_j -> e_j e_i does not lower the degree
    return rule._replace(rhs=(y, x)) if rule is not None and rule.case is RuleCase.EPS_EPS else rule


def test_termination_reports_non_decreasing_step(monkeypatch):
    _patch_rule(monkeypatch, _swap_eps)
    report = audit_termination(2, 1)
    assert not report.passed
    assert report.bad_pairs == ((*parse("e0 e1"), 0),)
    assert (report.words_checked, report.steps_checked) == (21, 6)
    report = audit_termination(3, 2)
    bad_steps = _termination_reference(3, 2)[2]
    assert (parse("h0 e0 e1"), 1, 0) in bad_steps  # the pair's step past the first position is bad too
    assert report.bad_pairs == _bad_pairs(bad_steps) == tuple((*parse(w), 0) for w in ("e0 e1", "e0 e2", "e1 e2"))


def test_termination_chains_follow_degree_not_number(monkeypatch):
    # h1 h1 -> e0 h1 -> e0 h0 -> 1, and no other rule: e0 h1 is numbered after h1 h1
    real = rewrite.match_rule
    rules = {
        parse("h1 h1"): RuleInstance(RuleCase.ETA_ETA, parse("h1 h1"), parse("e0 h1")),
        parse("e0 h1"): real(*parse("e0 h1")),
        parse("e0 h0"): real(*parse("e0 h0")),
    }
    _patch_rule(monkeypatch, lambda x, y, rule: rules.get((x, y)))
    report = audit_termination(2, 1)
    assert report.passed and report.longest_chain == 3
    _assert_matches_reference(report, 2, 1)


def test_termination_leaves_unsound_steps_out_of_chains(monkeypatch):
    # e1 e1 -> e1 h1 keeps the degree; counted, it would lengthen e1 h1's chain of 3
    def patch(x, y, rule):
        return RuleInstance(RuleCase.EPS_EPS, (x, y), parse("e1 h1")) if (x, y) == parse("e1 e1") else rule

    _patch_rule(monkeypatch, patch)
    report = audit_termination(2, 1)
    assert report.bad_pairs == ((*parse("e1 e1"), 0),)
    assert report.longest_chain == 3


@pytest.mark.parametrize(
    "case, rhs, sound",
    [
        # a degree-lowering rule made to delete its letters: the vanishing reduct's number at every position
        (RuleCase.EPS_ETA_EQUAL, lambda x, y: (), True),
        # the vanishing rule with a one-letter reduct, outside the population
        (RuleCase.EPS_ETA_ZERO, lambda x, y: parse("h0"), False),
        # e_i h_i -> e_i h_{i+1} raises the degree, and leaves the bounds when i = max_index
        (RuleCase.EPS_ETA_EQUAL, lambda x, y: (x, eta_letter(y.index + 1)), False),
        # e_i e_j -> e_{i+j} drops the degree by exactly 1, to a one-letter reduct outside the population
        (RuleCase.EPS_EPS, lambda x, y: (eps_letter(x.index + y.index),), False),
    ],
    ids=["equal-vanishes", "zero-to-one-letter", "index-out-of-bounds", "eps-to-one-letter"],
)
def test_termination_reports_faulty_rule_exactly(monkeypatch, case, rhs, sound):
    _patch_rule(monkeypatch, lambda x, y, rule: rule._replace(rhs=rhs(x, y)) if rule and rule.case is case else rule)
    population, steps, bad = _termination_reference(4, 2)
    report = audit_termination(4, 2)
    assert (report.words_checked, report.steps_checked, report.bad_pairs) == (len(population), steps, _bad_pairs(bad))
    assert any(p >= 1 for _, p, _ in bad)  # the bad pairs' steps past the first position are bad too
    assert not report.passed
    if sound:  # every drop is positive, so the reference's chain lengths hold too
        _assert_matches_reference(report, 4, 2)


def test_termination_fails_a_bad_pair_at_length_one(monkeypatch, capsys):
    # no word of length <= 1 has a step, so only the pair check can see the swapped rule
    _patch_rule(monkeypatch, _swap_eps)
    report = audit_termination(1, 6)
    assert (report.words_checked, report.steps_checked) == (15, 0)
    assert not report.passed
    assert report.bad_pairs == tuple((eps_letter(i), eps_letter(j), 0) for i in range(7) for j in range(i + 1, 7))
    assert cli.main(["audit"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "termination: 14 letters of index <= 6, 21 bad pairs  FAIL"


# The termination audit as it was before the redex pairs decided it: every
# step of every word within bounds, by word number, its drop read off a
# table of every word's degree, with a bad step where that drop is not the
# stated one or the reduct leaves the bounds.  Returns (words, steps, bad
# steps, longest chain, passed).
def _walked_termination(max_len, max_index):
    letters = alphabet(max_index)
    size, number = len(letters), {g: c for c, g in enumerate(letters)}
    pairs = size * size
    table = [None] * pairs  # at a L + b, for letters a b: (change of w per L^(n-2-p), want, drop)
    for x, y, rule in confluence._redex_pairs(letters):
        a, b = number[x], number[y]
        r = [number.get(g) for g in rule.rhs]
        if not r:
            change = None  # the letters vanish
        elif len(r) == 2 and None not in r:
            change = (r[0] - a) * size + r[1] - b
        else:
            change = False  # the reduct leaves the bounds
        want = 2 if rule.case is RuleCase.EPS_ETA_ZERO else 1
        table[a * size + b] = (change, want, degree(rule.lhs) - degree(rule.rhs))
    start, deg, level = [0, 1], [0], [0]  # start[n]: the first number of length n
    for _ in range(max_len):
        level = [d + g.index + 1 for d in level for g in letters]
        deg += level
        start.append(len(deg))
    chain, steps, bad = [0] * len(deg), 0, []
    for n in range(2, max_len + 1):
        places = [size ** (n - 2 - p) for p in range(n - 1)]
        for w in sorted(range(start[n], start[n + 1]), key=deg.__getitem__):
            i, d, longest = w - start[n], deg[w], 0
            for p, place in enumerate(places):
                hi = i // place
                entry = table[hi % pairs]
                if entry is None:
                    continue
                steps += 1
                change, want, drop = entry
                if change is not False:
                    v = w + change * place if change is not None else start[n - 2] + hi // pairs * place + i % place
                    drop = d - deg[v]
                    if drop > 0 and chain[v] >= longest:
                        longest = chain[v] + 1
                if drop != want or change is False:
                    word = tuple([letters[i // size ** (n - 1 - q) % size] for q in range(n)])  # i's base-L digits
                    bad.append((w, p, drop, word))
            chain[w] = longest
    bad_steps = tuple((word, p, drop) for _, p, drop, word in sorted(bad))
    return len(deg), steps, bad_steps, max(chain), not bad_steps


def _plus_minus_one(guard, template):
    """Every +-1 mutant of a finite bound of the guard or an offset of the
    template, as (guard, template, id), one of the two the row's own."""
    for b, bound in enumerate(guard):
        for at, end in ((2, "lo"), (3, "hi")):
            for d in (-1, 1) if abs(bound[at]) != INF else ():
                moved = bound[:at] + (bound[at] + d,) + bound[at + 1 :]
                yield guard[:b] + (moved,) + guard[b + 1 :], template, f"guard{b}-{end}{d:+d}"
    for t, (kind, slot, c) in enumerate(template):
        for d in (-1, 1):
            yield guard, template[:t] + ((kind, slot, c + d),) + template[t + 1 :], f"rhs{t}{d:+d}"


def _rule_mutants():
    """Every +-1 mutant of a constant of RULES, a template offset or a finite
    guard bound, as (case, guard, rhs) with the other of guard and rhs None."""
    for rows in rewrite.RULES.values():
        for case, guard, rhs in rows:
            for g, r, at in _plus_minus_one(guard, rhs):
                yield pytest.param(case, None if g is guard else g, None if r is rhs else r, id=f"{case}-{at}")


def _case_mutants():
    """Every +-1 mutant of a finite guard bound or a closed-form offset of
    ``_CASES``, as (family, row number, mutated row): 104.  Some give a
    closed form a negative index, which leaves the pair's ``expected`` None."""
    for family, table in confluence._CASES.items():
        for n, (name, guard, form) in enumerate(table):
            for g, f, at in _plus_minus_one(guard, form):
                yield pytest.param(family, n, (name, g, f), id=f"{family}-{name}-{at}")


def _audited(max_len, max_index):
    report = audit_termination(max_len, max_index)
    return report.words_checked, report.steps_checked, report.longest_chain, report.bad_pairs, report.passed


def _walked(max_len, max_index):
    """What the walk returns, or TypeError: a mutant that gives a reduct
    letter a negative index leaves ``match_rule`` a right-hand side of None,
    which the walk does not read."""
    try:
        return _walked_termination(max_len, max_index)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("case, guard, rhs", _rule_mutants())
def test_termination_matches_the_walk_under_every_rule_mutant(mutated_rules, case, guard, rhs):
    mutated_rules(case, guard, rhs)
    walked = [_walked(n, 2) for n in range(1, 5)]
    got = [_audited(n, 2) for n in (1, 3, 4)]
    unbuilt = tuple((x, y, None) for x, y, rule in confluence._redex_pairs(alphabet(2)) if rule.rhs is None)
    if unbuilt:
        # the walk cannot read a reduct of None; the audit fails, listing each such pair with no drop
        assert walked == [TypeError] * 4
        for _, _, _, pairs, passed in got:
            assert not passed and tuple(p for p in pairs if p[2] is None) == unbuilt
        return
    # every length's bad steps rewrite the same pairs, those of length 2, which the audit lists
    pairs = _bad_pairs(walked[1][2])
    assert all(_bad_pairs(walk[2]) == pairs for walk in walked[2:])
    # no word of length 1 has a step: the walk passes vacuously there, and the pair check gives length 2's verdict
    assert walked[0][2] == () and walked[0][4]
    for report, (words, steps, _, longest, _) in zip(got, (walked[0], *walked[2:])):
        assert report == (words, steps, longest, pairs, not pairs)


def _audit_and_reference(monkeypatch, max_index):
    """The audit's report, or its exception's type, then the same from the
    reference that sends every pair through ``common_reducts``."""

    def outcome():
        try:
            return audit_local_confluence(max_index)
        except Exception as error:
            return type(error)

    got = outcome()
    monkeypatch.setattr(confluence, "_rewrites_to_expected", lambda pair: False)
    return got, outcome()


@pytest.mark.parametrize("case, guard, rhs", _rule_mutants())
def test_witnesses_keep_the_report_under_every_rule_mutant(monkeypatch, mutated_rules, case, guard, rhs):
    # e_i h_i -> e_i h_i (EpsEta_IEqJPos rhs0+1) is among them: its leftmost rewriting never ends
    mutated_rules(case, guard, rhs)
    got, reference = _audit_and_reference(monkeypatch, 3)
    assert got == reference


@pytest.mark.parametrize("family, n, row", _case_mutants())
def test_witnesses_keep_the_report_under_every_case_mutant(monkeypatch, family, n, row):
    table = confluence._CASES[family]
    monkeypatch.setitem(confluence._CASES, family, table[:n] + (row,) + table[n + 1 :])
    got, reference = _audit_and_reference(monkeypatch, 4)
    assert got == reference


def test_case_mutants_cover_every_bound_and_offset():
    assert len(list(_case_mutants())) == 104


@pytest.mark.parametrize("family, n, row", _case_mutants())
def test_cells_pick_the_scanned_rows_under_every_case_mutant(monkeypatch, family, n, row):
    # the rows are read per cell, the scan's per parent: a cell clipped to the shipped bounds fails
    # a mutant that moves a bound past them, as EHH i=j-1 with lo -2 reading i - j = -3 as -2
    table = confluence._CASES[family]
    monkeypatch.setitem(confluence._CASES, family, table[:n] + (row,) + table[n + 1 :])
    assert list(confluence._overlap_pairs(6)) == list(_scanned_overlap_pairs(6))


def _cells(max_index):
    """The (letter kinds, cell) of every overlap parent: each index difference
    that a guard of its family reads, clipped to one beyond the table's
    least and greatest finite bounds."""
    keys = set()
    for pair in _scanned_overlap_pairs(max_index):
        table = confluence._CASES[pair.family]
        bounds = [b for _, guard, _ in table for *_, lo, hi in guard for b in (lo, hi) if abs(b) != INF]
        reads = {(u, v) for _, guard, _ in table for u, v, _, _ in guard}
        at = (*(g.index for g in pair.parent), 0)
        clip = lambda d: min(max(d, min(bounds) - 1), max(bounds) + 1)
        keys.add((tuple(g.kind for g in pair.parent), frozenset((u, v, clip(at[u] - at[v])) for u, v in reads)))
    return keys


def test_each_cell_asks_first_row_once(monkeypatch):
    real, asked = rewrite.first_row, []
    monkeypatch.setattr(confluence, "first_row", lambda rows, indices: asked.append(indices) or real(rows, indices))
    audit_local_confluence(10)
    # one ask per cell, where a scan of the parents asks once each, 1,540 times at index 10
    assert len(asked) == len(_cells(10)) == 26
    asked.clear()
    audit_local_confluence(10)
    assert len(asked) == 26  # the cells are kept for one call only


def test_witnessed_counts_equal_the_graphs_at_the_bench_bound(monkeypatch):
    got, reference = _audit_and_reference(monkeypatch, 10)
    assert got == reference
    assert sum(r.instances for r in got.rows) == 1540 + confluence.DISJOINT_SAMPLES


def test_graphs_are_built_only_where_no_witness_is(monkeypatch):
    real, built = confluence.common_reducts, []
    monkeypatch.setattr(confluence, "common_reducts", lambda pair: built.append(pair) or real(pair))
    audit_local_confluence(6)
    assert len(built) == 36
    firsts = {}
    for pair in built:
        firsts.setdefault((pair.family, pair.subcase), pair)
    rest = [pair for pair in built if pair is not firsts[pair.family, pair.subcase]]
    alternative = [pair for pair in rest if alternative_bound(pair) is not None]
    kept = [pair for pair in rest if alternative_bound(pair) is None]
    assert (len(firsts), len(alternative), len(kept)) == (17, 10, 9)
    # each of the rest is a disjoint parent whose closed form is no normal form, so rewriting passes it by
    assert all(pair.family == "DISJOINT" and not rewrite.is_normal(pair.expected) for pair in kept)
    built.clear()
    audit_local_confluence(10)
    assert len(built) == 110


# --- bidirectional oracle -----------------------------------------------------

def test_inverse_steps_live_in_the_rule_layer():
    assert confluence.inverse_steps is rewrite.inverse_steps


def test_inverse_steps_are_exact_parents():
    for w in all_words(3, 2):
        for p in inverse_steps(w, 12):
            assert w in forward_steps(p)
            assert degree(p) - degree(w) in (1, 2)
    # completeness: every forward step is recovered as an inverse step
    for w in all_words(3, 2):
        for v in forward_steps(w):
            assert w in inverse_steps(v, 12)


def test_inverse_steps_match_brute_force_predecessors():
    population = set(all_words(2, 2)) | set(all_words(3, 1))
    d_max = max(degree(w) for w in population)
    predecessors = {}
    for level in _words_by_degree(d_max + 2):
        for u in level:
            for v in forward_steps(u):
                predecessors.setdefault(v, set()).add(u)
    for w in population:
        preds = predecessors.get(w, set())
        for bound in (degree(w), degree(w) + 1, degree(w) + 2):
            assert set(inverse_steps(w, bound)) == {u for u in preds if degree(u) <= bound}


def test_inverse_steps_at_huge_indices():
    # every parent of h_n e_n is a rule's left-hand side solved for its indices, or has e0 h0 inserted
    n = 10**12
    w = parse(f"h{n} e{n}")
    before = rewrite.match_rule.cache_info().currsize
    parents = inverse_steps(w, 10**13)
    assert rewrite.match_rule.cache_info().currsize - before <= 4
    assert parents[0] == parse(f"e{n + 1} h{n}")
    assert len(parents) == 1 + 3 and all(w in forward_steps(p) for p in parents)


def test_equivalent_bounded_examples():
    # the verdict is a bool, whichever end the search starts from
    assert equivalent_bounded(parse("e0 h0"), (), 6) is True
    assert equivalent_bounded((), parse("e0 h0"), 6) is True
    assert equivalent_bounded(parse("e0 h1"), (), 9)
    assert equivalent_bounded(parse("e1 h1"), (), 9)
    assert equivalent_bounded(parse("h0 e0"), (), 8) is False
    assert equivalent_bounded((), parse("h0 e0"), 8) is False


@given(small_words(max_len=3, max_index=2))
@settings(max_examples=25, deadline=None)
def test_equivalent_bounded_reflexive(w):
    assert equivalent_bounded(w, w, 9) is True


@given(small_words(max_len=3, max_index=1), small_words(max_len=3, max_index=1), st.integers(0, 7))
@example(parse("h0 e0"), (), 7)
@example(parse("e0 h0"), (), 6)
@settings(max_examples=50, deadline=None)
def test_equivalent_bounded_symmetric(u, v, bound):
    # steps connect both ways, so the verdict must not depend on the end the search starts from
    d = max(degree(u), degree(v), bound)  # <= 7: three letters of index <= 1 weigh at most 6
    assert equivalent_bounded(u, v, d) == equivalent_bounded(v, u, d)


def test_equivalent_bounded_rejects_oversized_input():
    with pytest.raises(ValueError):
        equivalent_bounded(parse("h9"), (), 9)


def test_least_bound_decides_canonical_form_equality():
    # Church-Rosser: u ->* nf <-* v never leaves max(degree u, degree v), so the least bound decides
    universe = [w for level in _words_by_degree(5) for w in level]
    nf = {w: rewrite.normalize(w) for w in universe}
    assert len(universe) == 243
    for u, v in combinations_with_replacement(universe, 2):
        assert equivalent_bounded(u, v, max(degree(u), degree(v))) == (nf[u] == nf[v]), (u, v)


def test_components_agree_with_per_pair_search():
    pop = list(all_words(2, 1))
    component = connected_components(6)
    for u in pop:
        for v in pop:
            assert equivalent_bounded(u, v, 6) == (component[u] == component[v])


def all_edges_components(max_degree):
    """The reference partition: one union per forward step of every word."""
    universe = [w for level in _words_by_degree(max_degree) for w in level]
    index = {w: n for n, w in enumerate(universe)}
    parent = list(range(len(universe)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for w in universe:
        for v in forward_steps(w):
            parent[find(index[v])] = find(index[w])
    return {w: find(n) for w, n in index.items()}


def same_partition(a, b):
    ids = {(a[w], b[w]) for w in a}
    return a.keys() == b.keys() and len(ids) == len(set(a.values())) == len(set(b.values()))


def test_components_match_all_edges_reference():
    for max_degree in range(10):
        assert same_partition(connected_components(max_degree), all_edges_components(max_degree))
    assert not same_partition({(): 0, parse("h0"): 0}, {(): 0, parse("h0"): 1})


def _components_or_type_error(build, max_degree):
    try:
        return build(max_degree)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("case, guard, rhs", _rule_mutants())
def test_components_match_all_edges_reference_under_every_rule_mutant(mutated_rules, case, guard, rhs):
    # 15 mutants give a reduct letter a negative index, a right-hand side of None, which both refuse with TypeError
    mutated_rules(case, guard, rhs)
    got, reference = (_components_or_type_error(build, 6) for build in (connected_components, all_edges_components))
    if reference is TypeError:
        assert got is TypeError
    else:
        assert got is not TypeError and same_partition(got, reference)


def test_component_counts_are_sums_of_two_kind_partitions():
    # a canonical word of degree d is a partition of some a <= d (its eta block's letter weights) and one of d - a
    # (its eps block's): p2(d) of them, the partitions of d into parts of two kinds (OEIS A000712); each component
    # holds exactly one, so U_m has sum over d <= m of p2(d) components, and so does U_12 restricted to U_m
    top = 12
    p2 = [1] + [0] * top
    for part in (w for w in range(1, top + 1) for _kind in (ETA, EPS)):
        for d in range(part, top + 1):
            p2[d] += p2[d - part]
    sums = list(accumulate(p2))
    assert p2[:8] == [1, 2, 5, 10, 20, 36, 65, 110]
    assert (sums[9], sums[11], sums[12]) == (734, 1967, 3132)
    met = set()
    for m, level in enumerate(confluence._component_labels(top)):
        met.update(level)
        assert len(met) == sums[m]
        assert 1 + max(map(max, confluence._component_labels(m))) == sums[m]


def test_labels_by_number_are_the_components():
    component = connected_components(9)
    labels = confluence._component_labels(9)
    assert [len(level) for level in labels] == [2 * 3 ** (d - 1) if d else 1 for d in range(10)]
    for level in _words_by_degree(9):
        for w in level:
            assert labels[degree(w)][_block_start(w, degree(w))] == component[w]


def test_component_count_is_the_canonical_word_count():
    # the reference takes about two seconds at this degree, so only the count is checked here
    component = connected_components(11)
    assert len(component) == 3**11
    assert len(set(component.values())) == sum(map(is_canonical_shape, component)) == 1967


def test_components_found_by_directly_built_letters():
    component = connected_components(4)
    assert component[(Generator("h", 3),)] == component[(eta_letter(3),)]
    assert component[(Generator("e", 0), Generator("h", 0))] == component[()]


def test_oracle_never_calls_normalize(monkeypatch):
    def refuse(w):
        raise AssertionError("the oracle called normalize")

    monkeypatch.setattr(rewrite, "normalize", refuse)
    monkeypatch.setattr(confluence, "normalize", refuse)
    assert len(connected_components(6)) == 3**6
    assert equivalent_bounded(parse("e1 h1"), (), 9)
    assert not equivalent_bounded(parse("h0 e0"), (), 6)
    assert inverse_steps(parse("h0 e0"), 6)


def test_cross_check_oracle_small():
    report = cross_check_oracle(2, 1, 6)
    assert report.passed
    assert report.population == 21
    assert report.spot_checked > 0


def test_cross_check_oracle_rejects_small_bound():
    with pytest.raises(ValueError):
        cross_check_oracle(3, 2, 8)


@pytest.mark.parametrize("max_len, max_index", [(1, 0), (2, 1), (3, 2), (2, 3)])
def test_cross_check_oracle_least_degree_is_the_population_top_degree(max_len, max_index):
    # the population's top degree, max_len letters of degree max_index + 1, is the least bound it runs at
    top = max_len * (max_index + 1)
    assert cross_check_oracle(max_len, max_index, top).passed
    with pytest.raises(ValueError, match="max_degree too small for the word population"):
        cross_check_oracle(max_len, max_index, top - 1)


def test_cross_check_oracle_rejects_empty_population():
    for max_len, max_index in ((-1, 2), (0, 2), (3, -1)):
        with pytest.raises(ValueError, match="population"):
            cross_check_oracle(max_len, max_index, 9)


def test_cross_check_names_a_pair_of_merged_canonical_forms(monkeypatch):
    # a rule h0 e0 -> 1 joins the components of h0 e0 and 1, two distinct canonical forms
    real = confluence.match_rule
    vanishing = real(*parse("e0 h0"))
    monkeypatch.setattr(confluence, "match_rule", lambda x, y: vanishing if (x, y) == parse("h0 e0") else real(x, y))
    report = cross_check_oracle(3, 2, 9)
    assert not report.passed
    assert ((), parse("h0 e0"), True, False) in report.discrepancies


def test_cross_check_names_a_pair_of_split_components(monkeypatch):
    real = confluence.normalize
    monkeypatch.setattr(confluence, "normalize", lambda w: () if w == parse("h0 e0") else real(w))
    report = cross_check_oracle(3, 2, 9)
    assert not report.passed
    assert ((), parse("h0 e0"), False, True) in report.discrepancies


@pytest.mark.parametrize("split, first, sampled", [
    ("e1 h0", "h0 e0", False),  # not sampled at these defaults: the one-pass partition comparison alone catches it
    ("h2 h0", "h0 h1", True),  # sampled: its search reaches its form h0 h1, its label does not
], ids=["unsampled", "sampled"])
def test_cross_check_catches_a_class_split_by_its_labels(monkeypatch, split, first, sampled):
    # a label of its own splits the class of split, which holds first, the first word of its canonical form
    real, split, first = confluence._component_labels, parse(split), parse(first)
    d = degree(split)
    i = _block_start(split, d)

    def labels(max_degree):
        out = real(max_degree)
        assert sum(level.count(out[d][i]) for level in out) > 1  # a class of more than one word
        out[d][i] = max(map(max, out)) + 1  # a label of its own
        return out

    monkeypatch.setattr(confluence, "_component_labels", labels)
    report = cross_check_oracle(3, 2, 9)
    assert (first, split, False, True) in report.discrepancies
    assert [e for e in report.discrepancies if e[0] == split] == [(split, first, True, False)] * sampled


def record_searches(monkeypatch):
    """Every spot search the cross-check runs, as its (start, end), in order."""
    real, searched = confluence.equivalent_bounded, []

    def record(u, v, max_degree):
        searched.append((u, v))
        return real(u, v, max_degree)

    monkeypatch.setattr(confluence, "equivalent_bounded", record)
    return searched


@pytest.mark.parametrize("max_len, max_index", [(3, 2), (2, 1), (1, 0)])
def test_cross_check_searches_each_sampled_word_against_its_form(monkeypatch, max_len, max_index):
    searched = record_searches(monkeypatch)
    report = cross_check_oracle(max_len, max_index, 9)
    population = list(all_words(max_len, max_index))
    stride = max(1, len(population) // 25)
    assert report.passed
    assert searched == [(w, rewrite.normalize(w)) for w in population[stride - 1 :: stride]]
    assert report.spot_checked == len(searched)


def _reversed_etas(w):
    nf = rewrite.normalize(w)
    etas = sum(g.kind == ETA for g in nf)
    return nf[:etas][::-1] + nf[etas:]


def _swapped_one_and_h0_e0(w):
    nf = rewrite.normalize(w)
    return {(): parse("h0 e0"), parse("h0 e0"): ()}.get(nf, nf)


def _unshifted_eps(w):
    # each eps letter written as e_{merges[u]}, not e_{merges[u] - u}
    a, merges = [], []
    rewrite._read(a, merges, reversed(w))
    return tuple(map(eta_letter, a)) + tuple(map(eps_letter, reversed(merges)))


@pytest.mark.parametrize("writer, count, first", [
    (_reversed_etas, 6, ("h0 h2", "h2 h0", False, False)),
    (_swapped_one_and_h0_e0, 1, ("e2 h2", "h0 e0", False, False)),
    (_unshifted_eps, 4, ("e0 e1", "e1 e0", False, False)),
], ids=["eta block reversed", "1 and h0 e0 swapped", "eps unshifted"])
def test_cross_check_catches_a_wrong_form_writer(monkeypatch, writer, count, first):
    # each writer keeps the partition of the population; only the spot searches see its forms
    monkeypatch.setattr(confluence, "normalize", writer)
    report = cross_check_oracle()
    assert len(report.discrepancies) == count
    assert report.discrepancies[0] == (parse(first[0]), parse(first[1]), *first[2:])


def test_cross_check_builds_no_universe(monkeypatch):
    expected = cross_check_oracle(3, 2, 9)

    def refuse(*args):
        raise AssertionError("the cross-check built the oracle's universe")

    monkeypatch.setattr(confluence, "_words_by_degree", refuse)
    monkeypatch.setattr(confluence, "connected_components", refuse)
    report = cross_check_oracle(3, 2, 9)
    assert report.passed
    assert report == expected
    assert (report.population, report.pairs_checked, report.spot_checked) == (259, 33670, 25)


def test_cross_check_peak_memory():
    # a fresh interpreter, so that the peak is this call's alone
    script = (
        "import tracemalloc\n"
        "from adjmon.confluence import cross_check_oracle\n"
        "tracemalloc.start()\n"
        "assert cross_check_oracle(3, 2, 11).passed\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 16 * 2**20  # bytes at the peak; building the 3^11 words took about 42 MiB


def test_components_hold_no_words_after_return():
    # a fresh interpreter, as words cached by earlier tests in this one would hide a leak
    script = (
        "import gc, tracemalloc\n"
        "from adjmon.confluence import connected_components\n"
        "tracemalloc.start()\n"
        "connected_components(10)\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2**20  # bytes still held; 3^10 words take about 6 MB


# --- the collector pause ------------------------------------------------------

def _spy(monkeypatch, module, name, fail=False):
    """Record whether the collector is enabled at each call of module.<name>, and optionally raise there."""
    real, seen = getattr(module, name), []

    def spy(*args):
        seen.append(gc.isenabled())
        if fail:
            raise RuntimeError(name)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return seen


def test_connected_components_runs_with_the_collector_off(monkeypatch, collector_on):
    seen = _spy(monkeypatch, confluence, "_component_labels")
    connected_components(4)
    assert seen == [False]
    assert gc.isenabled()


def test_connected_components_restores_the_collector_on_raise(monkeypatch, collector_on):
    _spy(monkeypatch, confluence, "_component_labels", fail=True)
    with pytest.raises(RuntimeError):
        connected_components(4)
    assert gc.isenabled()


def test_connected_components_leaves_a_disabled_collector_disabled(collector_on):
    gc.disable()
    connected_components(4)
    assert not gc.isenabled()


def test_connected_components_ends_with_one_collection_of_the_younger_generations(collector_on, collections):
    connected_components(4)
    assert collections == [1]


def test_connected_components_collects_nothing_under_a_disabled_collector(collector_on, collections):
    gc.disable()
    connected_components(4)
    assert collections == []


def test_connected_components_leaves_a_disabled_collector_disabled_on_raise(monkeypatch, collector_on):
    gc.disable()
    _spy(monkeypatch, confluence, "_component_labels", fail=True)
    with pytest.raises(RuntimeError):
        connected_components(4)
    assert not gc.isenabled()


def test_connected_components_collects_once_after_a_raise(monkeypatch, collector_on, collections):
    _spy(monkeypatch, confluence, "_component_labels", fail=True)
    with pytest.raises(RuntimeError):
        connected_components(4)
    assert collections == [1]


def test_nested_connected_components_calls_keep_the_outer_pause(monkeypatch, collector_on, collections):
    # an inner call finds the collector off, so it leaves it off and collects nothing until the outer call ends
    real, seen = confluence._component_labels, []

    def labels(max_degree):
        if max_degree == 4:
            inner = connected_components(2)
            seen.append((gc.isenabled(), list(collections), len(inner)))
        return real(max_degree)

    monkeypatch.setattr(confluence, "_component_labels", labels)
    connected_components(4)
    assert seen == [(False, [], 9)]  # the 9 words of degree <= 2
    assert collections == [1]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_normalize_trace_leaves_the_collector_as_it_finds_it(enabled, monkeypatch, collector_on):
    # the trace is not paused: every step runs, and the trace ends, with the collector as the caller left it
    (gc.enable if enabled else gc.disable)()
    real, steps = rewrite._leftmost_moves, []

    def moves(letters):
        for move in real(letters):
            steps.append(gc.isenabled())
            yield move

    monkeypatch.setattr(rewrite, "_leftmost_moves", moves)
    assert normalize_trace(parse("e1 h1")).end == ()
    assert steps == [enabled] * 3
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_equivalent_bounded_leaves_the_collector_as_it_finds_it(enabled, monkeypatch, collector_on):
    # the search is not a paused builder: every step runs, and the search ends, with the collector as the caller left it
    (gc.enable if enabled else gc.disable)()
    steps = _spy(monkeypatch, confluence, "forward_steps")
    assert not equivalent_bounded(parse("h0 e0"), (), 6)  # a full search: h0 e0 is a normal form
    assert steps and all(seen is enabled for seen in steps)
    assert gc.isenabled() is enabled


def test_cross_check_oracle_leaves_the_collector_on(monkeypatch, collector_on):
    # neither its own normalize calls nor the steps of its spot searches pause the collector
    forms, searches = _spy(monkeypatch, confluence, "normalize"), _spy(monkeypatch, confluence, "forward_steps")
    assert cross_check_oracle(2, 1, 6).passed
    assert forms and all(forms)
    assert searches and all(searches)
    assert gc.isenabled()

import pytest
from collections import Counter
from hypothesis import given, settings

from adjmon.confluence import (
    EEH_SUBCASES,
    EHH_SUBCASES,
    all_words,
    alternative_bound,
    audit_local_confluence,
    audit_termination,
    common_reducts,
    connected_components,
    cross_check_oracle,
    disjoint_critical_pairs,
    enumerate_overlaps,
    equivalent_bounded,
    expected_bound,
    forward_steps,
    inverse_steps,
    resolve,
    sample_disjoint_parents,
)
from adjmon.rewrite import redexes
from adjmon.words import _words_of_degree, degree, parse, render
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


def test_enumerate_overlaps_requires_bound():
    with pytest.raises(ValueError):
        enumerate_overlaps(1)


def test_overlap_parents_reduce_to_both_reducts():
    for p in enumerate_overlaps(3):
        succ = set(forward_steps(p.parent))
        assert p.left_reduct in succ and p.right_reduct in succ


def test_subcases_partition():
    from adjmon.confluence import subcase

    r = range(7)
    eeh = {(i, j, k): subcase("EEH", i, j, k) for i in r for j in r for k in r if i < j}
    assert set(eeh.values()) == set(EEH_SUBCASES)
    assert eeh[(0, 1, 3)] == "k>j+1"
    assert eeh[(0, 1, 2)] == "k=j+1"
    assert eeh[(0, 3, 2)] == "i+1<k<j"
    assert eeh[(1, 2, 0)] == "k<i"
    ehh = {(i, j, k): subcase("EHH", i, j, k) for i in r for j in r for k in r if j > k}
    assert set(ehh.values()) == set(EHH_SUBCASES)
    assert ehh[(2, 1, 0)] == "i>j"
    assert ehh[(0, 3, 2)] == "k>i+1"
    assert ehh[(1, 3, 0)] == "k<i<j-1"


# --- joinability and closed forms --------------------------------------------

def test_resolve_examples():
    by_parent = {render(p.parent): p for p in enumerate_overlaps(3)}
    pair = resolve(by_parent["e0 e1 e2"])
    assert parse("e0 e0 e0") in common_reducts(pair)
    pair = by_parent["e0 e3 h2"]
    assert pair.subcase == "i+1<k<j"
    assert parse("h1 e1 e0") in common_reducts(pair)
    pair = by_parent["e0 h3 h2"]
    assert pair.subcase == "k>i+1"
    assert parse("h1 h1 e0") in common_reducts(pair)


def test_resolve_picks_minimal_bound():
    pair = resolve(enumerate_overlaps(2)[0])
    commons = common_reducts(pair)
    assert pair.bound_found in commons
    assert all(degree(pair.bound_found) <= degree(c) for c in commons)


def test_alternative_printed_form_does_not_join():
    for p in enumerate_overlaps(4):
        alt = alternative_bound(p)
        if alt is None:
            continue
        assert p.family == "EHH" and p.subcase == "k>i+1"
        assert alt not in common_reducts(p)
        assert expected_bound(p) in common_reducts(p)
    # the well-formed instance from the derivation: parent e1 h4 h3
    pair = next(
        p for p in enumerate_overlaps(4) if render(p.parent) == "e1 h4 h3"
    )
    assert common_reducts(pair) == frozenset({parse("h2 h2 e1")})
    assert alternative_bound(pair) == parse("e3 h2 h0")


def test_disjoint_pairs_commute():
    pairs = disjoint_critical_pairs(parse("e0 h0 e0 h0"))
    assert len(pairs) == 1
    pair = pairs[0]
    assert pair.left_reduct == pair.right_reduct == parse("e0 h0")
    assert pair.bound_found == ()  # both vanishing steps applied directly
    assert pair.bound_found in common_reducts(pair)


def test_sampled_disjoint_parents_have_disjoint_redexes():
    parents = sample_disjoint_parents(3, 10)
    assert len(parents) == 10
    for w in parents:
        ps = [p for p, _ in redexes(w)]
        assert any(q - p >= 2 for p in ps for q in ps)


def test_sample_disjoint_parents_count_is_exact():
    assert sample_disjoint_parents(3, 0) == []
    with pytest.raises(ValueError):
        sample_disjoint_parents(3, -1)


def test_audit_local_confluence_full():
    report = audit_local_confluence(6)
    assert report.passed
    assert report.all_subcases_instantiated
    for row in report.rows:
        assert row.joinable == row.instances
        assert row.formula_matches == row.formula_applicable
    alt_row = report.row("EHH", "k>i+1")
    assert alt_row.alt_formula_applicable == 10  # instances with i >= 1
    assert alt_row.alt_formula_matches == 0
    assert {r.family for r in report.rows} == {"DISJOINT", "EEE", "HHH", "EEH", "EHH"}


def test_audit_local_confluence_low_bound_reports_missing():
    report = audit_local_confluence(2, disjoint_samples=4)
    assert report.passed
    assert set(report.not_instantiated) == {
        ("EEH", "i+1<k<j"),
        ("EEH", "k>j+1"),
        ("EHH", "k<i<j-1"),
        ("EHH", "k>i+1"),
    }


# --- termination --------------------------------------------------------------

def test_audit_termination():
    report = audit_termination(3, 2)
    assert report.passed
    assert report.words_checked == 259
    assert not report.bad_steps and not report.chain_violations
    assert report.longest_chain <= 9


def test_termination_chain_examples():
    report = audit_termination(2, 1)
    assert report.passed
    # e1 h1 has the longest chain in the (2, 1) population: 3 steps
    assert report.longest_chain == 3


# --- bidirectional oracle -----------------------------------------------------

def test_inverse_steps_are_exact_parents():
    for w in all_words(3, 2):
        parents, _ = inverse_steps(w, 12)
        for p in parents:
            assert w in forward_steps(p)
            assert degree(p) - degree(w) in (1, 2)
    # completeness: every forward step is recovered as an inverse step
    for w in all_words(3, 2):
        for v in forward_steps(w):
            parents, _ = inverse_steps(v, 12)
            assert w in parents


def test_inverse_steps_match_brute_force_predecessors():
    population = set(all_words(2, 2)) | set(all_words(3, 1))
    d_max = max(degree(w) for w in population)
    predecessors = {}
    for d in range(d_max + 3):
        for u in _words_of_degree(d):
            for v in forward_steps(u):
                predecessors.setdefault(v, set()).add(u)
    for w in population:
        preds = predecessors.get(w, set())
        for bound in (degree(w), degree(w) + 1, degree(w) + 2):
            parents, truncated = inverse_steps(w, bound)
            assert set(parents) == {u for u in preds if degree(u) <= bound}
            assert truncated == any(degree(u) > bound for u in preds)


def test_equivalent_bounded_examples():
    assert equivalent_bounded(parse("e0 h0"), (), 6).equivalent
    assert equivalent_bounded(parse("e0 h1"), (), 9).equivalent
    assert equivalent_bounded(parse("e1 h1"), (), 9).equivalent
    res = equivalent_bounded(parse("h0 e0"), (), 8)
    assert not res.equivalent
    assert res.truncated  # the negative answer is only within-bound


@given(small_words(max_len=3, max_index=2))
@settings(max_examples=25, deadline=None)
def test_equivalent_bounded_reflexive(w):
    assert equivalent_bounded(w, w, 9).equivalent


def test_equivalent_bounded_rejects_oversized_input():
    with pytest.raises(ValueError):
        equivalent_bounded(parse("h9"), (), 9)


def test_components_agree_with_per_pair_search():
    pop = list(all_words(2, 1))
    component = connected_components(6)
    for u in pop:
        for v in pop:
            assert equivalent_bounded(u, v, 6).equivalent == (component[u] == component[v])


def test_cross_check_oracle_small():
    report = cross_check_oracle(2, 1, 6)
    assert report.passed
    assert report.population == 21
    assert report.spot_checked > 0


def test_cross_check_oracle_rejects_small_bound():
    with pytest.raises(ValueError):
        cross_check_oracle(3, 2, 8)


def test_cross_check_oracle_rejects_empty_population():
    for max_len, max_index in ((-1, 2), (0, 2), (3, -1)):
        with pytest.raises(ValueError, match="population"):
            cross_check_oracle(max_len, max_index, 9)

"""Mechanical audit of termination and local confluence, plus an
equivalence oracle that does not rely on canonical forms.

Overlapping redexes occupy a three-letter window; by letter pattern the
possible parents fall into exactly four families (an eta followed by an
eps is never a redex):

    EEE  eps_i eps_j eps_k  (i < j < k)
    HHH  eta_i eta_j eta_k  (i > j > k)
    EEH  eps_i eps_j eta_k  (i < j)
    EHH  eps_i eta_j eta_k  (j > k)

plus DISJOINT for non-overlapping redexes, whose reducts commute
positionally.  EEH and EHH each split into seven subcases by index
comparisons, every one with a known closed-form common reduct.  The
subcase named "k>i+1" of EHH has two printed closed forms in circulation;
the audit checks both and records which one joins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from .rewrite import RuleCase, apply, chain_lengths, forward_steps, match_rule, normalize, reduction_graph, redexes
from .words import EPS, ETA, Generator, Word, _words_of_degree, all_words, degree, render, word_key
from .words import eps as eps_letter
from .words import eta as eta_letter

DISJOINT = "DISJOINT"
EEE = "EEE"
HHH = "HHH"
EEH = "EEH"
EHH = "EHH"

EEH_SUBCASES = ("k>j+1", "k=j+1", "k=j", "i+1<k<j", "k=i+1<j", "k=i", "k<i")
EHH_SUBCASES = ("i>j", "i=j", "i=j-1", "k<i<j-1", "k=i<j-1", "k=i+1", "k>i+1")


@dataclass(frozen=True)
class CriticalPair:
    parent: Word
    left_reduct: Word
    right_reduct: Word
    family: str
    subcase: str | None = None
    bound_found: Word | None = None


def eeh_subcase(i: int, j: int, k: int) -> str:
    if k > j + 1:
        return "k>j+1"
    if k == j + 1:
        return "k=j+1"
    if k == j:
        return "k=j"
    if i + 1 < k:
        return "i+1<k<j"
    if k == i + 1:
        return "k=i+1<j"
    if k == i:
        return "k=i"
    return "k<i"


def ehh_subcase(i: int, j: int, k: int) -> str:
    if i > j:
        return "i>j"
    if i == j:
        return "i=j"
    if i == j - 1:
        return "i=j-1"
    if k < i:
        return "k<i<j-1"
    if k == i:
        return "k=i<j-1"
    if k == i + 1:
        return "k=i+1"
    return "k>i+1"


def _overlap_pair(parent: Word, family: str, subcase: str | None) -> CriticalPair:
    return CriticalPair(parent, apply(parent, 0), apply(parent, 1), family, subcase)


def enumerate_overlaps(max_index: int) -> list[CriticalPair]:
    """Every three-letter parent with two overlapping redexes, indices
    bounded by max_index, tagged with family and subcase.

    Cross-checked on the fly against a blind scan of all three-letter
    words: any overlap outside the four families is a hard error.
    """
    if max_index < 2:
        raise ValueError("max_index must be >= 2 to instantiate every subcase family")
    rng = range(max_index + 1)
    pairs: list[CriticalPair] = []
    for i, j, k in product(rng, repeat=3):
        if i < j < k:
            pairs.append(_overlap_pair((eps_letter(i), eps_letter(j), eps_letter(k)), EEE, None))
        if i > j > k:
            pairs.append(_overlap_pair((eta_letter(i), eta_letter(j), eta_letter(k)), HHH, None))
        if i < j:
            pairs.append(
                _overlap_pair((eps_letter(i), eps_letter(j), eta_letter(k)), EEH, eeh_subcase(i, j, k))
            )
        if j > k:
            pairs.append(
                _overlap_pair((eps_letter(i), eta_letter(j), eta_letter(k)), EHH, ehh_subcase(i, j, k))
            )
    enumerated = {p.parent for p in pairs}
    letters = [Generator(kind, n) for kind in "he" for n in rng]
    for triple in product(letters, repeat=3):
        has_both = match_rule(*triple[:2]) is not None and match_rule(*triple[1:]) is not None
        if has_both != (triple in enumerated):
            raise AssertionError(f"overlap scan mismatch at {render(triple)}")
    pairs.sort(key=lambda p: (p.family, word_key(p.parent)))
    return pairs


def disjoint_critical_pairs(w: Word) -> list[CriticalPair]:
    """Critical pairs from non-overlapping redexes of w, with the directly
    constructed both-sides-rewritten word as the expected bound.
    """
    ps = [p for p, _ in redexes(w)]
    out = []
    for a in range(len(ps)):
        for b in range(a + 1, len(ps)):
            p1, p2 = ps[a], ps[b]
            if p2 - p1 < 2:
                continue
            left = apply(w, p1)
            # rewriting at p1 may shorten the word by 2 (the vanishing rule)
            both = apply(left, p2 + len(left) - len(w))
            out.append(CriticalPair(w, left, apply(w, p2), DISJOINT, None, both))
    return out


def sample_disjoint_parents(max_index: int, count: int) -> list[Word]:
    """A deterministic sample of words of length 4 or 5 carrying two
    disjoint redexes.
    """
    found: list[Word] = []
    for w in all_words(5, min(max_index, 3)):
        if len(w) < 4:
            continue
        ps = [p for p, _ in redexes(w)]
        if any(q - p >= 2 for p in ps for q in ps):
            found.append(w)
            if len(found) >= count:
                return found
    return found


def common_reducts(pair: CriticalPair) -> frozenset[Word]:
    """Words reachable from both reducts (breadth-first over full graphs)."""
    left = reduction_graph(pair.left_reduct).nodes
    right = reduction_graph(pair.right_reduct).nodes
    return frozenset(left & right)


def _least(commons: frozenset[Word]) -> Word | None:
    """The least common reduct by (degree, length, letters), if any."""
    return min(commons, key=lambda w: (degree(w), word_key(w)), default=None)


def resolve(pair: CriticalPair) -> CriticalPair:
    """Fill in a common lower bound for the pair, or leave it unset when
    none exists (which would falsify local confluence).
    """
    return replace(pair, bound_found=_least(common_reducts(pair)))


# Closed-form common reducts per family/subcase, as functions of the
# parent indices.  EHH/"k>i+1" carries the two circulating variants.
def _eee_bound(i, j, k):
    return (eps_letter(k - 2), eps_letter(j - 1), eps_letter(i))


def _hhh_bound(i, j, k):
    return (eta_letter(k), eta_letter(j - 1), eta_letter(i - 2))


_EEH_BOUNDS = {
    "k>j+1": lambda i, j, k: (eta_letter(k - 2), eps_letter(j - 1), eps_letter(i)),
    "k=j+1": lambda i, j, k: (eps_letter(i),),
    "k=j": lambda i, j, k: (eps_letter(i),),
    "i+1<k<j": lambda i, j, k: (eta_letter(k - 1), eps_letter(j - 2), eps_letter(i)),
    "k=i+1<j": lambda i, j, k: (eps_letter(j - 1),),
    "k=i": lambda i, j, k: (eps_letter(j - 1),),
    "k<i": lambda i, j, k: (eta_letter(k), eps_letter(j - 2), eps_letter(i - 1)),
}

_EHH_BOUNDS = {
    "i>j": lambda i, j, k: (eta_letter(k), eta_letter(j - 1), eps_letter(i - 2)),
    "i=j": lambda i, j, k: (eta_letter(k),),
    "i=j-1": lambda i, j, k: (eta_letter(k),),
    "k<i<j-1": lambda i, j, k: (eta_letter(k), eta_letter(j - 2), eps_letter(i - 1)),
    "k=i<j-1": lambda i, j, k: (eta_letter(j - 1),),
    "k=i+1": lambda i, j, k: (eta_letter(j - 1),),
    "k>i+1": lambda i, j, k: (eta_letter(k - 1), eta_letter(j - 2), eps_letter(i)),
}


def _ehh_alt_bound(i, j, k):
    # the other printed form for EHH/"k>i+1"; undefined when i = 0
    if i < 1:
        return None
    return (eps_letter(k), eta_letter(j - 2), eta_letter(i - 1))


def expected_bound(pair: CriticalPair) -> Word | None:
    """The known closed-form bound for an overlap pair, if any."""
    if pair.family == DISJOINT:
        return pair.bound_found
    idx = tuple(g.index for g in pair.parent)
    if pair.family == EEE:
        return _eee_bound(*idx)
    if pair.family == HHH:
        return _hhh_bound(*idx)
    if pair.family == EEH:
        return _EEH_BOUNDS[pair.subcase](*idx)
    return _EHH_BOUNDS[pair.subcase](*idx)


def alternative_bound(pair: CriticalPair) -> Word | None:
    if pair.family == EHH and pair.subcase == "k>i+1":
        return _ehh_alt_bound(*(g.index for g in pair.parent))
    return None


@dataclass(frozen=True)
class SubcaseRow:
    family: str
    subcase: str | None
    instances: int
    joinable: int
    sample_bound: Word | None
    formula_matches: int
    formula_applicable: int
    alt_formula_matches: int = 0
    alt_formula_applicable: int = 0


@dataclass(frozen=True)
class LocalConfluenceReport:
    max_index: int
    rows: tuple[SubcaseRow, ...]
    not_instantiated: tuple[tuple[str, str], ...]
    unjoinable: tuple[CriticalPair, ...]

    @property
    def passed(self) -> bool:
        return not self.unjoinable

    @property
    def all_subcases_instantiated(self) -> bool:
        return not self.not_instantiated

    def row(self, family: str, subcase: str | None = None) -> SubcaseRow:
        for r in self.rows:
            if r.family == family and r.subcase == subcase:
                return r
        raise KeyError((family, subcase))


def audit_local_confluence(max_index: int = 6, disjoint_samples: int = 32) -> LocalConfluenceReport:
    """Resolve every overlap within the index bound plus a sample of
    disjoint-redex parents; tally joinability and closed-form hits.
    """
    pairs = enumerate_overlaps(max_index)
    for w in sample_disjoint_parents(max_index, disjoint_samples):
        pairs.extend(disjoint_critical_pairs(w)[:1])

    groups: dict[tuple[str, str | None], list] = {}
    unjoinable = []
    for pair in pairs:
        commons = common_reducts(pair)
        bound = _least(commons)
        groups.setdefault((pair.family, pair.subcase), []).append((pair, bound, commons))
        if bound is None:
            unjoinable.append(replace(pair, bound_found=None))

    rows = []
    for (family, subcase), entries in sorted(groups.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
        formula_matches = formula_applicable = alt_matches = alt_applicable = 0
        for pair, _, commons in entries:
            want = expected_bound(pair)
            if want is not None:
                formula_applicable += 1
                formula_matches += want in commons
            alt = alternative_bound(pair)
            if alt is not None:
                alt_applicable += 1
                alt_matches += alt in commons
        rows.append(
            SubcaseRow(
                family,
                subcase,
                len(entries),
                sum(1 for _, bound, _ in entries if bound is not None),
                entries[0][1],
                formula_matches,
                formula_applicable,
                alt_matches,
                alt_applicable,
            )
        )

    expected = {(EEE, None), (HHH, None)}
    expected |= {(EEH, s) for s in EEH_SUBCASES}
    expected |= {(EHH, s) for s in EHH_SUBCASES}
    missing = tuple(sorted((f, str(s)) for f, s in expected - set(groups)))
    return LocalConfluenceReport(max_index, tuple(rows), missing, tuple(unjoinable))


# --- termination -------------------------------------------------------------

@dataclass(frozen=True)
class TerminationReport:
    words_checked: int
    steps_checked: int
    bad_steps: tuple[tuple[Word, int, int], ...]  # (word, position, observed drop)
    longest_chain: int
    chain_violations: tuple[Word, ...]  # words whose maximal chain exceeds degree

    @property
    def passed(self) -> bool:
        return not self.bad_steps and not self.chain_violations


def audit_termination(max_len: int, max_index: int) -> TerminationReport:
    """Check the degree drop of every redex of every word within bounds
    (1 per step, 2 for the vanishing rule) and that no reduction sequence
    is longer than the start word's degree.
    """
    if max_len < 1 or max_index < 1:
        raise ValueError("bounds must be >= 1")
    # No rule raises an index or lengthens a word, so this population is
    # closed under steps, as chain_lengths requires.
    successors: dict[Word, list[Word]] = {}
    steps = 0
    bad: list[tuple[Word, int, int]] = []
    for w in all_words(max_len, max_index):
        d = degree(w)
        nexts = successors[w] = []
        for p, rule in redexes(w):
            steps += 1
            v = w[:p] + rule.rhs + w[p + 2 :]
            drop = d - degree(v)
            want = 2 if rule.case is RuleCase.EPS_ETA_ZERO else 1
            if drop != want:
                bad.append((w, p, drop))
            nexts.append(v)
    lengths = chain_lengths(successors)
    violations = tuple(w for w in successors if lengths[w] > degree(w))
    return TerminationReport(len(successors), steps, tuple(bad), max(lengths.values()), violations)


# --- equivalence oracle ------------------------------------------------------

def inverse_steps(w: Word, max_degree: int) -> tuple[list[Word], bool]:
    """One-step predecessors of w with degree <= max_degree, by solving
    each rule's right-hand side against every factor, plus insertions of
    the vanishing rule's left-hand side.  Also reports whether any
    predecessor was cut off by the bound.
    """
    d = degree(w)
    parents: list[Word] = []
    truncated = False

    def emit(p: int, lhs: tuple[Generator, ...], consumed: int) -> None:
        nonlocal truncated
        parent = w[:p] + lhs + w[p + consumed :]
        if degree(parent) > max_degree:
            truncated = True
        else:
            parents.append(parent)

    for p in range(len(w) - 1):
        x, y = w[p], w[p + 1]
        a, b = x.index, y.index
        if x.kind == EPS and y.kind == EPS:
            if a + 1 > b:
                emit(p, (eps_letter(b), eps_letter(a + 1)), 2)
        elif x.kind == ETA and y.kind == ETA:
            if b + 1 > a:
                emit(p, (eta_letter(b + 1), eta_letter(a)), 2)
        elif x.kind == ETA and y.kind == EPS:
            if a > b:
                emit(p, (eps_letter(b), eta_letter(a + 1)), 2)
            else:
                emit(p, (eps_letter(b + 1), eta_letter(a)), 2)
        else:
            if b == a + 1:
                emit(p, (eps_letter(b), eta_letter(b)), 2)
            if b == a:
                emit(p, (eps_letter(a), eta_letter(a + 1)), 2)
    if d + 2 <= max_degree:
        for p in range(len(w) + 1):
            parents.append(w[:p] + (eps_letter(0), eta_letter(0)) + w[p:])
    else:
        truncated = True
    return parents, truncated


@dataclass(frozen=True)
class OracleVerdict:
    equivalent: bool
    truncated: bool  # when set, a negative answer is only "within the bound"
    explored: int


def equivalent_bounded(u: Word, v: Word, max_degree: int) -> OracleVerdict:
    """Are u and v connected by rewrite steps taken in either direction,
    never passing through a word of degree beyond max_degree?

    Works on raw words, without canonical forms or any confluence
    assumption.
    """
    if degree(u) > max_degree or degree(v) > max_degree:
        raise ValueError("input degree exceeds the oracle bound")
    if u == v:
        return OracleVerdict(True, False, 1)
    seen = {u}
    frontier = [u]
    truncated = False
    while frontier:
        nxt: list[Word] = []
        for w in frontier:
            inverse, cut = inverse_steps(w, max_degree)
            truncated = truncated or cut
            for n in forward_steps(w) + inverse:
                if n in seen:
                    continue
                if n == v:
                    return OracleVerdict(True, truncated, len(seen) + 1)
                seen.add(n)
                nxt.append(n)
        frontier = nxt
    return OracleVerdict(False, truncated, len(seen))


def connected_components(max_degree: int) -> dict[Word, int]:
    """Component id of every word of degree <= max_degree under the
    undirected step relation, restricted to that universe.
    """
    universe: list[Word] = []
    for d in range(max_degree + 1):
        universe.extend(_words_of_degree(d))
    index = {w: n for n, w in enumerate(universe)}
    parent = list(range(len(universe)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for w in universe:
        a = find(index[w])
        for nxt in forward_steps(w):
            b = find(index[nxt])
            if a != b:
                parent[b] = a
                a = find(a)
    return {w: find(i) for w, i in index.items()}


@dataclass(frozen=True)
class CrossCheckReport:
    population: int
    pairs_checked: int
    discrepancies: tuple[tuple[Word, Word, bool, bool], ...]  # (u, v, oracle, nf-equal)
    spot_checked: int

    @property
    def passed(self) -> bool:
        return not self.discrepancies


def cross_check_oracle(max_len: int, max_index: int, max_degree: int) -> CrossCheckReport:
    """Against every word pair within bounds: the bounded bidirectional
    closure must agree with canonical-form equality.  A deterministic
    sample of pairs is re-verified with the per-pair search proper.
    """
    if max_len * (max_index + 1) > max_degree:
        raise ValueError("max_degree too small for the word population")
    population = list(all_words(max_len, max_index))
    component = connected_components(max_degree)
    nf = {w: normalize(w) for w in population}
    pairs = len(population) * (len(population) + 1) // 2
    stride = max(1, pairs // 25)
    nf_discrepancies = []
    spot_discrepancies = []
    seen = 0
    for a, u in enumerate(population):
        for v in population[a:]:
            seen += 1
            agree_oracle = component[u] == component[v]
            agree_nf = nf[u] == nf[v]
            if agree_oracle != agree_nf:
                nf_discrepancies.append((u, v, agree_oracle, agree_nf))
            if seen % stride == 0:
                verdict = equivalent_bounded(u, v, max_degree)
                if verdict.equivalent != agree_oracle:
                    spot_discrepancies.append((u, v, verdict.equivalent, agree_oracle))
    discrepancies = tuple(nf_discrepancies + spot_discrepancies)
    return CrossCheckReport(len(population), pairs, discrepancies, pairs // stride)

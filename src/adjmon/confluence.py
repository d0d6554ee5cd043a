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

``rewrite`` owns the rule relation in both directions: overlap parents
are the three-letter words in which ``match_rule`` finds two redexes,
and the oracle's one-step predecessors are ``rewrite.inverse_steps``.
Each family's case analysis is one ordered table of data in ``_CASES``,
a row per subcase holding its guard, bounds on the difference of two
parent indices, and its closed form, a ``rewrite.RULES`` template; the
subcase names, the classification of parents, each critical pair's
closed form ``expected`` and the subcases not instantiated are all read
from it.
"""

from __future__ import annotations

from itertools import chain, combinations, combinations_with_replacement, islice, product
from typing import Iterator, NamedTuple

from .rewrite import INF, I, J, K, RuleCase, apply, forward_steps, instantiate, inverse_steps, match_rule, normalize
from .rewrite import collector_paused, reduction_graph, redexes
from .words import EPS, ETA, Word, _block_start, _heads, _words_by_degree, all_words, alphabet, degree, render, word_key

DISJOINT = "DISJOINT"
EEE = "EEE"
HHH = "HHH"
EEH = "EEH"
EHH = "EHH"

DISJOINT_SAMPLES = 32  # the disjoint-redex parents that audit_local_confluence samples
# the population that `adjmon audit` cross-checks the oracle on: words of length <= 3, indices <= 2
ORACLE_MAX_LEN, ORACLE_MAX_INDEX = 3, 2

ALWAYS = (I, J, -INF, INF)  # the guard of a family's last row
# Each overlap family's case analysis, as an ordered table of rows
# (subcase, guard, closed form) over the parent indices I, J, K: the first
# row whose guard (u, v, lo, hi) holds, lo <= index u - index v <= hi, names
# the subcase, and its closed form, a template in the format of
# ``rewrite.RULES``, is the known common reduct.  EEE and HHH are not split.
_CASES = {
    EEE: ((None, ALWAYS, ((EPS, K, -2), (EPS, J, -1), (EPS, I, 0))),),
    HHH: ((None, ALWAYS, ((ETA, K, 0), (ETA, J, -1), (ETA, I, -2))),),
    EEH: (
        ("k>j+1", (K, J, 2, INF), ((ETA, K, -2), (EPS, J, -1), (EPS, I, 0))),
        ("k=j+1", (K, J, 1, 1), ((EPS, I, 0),)),
        ("k=j", (K, J, 0, 0), ((EPS, I, 0),)),
        ("i+1<k<j", (K, I, 2, INF), ((ETA, K, -1), (EPS, J, -2), (EPS, I, 0))),
        ("k=i+1<j", (K, I, 1, 1), ((EPS, J, -1),)),
        ("k=i", (K, I, 0, 0), ((EPS, J, -1),)),
        ("k<i", ALWAYS, ((ETA, K, 0), (EPS, J, -2), (EPS, I, -1))),
    ),
    EHH: (
        ("i>j", (I, J, 1, INF), ((ETA, K, 0), (ETA, J, -1), (EPS, I, -2))),
        ("i=j", (I, J, 0, 0), ((ETA, K, 0),)),
        ("i=j-1", (I, J, -1, -1), ((ETA, K, 0),)),
        ("k<i<j-1", (I, K, 1, INF), ((ETA, K, 0), (ETA, J, -2), (EPS, I, -1))),
        ("k=i<j-1", (I, K, 0, 0), ((ETA, J, -1),)),
        ("k=i+1", (K, I, 1, 1), ((ETA, J, -1),)),
        ("k>i+1", ALWAYS, ((ETA, K, -1), (ETA, J, -2), (EPS, I, 0))),
    ),
}
_ALTERNATIVE = {(EHH, "k>i+1"): ((EPS, K, 0), (ETA, J, -2), (ETA, I, -1))}  # the other printed closed form


class CriticalPair(NamedTuple):
    parent: Word
    left_reduct: Word
    right_reduct: Word
    family: str
    subcase: str | None
    expected: Word  # the closed-form common reduct that the audit checks


def _case(family: str, indices: tuple[int, ...]) -> tuple:
    """The first row of ``_CASES[family]`` whose guard holds at the indices."""
    for row in _CASES[family]:
        u, v, lo, hi = row[1]
        if lo <= indices[u] - indices[v] <= hi:
            return row


def subcase(family: str, i: int, j: int, k: int) -> str | None:
    """The subcase of an overlap parent of the family with indices i, j, k."""
    return _case(family, (i, j, k))[0]


def _overlap_pairs(max_index: int) -> Iterator[CriticalPair]:
    """Every three-letter parent with two overlapping redexes, indices
    bounded by max_index, tagged with family, subcase and closed form, in
    scan order, which is ``word_key`` order.

    The parents come from a blind scan of all three-letter words with
    ``match_rule``; an overlap outside the four families is a hard error.
    """
    if max_index < 2:
        raise ValueError("max_index must be >= 2 to instantiate every subcase family")
    for parent in product(alphabet(max_index), repeat=3):
        if match_rule(*parent[:2]) is None or match_rule(*parent[1:]) is None:
            continue
        family = "".join(g.kind for g in parent).upper()
        if family not in _CASES:
            raise AssertionError(f"overlap outside the four families at {render(parent)}")
        indices = tuple(g.index for g in parent)
        name, _, form = _case(family, indices)
        yield CriticalPair(parent, apply(parent, 0), apply(parent, 1), family, name, instantiate(form, indices))


def enumerate_overlaps(max_index: int) -> list[CriticalPair]:
    """The pairs of ``_overlap_pairs``, ordered by family, then parent."""
    return sorted(_overlap_pairs(max_index), key=lambda p: (p.family, word_key(p.parent)))


def disjoint_critical_pair(w: Word) -> CriticalPair | None:
    """The first critical pair of w from two non-overlapping redexes, with
    the word that has both rewritten as its closed form; None if w has none.
    """
    for p1, p2 in combinations([p for p, _ in redexes(w)], 2):
        if p2 - p1 >= 2:
            left = apply(w, p1)
            # rewriting at p1 may shorten the word by 2 (the vanishing rule)
            both = apply(left, p2 + len(left) - len(w))
            return CriticalPair(w, left, apply(w, p2), DISJOINT, None, both)
    return None


def sample_disjoint_parents(max_index: int) -> list[Word]:
    """The first DISJOINT_SAMPLES words, in enumeration order, carrying two
    disjoint redexes.  All of them have length 4 and exactly one disjoint
    pair, and the sample is the same for every max_index >= 3.
    """
    parents = (w for w in all_words(5, min(max_index, 3)) if disjoint_critical_pair(w) is not None)
    return list(islice(parents, DISJOINT_SAMPLES))


def common_reducts(pair: CriticalPair) -> frozenset[Word]:
    """Words reachable from both reducts (breadth-first over full graphs)."""
    return frozenset(reduction_graph(pair.left_reduct).nodes & reduction_graph(pair.right_reduct).nodes)


def _least(commons: frozenset[Word]) -> Word | None:
    """The least common reduct by (degree, length, letters), if any."""
    return min(commons, key=lambda w: (degree(w), word_key(w)), default=None)


def resolve(pair: CriticalPair) -> Word | None:
    """The least common reduct of the pair, or None when none exists (which would falsify local confluence)."""
    return _least(common_reducts(pair))


def alternative_bound(pair: CriticalPair) -> Word | None:
    """The other printed closed form for EHH/"k>i+1"; None where it has a negative index (i = 0)."""
    form = _ALTERNATIVE.get((pair.family, pair.subcase))
    return None if form is None else instantiate(form, tuple(g.index for g in pair.parent))


class SubcaseRow(NamedTuple):
    family: str
    subcase: str | None
    instances: int
    joinable: int
    sample_bound: Word | None
    formula_matches: int  # of the row's instances
    alt_formula_matches: int = 0
    alt_formula_applicable: int = 0


class LocalConfluenceReport(NamedTuple):
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


def audit_local_confluence(max_index: int = 6) -> LocalConfluenceReport:
    """Resolve every overlap within the index bound plus a sample of
    disjoint-redex parents; tally joinability and closed-form hits.
    """
    disjoint = map(disjoint_critical_pair, sample_disjoint_parents(max_index))
    rows: dict[tuple[str, str | None], SubcaseRow] = {}  # tallied as each pair is resolved
    unjoinable = []
    for pair in chain(_overlap_pairs(max_index), disjoint):
        commons = common_reducts(pair)
        bound = _least(commons)
        if bound is None:
            unjoinable.append(pair)
        alt = alternative_bound(pair)
        key = (pair.family, pair.subcase)
        r = rows.get(key) or SubcaseRow(pair.family, pair.subcase, 0, 0, bound, 0)
        rows[key] = r._replace(
            instances=r.instances + 1,
            joinable=r.joinable + (bound is not None),
            formula_matches=r.formula_matches + (pair.expected in commons),
            alt_formula_matches=r.alt_formula_matches + (alt is not None and alt in commons),
            alt_formula_applicable=r.alt_formula_applicable + (alt is not None),
        )

    cases = {(family, name) for family, table in _CASES.items() for name, _, _ in table}
    missing = tuple(sorted((f, str(s)) for f, s in cases - set(rows)))
    ordered = sorted(rows.values(), key=lambda r: (r.family, str(r.subcase)))
    return LocalConfluenceReport(max_index, tuple(ordered), missing, tuple(unjoinable))


# --- termination -------------------------------------------------------------

class TerminationReport(NamedTuple):
    words_checked: int
    steps_checked: int
    bad_steps: tuple[tuple[Word, int, int], ...]  # (word, position, observed drop)
    longest_chain: int

    @property
    def passed(self) -> bool:
        return not self.bad_steps


def audit_termination(max_len: int, max_index: int) -> TerminationReport:
    """Check the degree drop of every redex of every word within bounds
    (1 per step, 2 for the vanishing rule), and find the longest reduction
    sequence.  Chains count only steps that lower the degree, so none is
    longer than its start word's degree.

    A word w is handled by its number, its place in ``all_words(max_len,
    max_index)``: over L = 2 (max_index + 1) letters, the words of length n
    start at S(n) = L^0 + ... + L^(n-1), and letter p has place value
    L^(n-1-p).  With i = w - S(n), a step at p from letters a b to r0 r1
    gives w + (r0 - a) L^(n-1-p) + (r1 - b) L^(n-2-p), and one deleting them
    S(n-2) + (i // L^(n-p)) L^(n-2-p) + (i mod L^(n-2-p)).  Every degree is
    tabled first, as a reduct can come after its word (e0 e2 -> e1 e0), and
    each drop is read from the table, so a wrong number shows as a bad step.
    Chain lengths follow by length, then ascending degree; a step that does
    not lower the degree or leaves the bounds is bad and left out of them.
    """
    if max_len < 1 or max_index < 1:
        raise ValueError("bounds must be >= 1")
    letters = alphabet(max_index)
    size, number = len(letters), {g: c for c, g in enumerate(letters)}
    table: list[tuple | None] = []  # at a L + b, for letters a b: (change of w per L^(n-2-p), want, drop)
    for (a, x), (b, y) in product(enumerate(letters), repeat=2):
        rule = match_rule(x, y)
        if rule is not None:
            r = [number.get(g) for g in rule.rhs]
            if not r:
                change = None  # the letters vanish
            elif len(r) == 2 and None not in r:
                change = (r[0] - a) * size + r[1] - b
            else:
                change = False  # the reduct leaves the bounds
            rule = (change, 2 if rule.case is RuleCase.EPS_ETA_ZERO else 1, degree(rule.lhs) - degree(rule.rhs))
        table.append(rule)
    pairs = len(table)
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
                    bad.append((w, p, drop))
            chain[w] = longest
    word = list(islice(all_words(max_len, max_index), max((w for w, _, _ in bad), default=-1) + 1))
    bad_steps = tuple((word[w], p, drop) for w, p, drop in sorted(bad))
    return TerminationReport(len(deg), steps, bad_steps, max(chain))


# --- equivalence oracle ------------------------------------------------------

class OracleVerdict(NamedTuple):
    equivalent: bool
    explored: int


@collector_paused
def equivalent_bounded(u: Word, v: Word, max_degree: int) -> OracleVerdict:
    """Are u and v connected by rewrite steps taken in either direction,
    never passing through a word of degree beyond max_degree?

    Works on raw words, without canonical forms or any confluence
    assumption.  Runs with the collector paused (``collector_paused``):
    the words it keeps, in ``seen`` and the frontier, hold no reference
    cycle.
    """
    if degree(u) > max_degree or degree(v) > max_degree:
        raise ValueError("input degree exceeds the oracle bound")
    if u == v:
        return OracleVerdict(True, 1)
    seen = {u}
    frontier = [u]
    while frontier:
        nxt: list[Word] = []
        for w in frontier:
            for n in forward_steps(w) + inverse_steps(w, max_degree):
                if n in seen:
                    continue
                if n == v:
                    return OracleVerdict(True, len(seen) + 1)
                seen.add(n)
                nxt.append(n)
        frontier = nxt
    return OracleVerdict(False, len(seen))


@collector_paused
def connected_components(max_degree: int) -> dict[Word, int]:
    """Component id of every word of degree <= max_degree under the
    undirected step relation, restricted to that universe: the labels of
    ``_component_labels``, keyed by the words they number.  Runs with the
    collector paused (``collector_paused``): the words and the dict hold no
    reference cycle.
    """
    labels = _component_labels(max_degree)
    return {w: c for level, ids in zip(_words_by_degree(max_degree), labels) for w, c in zip(level, ids)}


def _component_labels(max_degree: int) -> list[list[int]]:
    """The component of every word of degree <= max_degree under the
    undirected step relation, restricted to that universe, by word number:
    at [d][i] for the word of degree d numbered i by ``_block_start``.
    No word is built.

    Built one degree level at a time, from two facts that hold for any
    rewrite system whose steps lower the degree.  Write U_m for the words
    of degree <= m, and wt(x) = index + 1 for a letter x.  Congruence: if r
    and r' are connected inside U_{m - wt(x)}, so are x r and x r' inside
    U_m.  Generation: a step of x r rewrites its first factor, or is x
    followed by a step of r inside U_{m - wt(x)}.  So at level m each word
    x r gets the node (x, component of r at level m - wt(x)), the empty
    word a node of its own; steps of the second kind stay inside a node,
    and joining the nodes along first-factor rewrites, which map blocks of
    word numbers onto blocks (``_block_start``), gives the components of
    U_m.  Neither confluence nor ``normalize`` is used.
    """

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    labels: list[list[list[int]]] = []  # labels[m][d][i]: component at level m of word i of degree d
    count: list[int] = []  # count[m]: components at level m, numbered from 0
    for m in range(max_degree + 1):
        first, size = {}, 1  # the first node of each letter's nodes; node 0 is the empty word
        for g in _heads(m):
            first[g], size = size, size + count[m - g.index - 1]
        nodes = [[0]]  # nodes[d][i]: the node of word i of degree d
        for d in range(1, m + 1):
            nodes.append([first[g] + c for g in _heads(d) for c in labels[m - g.index - 1][d - g.index - 1]])
        parent = list(range(size))
        for d in range(2, m + 1):
            for x in _heads(d):
                for y in _heads(d - x.index - 1):
                    rule = match_rule(x, y)
                    if rule is not None:
                        rest = d - degree((x, y))
                        block, lower = len(nodes[rest]), rest + degree(rule.rhs)
                        a, b = _block_start((x, y), d), _block_start(rule.rhs, lower)
                        for u, v in set(zip(nodes[d][a : a + block], nodes[lower][b : b + block])):
                            parent[find(v)] = find(u)
        roots: dict[int, int] = {}
        number = [roots.setdefault(find(n), len(roots)) for n in range(size)]
        labels.append([[number[n] for n in level] for level in nodes])
        count.append(len(roots))
    return labels[-1] if labels else []


class CrossCheckReport(NamedTuple):
    population: int
    pairs_checked: int
    discrepancies: tuple[tuple[Word, Word, bool, bool], ...]  # (u, v, oracle, nf-equal)
    spot_checked: int

    @property
    def passed(self) -> bool:
        return not self.discrepancies


@collector_paused
def cross_check_oracle(max_len: int, max_index: int, max_degree: int) -> CrossCheckReport:
    """Against every word pair within bounds: the bounded bidirectional
    closure must agree with canonical-form equality.  The closure is read
    off ``_component_labels(max_degree)`` by word number, so no other word
    of its universe is built; a deterministic sample of pairs is
    re-verified with the per-pair search, ``equivalent_bounded``.

    The two sides are independent procedures: the closure rewrites words
    with the rules and never forms a canonical form, while ``normalize``
    reads canonical forms off the monotone-map model and applies no rule.

    One pass compares the partitions: they agree on every pair exactly when
    the map from component to canonical form is well defined and injective.
    A word that breaks either adds one discrepancy, paired with the first
    word of its component or of its canonical form.  The sample is every
    stride-th pair.  Runs with the collector paused (``collector_paused``),
    as do the searches it calls: the labels, the population and the
    searches' words hold no reference cycle.
    """
    if max_len < 1 or max_index < 0:
        raise ValueError("the oracle population needs max_len >= 1 and max_index >= 0")
    if max_len * (max_index + 1) > max_degree:
        raise ValueError("max_degree too small for the word population")
    population = list(all_words(max_len, max_index))
    labels = _component_labels(max_degree)
    component = {w: labels[degree(w)][_block_start(w, degree(w))] for w in population}
    discrepancies = []
    first_of_component: dict[int, tuple[Word, Word]] = {}  # component -> (first word, its canonical form)
    first_of_form: dict[Word, Word] = {}
    for w in population:
        nf = normalize(w)
        u, form = first_of_component.setdefault(component[w], (w, nf))
        v = first_of_form.setdefault(nf, w)
        if form != nf:
            discrepancies.append((u, w, True, False))
        elif component[v] != component[w]:
            discrepancies.append((v, w, False, True))
    pairs = len(population) * (len(population) + 1) // 2
    stride = max(1, pairs // 25)
    for u, v in islice(combinations_with_replacement(population, 2), stride - 1, None, stride):
        verdict = equivalent_bounded(u, v, max_degree).equivalent
        if verdict != (component[u] == component[v]):
            discrepancies.append((u, v, verdict, not verdict))  # the search, then the components
    return CrossCheckReport(len(population), pairs, tuple(discrepancies), pairs // stride)

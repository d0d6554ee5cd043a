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

``rewrite`` owns the rule relation in both directions.  The audits read
which letter pairs rewrite off one scan, ``_redex_pairs``: an overlap
parent joins two redex pairs on a shared letter, a disjoint one sets two
side by side, and the termination audit and the oracle's components take
their steps from it; the oracle's predecessors are ``rewrite.inverse_steps``.
Each family's case analysis is one ordered table of data in ``_CASES``,
in the format of ``rewrite.RULES`` over the parent indices I, J, K: a row
per subcase, the first whose guard holds (``rewrite.first_row``), holding
its closed form; a family's last row has the empty guard.  The subcase
names, the classification of parents, each critical pair's closed form
``expected`` and the subcases not instantiated are all read from it.
"""

from __future__ import annotations

from itertools import chain, combinations_with_replacement, groupby, islice, product
from typing import Iterator, NamedTuple

from .rewrite import INF, I, J, K, RuleCase, RuleInstance, forward_steps, instantiate, inverse_steps, match_rule
from .rewrite import collector_paused, first_row, normalize, reduction_graph
from .words import EPS, ETA, Generator, Word, _block_start, _heads, _words_by_degree, all_words, alphabet, degree
from .words import render, word_key

DISJOINT = "DISJOINT"
EEE = "EEE"
HHH = "HHH"
EEH = "EEH"
EHH = "EHH"

DISJOINT_SAMPLES = 32  # the disjoint-redex parents that audit_local_confluence samples
# the population that `adjmon audit` cross-checks the oracle on: words of length <= 3, indices <= 2
ORACLE_MAX_LEN, ORACLE_MAX_INDEX = 3, 2
MIN_OVERLAP_INDEX = 2  # the least max_index at which every overlap family has a parent (all subcases: 3)

# Each overlap family's subcases, (subcase, guard, closed form) rows over the
# parent indices; the closed form is the known common reduct.  EEE and HHH are not split.
_CASES = {
    EEE: ((None, (), ((EPS, K, -2), (EPS, J, -1), (EPS, I, 0))),),
    HHH: ((None, (), ((ETA, K, 0), (ETA, J, -1), (ETA, I, -2))),),
    EEH: (
        ("k>j+1", ((K, J, 2, INF),), ((ETA, K, -2), (EPS, J, -1), (EPS, I, 0))),
        ("k=j+1", ((K, J, 1, 1),), ((EPS, I, 0),)),
        ("k=j", ((K, J, 0, 0),), ((EPS, I, 0),)),
        ("i+1<k<j", ((K, I, 2, INF),), ((ETA, K, -1), (EPS, J, -2), (EPS, I, 0))),
        ("k=i+1<j", ((K, I, 1, 1),), ((EPS, J, -1),)),
        ("k=i", ((K, I, 0, 0),), ((EPS, J, -1),)),
        ("k<i", (), ((ETA, K, 0), (EPS, J, -2), (EPS, I, -1))),
    ),
    EHH: (
        ("i>j", ((I, J, 1, INF),), ((ETA, K, 0), (ETA, J, -1), (EPS, I, -2))),
        ("i=j", ((I, J, 0, 0),), ((ETA, K, 0),)),
        ("i=j-1", ((I, J, -1, -1),), ((ETA, K, 0),)),
        ("k<i<j-1", ((I, K, 1, INF),), ((ETA, K, 0), (ETA, J, -2), (EPS, I, -1))),
        ("k=i<j-1", ((I, K, 0, 0),), ((ETA, J, -1),)),
        ("k=i+1", ((K, I, 1, 1),), ((ETA, J, -1),)),
        ("k>i+1", (), ((ETA, K, -1), (ETA, J, -2), (EPS, I, 0))),
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


def subcase(family: str, i: int, j: int, k: int) -> str | None:
    """The subcase of an overlap parent of the family with indices i, j, k."""
    return first_row(_CASES[family], (i, j, k))[0]


def _redex_pairs(letters: list[Generator]) -> list[tuple[Generator, Generator, RuleInstance]]:
    """Every pair x y of the letters that a rule rewrites, as (x, y, rule),
    in scan order: a blind scan of all pairs with ``match_rule``.
    """
    return [(x, y, rule) for x, y in product(letters, repeat=2) if (rule := match_rule(x, y)) is not None]


def _overlap_pairs(max_index: int) -> Iterator[CriticalPair]:
    """Every three-letter parent with two overlapping redexes, indices
    bounded by max_index, tagged with family, subcase and closed form, in
    scan order, which is ``word_key`` order.

    A parent x y z joins the redex pairs x y and y z on their shared
    letter; an overlap outside the four families is a hard error.
    """
    if max_index < MIN_OVERLAP_INDEX:
        raise ValueError(f"max_index must be >= {MIN_OVERLAP_INDEX} to instantiate every overlap family")
    pairs = _redex_pairs(alphabet(max_index))
    starting = {y: [(z, right) for _, z, right in group] for y, group in groupby(pairs, lambda p: p[0])}  # y z by y
    for x, y, left in pairs:
        for z, right in starting.get(y, ()):
            parent = (x, y, z)
            family = "".join(g.kind for g in parent).upper()
            if family not in _CASES:
                raise AssertionError(f"overlap outside the four families at {render(parent)}")
            indices = tuple(g.index for g in parent)
            name, _, form = first_row(_CASES[family], indices)
            yield CriticalPair(parent, left.rhs + (z,), (x,) + right.rhs, family, name, instantiate(form, indices))


def enumerate_overlaps(max_index: int) -> list[CriticalPair]:
    """The pairs of ``_overlap_pairs``, ordered by family, then parent."""
    return sorted(_overlap_pairs(max_index), key=lambda p: (p.family, word_key(p.parent)))


def _disjoint_pairs(max_index: int) -> Iterator[CriticalPair]:
    """The first DISJOINT_SAMPLES parents x y u v of two side-by-side redex
    pairs, indices bounded by min(max_index, 3), in scan order, which is
    ``word_key`` order; the closed form rewrites both.  No shorter word has
    disjoint redexes, so these are the first words with two.
    """
    pairs = _redex_pairs(alphabet(min(max_index, 3)))
    for (x, y, left), (u, v, right) in islice(product(pairs, repeat=2), DISJOINT_SAMPLES):
        yield CriticalPair((x, y, u, v), left.rhs + (u, v), (x, y) + right.rhs, DISJOINT, None, left.rhs + right.rhs)


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
    """Resolve every overlap within the index bound plus the disjoint-redex
    sample of ``_disjoint_pairs``; tally joinability and closed-form hits,
    and keep each row's first least common reduct as its sample bound.
    """
    rows: dict[tuple[str, str | None], SubcaseRow] = {}  # tallied as each pair is resolved
    unjoinable = []
    for pair in chain(_overlap_pairs(max_index), _disjoint_pairs(max_index)):
        commons = common_reducts(pair)
        if not commons:
            unjoinable.append(pair)
        alt = alternative_bound(pair)
        key = (pair.family, pair.subcase)
        r = rows.get(key) or SubcaseRow(pair.family, pair.subcase, 0, 0, _least(commons), 0)
        rows[key] = r._replace(
            instances=r.instances + 1,
            joinable=r.joinable + bool(commons),
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
    longest_chain: int
    bad_pairs: tuple[tuple[Generator, Generator, int | None], ...]  # (x, y, observed drop: None if no reduct)

    @property
    def passed(self) -> bool:
        return not self.bad_pairs


def audit_termination(max_len: int, max_index: int) -> TerminationReport:
    """Check every redex pair x y of the letters of index <= max_index: it
    lowers the degree by the drop stated here, beside the rule table (1, or
    2 for the vanishing rule), to a reduct of 0 or 2 of those letters; a pair
    that misses is bad, its drop None where no reduct is built.  As ``degree``
    is additive, that decides termination: a step anywhere drops by its
    pair's drop, and the words of length n over L letters hold (n - 1) P
    L^(n-2) steps, P the number of redex pairs.

    The walk by word number only measures the longest reduction sequence
    among those words, over the steps that stay within the bounds and lower
    the degree, so no chain is longer than its start word's degree.  The
    words of length n start at number S(n) = L^0 + ... + L^(n-1), and letter
    p has place value L^(n-1-p).  With i = w - S(n), a step at p from
    letters a b to r0 r1 gives w + (r0 - a) L^(n-1-p) + (r1 - b) L^(n-2-p),
    and one deleting them S(n-2) + (i // L^(n-p)) L^(n-2-p) + (i mod
    L^(n-2-p)).  A reduct can come after its word (e0 e2 -> e1 e0), so
    chain lengths follow by length, then ascending degree.
    """
    if max_len < 1 or max_index < 1:
        raise ValueError("bounds must be >= 1")
    letters = alphabet(max_index)
    size, number, redex_pairs = len(letters), {g: c for c, g in enumerate(letters)}, _redex_pairs(letters)
    pairs, bad = size * size, {}
    step: list = [False] * pairs  # at a L + b, for letters a b: the change of w per L^(n-2-p), None if they vanish
    for x, y, rule in redex_pairs:
        if rule.rhs is None:
            bad[x, y] = None
            continue
        a, b, r = number[x], number[y], [number.get(g) for g in rule.rhs]
        drop, inside = degree(rule.lhs) - degree(rule.rhs), len(r) in (0, 2) and None not in r
        if drop != (2 if rule.case is RuleCase.EPS_ETA_ZERO else 1) or not inside:
            bad[x, y] = drop
        if inside and drop > 0:
            step[a * size + b] = (r[0] - a) * size + r[1] - b if r else None
    start, deg, level = [0, 1], [0], [0]  # start[n]: the first number of length n
    for _ in range(max_len):
        level = [d + g.index + 1 for d in level for g in letters]
        deg += level
        start.append(len(deg))
    chain = [0] * len(deg)
    for n in range(2, max_len + 1):
        places = [size ** (n - 2 - p) for p in range(n - 1)]
        for w in sorted(range(start[n], start[n + 1]), key=deg.__getitem__):
            i, longest = w - start[n], 0
            for place in places:
                hi = i // place
                change = step[hi % pairs]
                if change is not False:
                    v = w + change * place if change is not None else start[n - 2] + hi // pairs * place + i % place
                    if chain[v] >= longest:
                        longest = chain[v] + 1
            chain[w] = longest
    steps = sum((n - 1) * len(redex_pairs) * size ** (n - 2) for n in range(2, max_len + 1))
    return TerminationReport(len(deg), steps, max(chain), tuple((x, y, d) for (x, y), d in bad.items()))


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

    pairs = _redex_pairs(alphabet(max_degree - 2))  # a redex pair weighs 2 or more
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
        for x, y, rule in pairs:
            weight = degree((x, y))
            for d in range(weight, m + 1):
                rest = d - weight
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

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

import gc
from collections import deque
from itertools import chain, groupby, islice, product
from typing import Iterator, NamedTuple

from .rewrite import INF, I, J, K, RuleCase, RuleInstance, forward_steps, instantiate, inverse_steps, match_rule
from .rewrite import _leftmost_moves, first_row, normalize, reduction_graph
from .words import EPS, ETA, Generator, Word, _block_start, _heads, _words_by_degree, all_words, alphabet, degree
from .words import render, word_key

DISJOINT = "DISJOINT"
EEE = "EEE"
HHH = "HHH"
EEH = "EEH"
EHH = "EHH"

DISJOINT_SAMPLES = 32  # the disjoint-redex parents that audit_local_confluence samples
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
    expected: Word | None  # the closed-form common reduct that the audit checks; None if an index is negative


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


def _rewrites_to_expected(pair: CriticalPair) -> bool:
    """Does the leftmost rewriting of each reduct, cut at the reduct's
    degree in steps, end at the closed form ``expected``?  Every step lowers
    the degree, so the cut ends no rewriting of ``RULES``; it ends one that
    a changed table keeps going.  A None closed form is never reached.
    """
    for reduct in (pair.left_reduct, pair.right_reduct):
        letters = list(reduct)
        deque(islice(_leftmost_moves(letters), degree(reduct)), maxlen=0)
        if tuple(letters) != pair.expected:  # never equal to None
            return False
    return True


def _least(commons: frozenset[Word]) -> Word | None:
    """The least common reduct by (degree, length, letters), if any."""
    return min(commons, key=lambda w: (degree(w), word_key(w)), default=None)


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

    A pair is joinable as soon as one common reduct is exhibited (Huet's
    critical-pair lemma), and every closed form in ``_CASES`` is canonical,
    so the one leftmost rewriting of each reduct (``_rewrites_to_expected``)
    already reaches it: that real rewriting sequence shows ``expected`` to
    be a common reduct, which is all the tallies read of a pair after its
    row's first and without an alternative closed form.  The full graphs of
    ``common_reducts`` are built only for the rest: each row's first pair,
    whose least common reduct is the sample bound, the pairs with the
    alternative form, and those whose closed form is None or not reached
    (a disjoint parent's that keeps a redex, or any under a changed table).
    So every tally is the one the full graphs give.
    """
    rows: dict[tuple[str, str | None], SubcaseRow] = {}  # tallied as each pair is resolved
    unjoinable = []
    for pair in chain(_overlap_pairs(max_index), _disjoint_pairs(max_index)):
        alt = alternative_bound(pair)
        key = (pair.family, pair.subcase)
        r = rows.get(key)
        witnessed = r is not None and alt is None and _rewrites_to_expected(pair)
        commons = frozenset({pair.expected}) if witnessed else common_reducts(pair)
        if not commons:
            unjoinable.append(pair)
        r = r or SubcaseRow(pair.family, pair.subcase, 0, 0, _least(commons), 0)
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

def equivalent_bounded(u: Word, v: Word, max_degree: int) -> bool:
    """Are u and v connected by rewrite steps taken in either direction,
    never passing through a word of degree beyond max_degree?

    Works on raw words, without canonical forms or any confluence assumption.

    Every bound >= max(degree u, degree v) gives the same verdict: by
    Newman's lemma rewriting is Church-Rosser, so equivalent words meet in
    their normal form, u ->* nf <-* v, by steps that each lower the degree:
    `adjmon eq` checks that rewriting, and this search is the audit's reference.
    """
    if degree(u) > max_degree or degree(v) > max_degree:
        raise ValueError("input degree exceeds the oracle bound")
    if u == v:
        return True
    seen = {u}
    frontier = [u]
    while frontier:
        nxt: list[Word] = []
        for w in frontier:
            for n in forward_steps(w) + inverse_steps(w, max_degree):
                if n in seen:
                    continue
                if n == v:
                    return True
                seen.add(n)
                nxt.append(n)
        frontier = nxt
    return False


def connected_components(max_degree: int) -> dict[Word, int]:
    """Component id of every word of degree <= max_degree under the
    undirected step relation, restricted to that universe: the labels of
    ``_component_labels``, keyed by the words they number.

    Runs with the cyclic garbage collector off, the one pause in adjmon:
    the words hold no reference cycle, so a collection during the build
    would only walk them again.  On return or raise the collector is on
    again only if it was on at entry, and then collects the two younger
    generations.  The pause is process-wide; the README gives its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        labels = _component_labels(max_degree)
        return {w: c for level, ids in zip(_words_by_degree(max_degree), labels) for w, c in zip(level, ids)}
    finally:
        if enabled:
            gc.enable()
            gc.collect(1)


def _component_labels(max_degree: int) -> list[list[int]]:
    """The component of every word of degree <= max_degree under the
    undirected step relation, restricted to that universe, by word number:
    at [d][i] for the word of degree d numbered i by ``_block_start``.
    No word is built, and neither confluence nor ``normalize`` is used.

    Built one degree level at a time, from two facts that hold for any
    rewrite system whose steps lower the degree.  Write U_m for the words
    of degree <= m, and wt(x) = index + 1 for a letter x.  Congruence: if r
    and r' are connected inside U_{m - wt(x)}, so are x r and x r' inside
    U_m.  Generation: a step of x r rewrites its first factor, or is x
    followed by a step of r inside U_{m - wt(x)}.  So at level m each word
    x r gets the node (x, component of r at level m - wt(x)), the empty
    word node 0; steps of the second kind stay inside a node, and joining
    the nodes along first-factor rewrites gives the components of U_m,
    numbered by their first node.

    The unions are taken on nodes, not words.  A path inside U_m is one
    inside U_{m+1}, so ``coarsen[m]`` maps each component at level m to one
    at level m + 1.  A row x y -> x' y' of weight w joins the nodes of x y r
    and x' y' r, which read r only through its component c at level m - w
    (the second through c lifted by ``coarsen``): one union per c.  For the
    vanishing row the node of r also reads r's first letter: one union per
    node of level m - w, each the node of some r.  Each union is the edge of
    some word and each word's edge is among them, so every level joins the
    edges that a union per word would, up to repeats: the same partition of
    the same nodes, numbered alike.  Only the output is per word: each
    word's label at its own degree, lifted to max_degree.  A right-hand side
    of None raises TypeError, through ``degree``.
    """

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def lift(level: int, top: int):
        """The component at level top of each component at level."""
        table = range(count[level])
        for step in coarsen[level:top]:
            table = list(map(step.__getitem__, table))
        return table

    def pair_nodes(m: int, x: Generator, y: Generator, comps) -> list[int]:
        """The node at level m of each word x y r, r given by its component at level m - wt(x) - wt(y)."""
        head, numbered, base = first[m][x], number[m - x.index - 1], first[m - x.index - 1][y]
        return [head + numbered[base + c] for c in comps]

    def node_lift(level: int, m: int) -> list[int]:
        """The node at level m of each node of level: node 0, then each head's."""
        out = [0]
        for g in first[level]:
            out += map(first[m][g].__add__, lift(level - g.index - 1, m - g.index - 1))
        return out

    pairs = _redex_pairs(alphabet(max_degree - 2))  # a redex pair weighs 2 or more
    first: list[dict[Generator, int]] = [{}]  # first[m][g]: the first of g's nodes at level m
    number = [[0]]  # number[m][node]: its component at level m, numbered by first node
    count = [1]  # count[m]: components at level m
    coarsen: list[list[int]] = []  # coarsen[m][c]: component c of level m, at level m + 1
    own = [[0]]  # own[d][i]: the component of word i of degree d at level d
    for m in range(1, max_degree + 1):
        at, size = {}, 1
        for g in _heads(m):
            at[g], size = size, size + count[m - g.index - 1]
        first.append(at)
        parent = list(range(size))
        for x, y, rule in pairs:
            low = m - degree((x, y))
            if low < 0:
                continue
            top = m - degree(rule.rhs)
            if rule.rhs:
                u, v = pair_nodes(m, x, y, range(count[low])), pair_nodes(m, *rule.rhs, lift(low, top))
            else:
                u, v = pair_nodes(m, x, y, number[low]), node_lift(low, m)
            for a, b in zip(u, v):
                parent[find(b)] = find(a)
        roots: dict[int, int] = {}
        number.append([roots.setdefault(find(n), len(roots)) for n in range(size)])
        count.append(len(roots))
        table = [0] * count[m - 1]
        for c, n in zip(number[m - 1], node_lift(m - 1, m)):
            table[c] = number[m][n]
        coarsen.append(table)
        own.append(list(chain.from_iterable(map(number[m][at[g] :].__getitem__, own[m - g.index - 1]) for g in at)))
    for d in range(max_degree):
        own[d] = list(map(lift(d, max_degree).__getitem__, own[d]))
    return own[: max_degree + 1]  # [] below degree 0


class CrossCheckReport(NamedTuple):
    population: int
    pairs_checked: int
    discrepancies: tuple[tuple[Word, Word, bool, bool], ...]  # (u, v, oracle, nf-equal) or (w, nf, search, same label)
    spot_checked: int

    @property
    def passed(self) -> bool:
        return not self.discrepancies


def cross_check_oracle(max_len: int = 3, max_index: int = 2, max_degree: int = 9) -> CrossCheckReport:
    """Against every pair of words of length <= max_len and indices <=
    max_index, the bidirectional closure within degree <= max_degree must
    agree with canonical-form equality; `adjmon audit` runs the defaults,
    3, 2 and 9, on 259 words.  The closure is read
    off ``_component_labels(max_degree)`` by word number, so no other word
    of its universe is built; a deterministic sample of words is searched
    against their canonical forms with ``equivalent_bounded``.

    The two sides are independent procedures: the closure rewrites words
    with the rules and never forms a canonical form, while ``normalize``
    reads canonical forms off the monotone-map model and applies no rule.

    One pass compares the partitions: they agree on every pair exactly when
    the map from component to canonical form is well defined and injective.
    A word that breaks either adds one discrepancy, paired with the first
    word of its component or of its canonical form.  Every stride-th word
    w, 25 at the defaults, is searched against its form nf: w must reach nf
    by steps either way through no word of degree over max_degree, and their
    labels must agree.  A form heavier than that is recorded with no search.
    """
    if max_len < 1 or max_index < 0:
        raise ValueError("the oracle population needs max_len >= 1 and max_index >= 0")
    if max_len * (max_index + 1) > max_degree:
        raise ValueError("max_degree too small for the word population")
    population = list(all_words(max_len, max_index))
    labels = _component_labels(max_degree)
    component = {w: labels[degree(w)][_block_start(w, degree(w))] for w in population}
    forms = {w: normalize(w) for w in population}
    discrepancies = []
    first_of_component: dict[int, tuple[Word, Word]] = {}  # component -> (first word, its canonical form)
    first_of_form: dict[Word, Word] = {}
    for w, nf in forms.items():
        u, form = first_of_component.setdefault(component[w], (w, nf))
        v = first_of_form.setdefault(nf, w)
        if form != nf:
            discrepancies.append((u, w, True, False))
        elif component[v] != component[w]:
            discrepancies.append((v, w, False, True))
    stride = max(1, len(population) // 25)
    sample = list(forms.items())[stride - 1 :: stride]
    for w, nf in sample:
        d = degree(nf)
        inside = d <= max_degree  # a form outside the universe gets no search and no label
        verdict = inside and equivalent_bounded(w, nf, max_degree)
        same = inside and component[w] == labels[d][_block_start(nf, d)]
        if not (verdict and same):
            discrepancies.append((w, nf, verdict, same))  # the search, then the components
    pairs = len(population) * (len(population) + 1) // 2
    return CrossCheckReport(len(population), pairs, tuple(discrepancies), len(sample))

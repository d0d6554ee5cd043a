"""The rewrite relation on words: redexes, steps, traces, normal forms.

Every redex is a two-letter factor.  The seven rule cases are the rows
of ``RULES``, keyed by the kinds of a factor: each a guard on its indices
i, j and a template right-hand side, letters (kind, I or J, c) of index
i + c or j + c, built by ``instantiate``.  ``confluence._CASES`` has the
same format.  A guard is a tuple of bounds (u, v, lo, hi), each meaning
lo <= index u - index v <= hi, where v may be the zero slot O, read as 0;
``first_row``, the one reader of guards, picks a table's first row whose
guard holds.  The guards of ``RULES`` are disjoint, so each factor
matches at most one rule.  Every step lowers ``degree`` by exactly 1
(EpsEta_Zero: by 2), which bounds all reduction sequences.  A word is
normal iff it is an eta block with non-decreasing indices followed by an
eps block with non-increasing indices.

``match_rule`` reads ``RULES``, and ``left_sides`` inverts it, solving
each row's right-hand side for (i, j).  Both are memoized per letter
pair and keep at most ``MATCH_RULE_CACHE_SIZE`` pairs, so words with many
distinct huge indices do not grow them without bound; every caller of
``match_rule`` gets one shared, immutable ``RuleInstance`` per pair.
``inverse_steps`` lists a word's one-step predecessors from ``left_sides``
and ``VANISHING``, the left-hand sides of the rows with an empty right-hand side.

``normalize`` performs no rewrite step: it reads the canonical form off
the monotone map of the naturals that a word denotes.  ``normalize_trace``,
``reduction_graph``, ``forward_steps`` and the audits rewrite, and they
are the reference ``normalize`` is tested against.  A trace records each
step as its position and rule, O(1) per step, and ``Trace.steps``
rebuilds the words from ``start`` when it is read.  ``_leftmost_moves``
is the one leftmost-reduction loop; ``adjmon trace`` streams its steps.
"""

from __future__ import annotations

import gc
from collections import deque
from enum import Enum
from functools import lru_cache, wraps
from typing import Iterator, NamedTuple

from .words import EPS, ETA, Generator, Word, degree, letter, letter_key


def collector_paused(fn):
    """Run fn with the cyclic garbage collector disabled, for the bulk
    builders of words.  A word holds ``Generator``s, a tuple subclass the
    collector never untracks, so while a large structure of words is
    built, each older-generation collection walks all the words built so
    far again, and frees nothing: the words form no reference cycle.  The
    collector is enabled again on return or raise only if it was enabled
    on entry, so nested calls and a caller's own ``gc.disable()`` hold.
    The call then collects the two younger generations itself, one pass
    over what it left allocated, which moves its words to the oldest
    generation: that pass is owed either way, and made here its cost
    stays with the call instead of falling on whatever allocates next.
    The pause is process-wide: cycles that a concurrent thread makes
    meanwhile wait for a collection until the call ends.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
                gc.collect(1)

    return paused


class RuleCase(str, Enum):
    EPS_EPS = "EpsEps"
    ETA_ETA = "EtaEta"
    EPS_ETA_PAST = "EpsEta_IGtJ"
    EPS_ETA_EQUAL = "EpsEta_IEqJPos"
    EPS_ETA_NEXT = "EpsEta_JEqIPlus1"
    EPS_ETA_FAR = "EpsEta_JGtIPlus1"
    EPS_ETA_ZERO = "EpsEta_Zero"

    def __str__(self) -> str:  # tag as it appears in traces and reports
        return self.value


class RuleInstance(NamedTuple):
    """A concrete two-letter left-hand side and its right-hand side."""

    case: RuleCase
    lhs: Word
    rhs: Word


# The audit battery and the queries touch fewer than 24 * 24 letter pairs.
MATCH_RULE_CACHE_SIZE = 4096

INF = float("inf")
I, J, K, O = 0, 1, 2, -1  # slots: the first, second or third of the given indices, and O, the zero slot

# The seven rules, for a factor x y with indices i and j: rows (case, guard,
# right-hand side) keyed by (x.kind, y.kind), the right-hand side a template
# over (i, j).  The guards are disjoint, so the order of a pattern's rows
# does not matter; they go by ascending j - i, the vanishing rule last.
RULES = {
    (EPS, EPS): ((RuleCase.EPS_EPS, ((J, I, 1, INF),), ((EPS, J, -1), (EPS, I, 0))),),  # e_i e_j -> e_{j-1} e_i (j > i)
    (ETA, ETA): ((RuleCase.ETA_ETA, ((J, I, -INF, -1),), ((ETA, J, 0), (ETA, I, -1))),),  # h_i h_j -> h_j h_{i-1} (i > j)
    (EPS, ETA): (
        (RuleCase.EPS_ETA_PAST, ((J, I, -INF, -1),), ((ETA, J, 0), (EPS, I, -1))),  # e_i h_j -> h_j e_{i-1} (i > j)
        (RuleCase.EPS_ETA_EQUAL, ((J, I, 0, 0), (I, O, 1, INF)), ((EPS, I, -1), (ETA, J, 0))),  # e_i h_i -> e_{i-1} h_i (i > 0)
        (RuleCase.EPS_ETA_NEXT, ((J, I, 1, 1),), ((EPS, I, 0), (ETA, J, -1))),  # e_i h_{i+1} -> e_i h_i
        (RuleCase.EPS_ETA_FAR, ((J, I, 2, INF),), ((ETA, J, -1), (EPS, I, 0))),  # e_i h_j -> h_{j-1} e_i (j > i+1)
        (RuleCase.EPS_ETA_ZERO, ((I, O, 0, 0), (J, O, 0, 0)), ()),  # e_0 h_0 -> 1
    ),
}


def first_row(rows: tuple, indices: tuple[int, ...]) -> tuple | None:
    """The first of the rows (name, guard, template) whose guard holds at the indices, if any."""
    at = (*indices, 0)  # slot O, the last, reads 0
    return next((row for row in rows if all(lo <= at[u] - at[v] <= hi for u, v, lo, hi in row[1])), None)


def instantiate(template: tuple, indices: tuple[int, ...]) -> Word | None:
    """The word of a template, its letter (kind, v, c) at index indices[v] + c; None if one is negative."""
    spelled = [(kind, indices[v] + c) for kind, v, c in template]
    return None if any(n < 0 for _, n in spelled) else tuple([letter(kind, n) for kind, n in spelled])


@lru_cache(maxsize=MATCH_RULE_CACHE_SIZE)
def match_rule(x: Generator, y: Generator) -> RuleInstance | None:
    """The row of ``RULES`` whose left-hand side is the factor ``x y``, if any.

    Memoized: equal letter pairs share one immutable ``RuleInstance``, and
    the least recently used pairs are dropped beyond ``MATCH_RULE_CACHE_SIZE``.
    """
    indices = (x.index, y.index)
    row = first_row(RULES.get((x.kind, y.kind), ()), indices)
    return None if row is None else RuleInstance(row[0], (x, y), instantiate(row[2], indices))


@lru_cache(maxsize=MATCH_RULE_CACHE_SIZE)
def left_sides(x: Generator, y: Generator) -> tuple[Word, ...]:
    """Every two-letter left-hand side that a row of ``RULES`` rewrites to
    ``x y``, by first index, then eta before eps.  A row with the kinds of
    ``x y`` reads i in one right-hand letter and j in the other, with a
    constant <= 0, so it is solved for naturals (i, j) by two subtractions,
    and kept if ``first_row`` picks it there.  Memoized like ``match_rule``.
    """
    out = []
    for (a, b), rows in RULES.items():
        for row in rows:
            if [kind for kind, _, _ in row[2]] == [x.kind, y.kind]:
                (_, i), (_, j) = sorted((v, g.index - c) for (_, v, c), g in zip(row[2], (x, y)))  # by slot: I, then J
                if first_row(rows, (i, j)) is row:
                    out.append((letter(a, i), letter(b, j)))
    return tuple(sorted(out, key=lambda lhs: (lhs[0].index, *map(letter_key, lhs))))


# The left-hand sides that vanish, (e0 h0,): each row's guard pins i, then j, by its low bound.
VANISHING = tuple(tuple(letter(kind, lo) for kind, (*_, lo, _) in zip(kinds, guard))
                  for kinds, rows in RULES.items() for _, guard, rhs in rows if not rhs)
_VANISHING_DEGREES = tuple((lhs, degree(lhs)) for lhs in VANISHING)


def inverse_steps(w: Word, max_degree: int) -> list[Word]:
    """One-step predecessors of w with degree <= max_degree: every factor
    replaced by a left-hand side that rewrites to it, which adds exactly 1
    to the degree (audit_termination checks the drops), then each of
    ``VANISHING`` inserted at every position.
    """
    d = degree(w)
    parents: list[Word] = []
    if d + 1 <= max_degree:
        for p in range(len(w) - 1):
            parents.extend(w[:p] + lhs + w[p + 2 :] for lhs in left_sides(w[p], w[p + 1]))
    for lhs, added in _VANISHING_DEGREES:
        if d + added <= max_degree:
            parents.extend(w[:p] + lhs + w[p:] for p in range(len(w) + 1))
    return parents


def redexes(w: Word) -> list[tuple[int, RuleInstance]]:
    """All redex positions of w with their rule instances, left to right."""
    return [(p, rule) for p, rule in enumerate(map(match_rule, w, w[1:])) if rule is not None]


def forward_steps(w: Word) -> list[Word]:
    """The reduct of every redex of w, left to right; repeats are kept."""
    return [w[:p] + rule.rhs + w[p + 2 :] for p, rule in redexes(w)]


class NotARedexError(ValueError):
    pass


def apply(w: Word, position: int) -> Word:
    """Rewrite the two-letter factor at ``position``; degree drops."""
    if not 0 <= position <= len(w) - 2:
        raise NotARedexError(f"position {position} out of range for a word of length {len(w)}")
    rule = match_rule(w[position], w[position + 1])
    if rule is None:
        raise NotARedexError(f"no rule matches at position {position}")
    return w[:position] + rule.rhs + w[position + 2 :]


class Step(NamedTuple):
    position: int
    rule: RuleInstance
    before: Word
    after: Word


class Trace(NamedTuple):
    """A reduction sequence from ``start`` to ``end``, stored as the
    (position, rule) of each step."""

    start: Word
    moves: tuple[tuple[int, RuleInstance], ...]
    end: Word

    @property
    def steps(self) -> tuple[Step, ...]:
        """The steps, their words rebuilt from ``start`` on every read; each
        step's before is the previous step's after: one tuple per step."""
        steps = []
        before = self.start
        for p, rule in self.moves:
            after = before[:p] + rule.rhs + before[p + 2 :]
            steps.append(Step(p, rule, before, after))
            before = after
        return tuple(steps)


def normalize(w: Word) -> Word:
    """The canonical form of w, read off the monotone map of the naturals
    that w denotes; no rewrite step is performed.

    ``h_k`` acts as the coface delta_k (x -> x if x < k, else x+1) and
    ``e_k`` as the codegeneracy sigma_k (x -> x if x <= k, else x-1); a
    word acts as the composite of its letters, the rightmost applied
    first.  The canonical form is that map's unique epi-mono
    factorization in the simplex category.  Reading w right to left, the
    map phi of the suffix read so far is kept as two sorted lists:

    * ``a``, the eta indices, non-decreasing: ``a[t] + t`` are the gaps
      of phi (the naturals outside its image), ascending;
    * ``merges``, the merge points x with phi(x) = phi(x+1), ascending.

    Prepending a letter replaces phi by delta_k o phi or sigma_k o phi.
    Let r be the number of gaps below k.

    * ``h_k``: the gaps become k and the old gaps, those >= k raised by
      one, so k - r is inserted at position r; no points merge.
    * ``e_k`` with k or k+1 a gap: sigma_k is injective on the image; k
      stays a gap only if both were, and the gaps above k+1 move down, so
      ``a[r]`` is deleted (if both are gaps, ``a[r] == a[r+1]``); no
      points merge.
    * ``e_k`` with k and k+1 in the image: the gaps above k+1 move down,
      so ``a[r:]`` drops by 1, and the last x with phi(x) = k becomes a
      merge point.  k is image value number y = k - r, so x = y + m,
      where m counts the merge points of image rank <= y
      (``merges[u] - u <= y``).

    With q merge points, the result is ``h_{a[0]} ... h_{a[p-1]}``
    followed by ``e_{merges[u] - u}`` for u = q-1 down to 0.

    r and m are found by integer bisection over list positions, after
    testing both ends: r = 0 when no gap is below k, r = ``len(a)`` when
    the greatest gap is, and m = 0 or ``len(merges)`` likewise.  A letter
    that lands at an end needs no search; at the back, no list shift.
    """
    a: list[int] = []
    merges: list[int] = []
    for kind, k in reversed(w):
        n = len(a)
        if not n or a[0] >= k:
            r = 0
        elif a[-1] + n - 1 < k:
            r = n
        else:
            # the first t with a[t] + t >= k lies in [1, n-1]
            r, hi = 1, n - 1
            while r < hi:
                t = (r + hi) >> 1
                if a[t] + t < k:
                    r = t + 1
                else:
                    hi = t
        if kind == ETA:
            a.insert(r, k - r)
        elif r < n and a[r] + r <= k + 1:
            del a[r]
        else:
            if r < n:
                a[r:] = [x - 1 for x in a[r:]]
            y = k - r
            q = len(merges)
            if not q or merges[0] > y:
                m = 0
            elif merges[-1] - q + 1 <= y:
                m = q
            else:
                # the first u with merges[u] - u > y lies in [1, q-1]
                m, hi = 1, q - 1
                while m < hi:
                    u = (m + hi) >> 1
                    if merges[u] - u <= y:
                        m = u + 1
                    else:
                        hi = u
            merges.insert(m, y + m)
    out = [letter(ETA, x) for x in a]
    out += [letter(EPS, merges[u] - u) for u in range(len(merges) - 1, -1, -1)]
    return tuple(out)


def _leftmost_moves(letters: list) -> Iterator[tuple[int, RuleInstance]]:
    """Rewrite ``letters`` in place at the leftmost redex until none remains,
    yielding the (position, rule) of each step once it is applied.

    After a rewrite at p the leftmost redex of the result is at p-1 or
    later, so the scan resumes there instead of from the front.
    """
    p = 0
    last = len(letters) - 1
    while p < last:
        rule = match_rule(letters[p], letters[p + 1])
        if rule is None:
            p += 1
            continue
        rhs = rule.rhs
        if rhs:  # every rule but EpsEta_Zero keeps two letters
            letters[p], letters[p + 1] = rhs
        else:
            del letters[p : p + 2]
            last -= 2
        yield p, rule
        if p:
            p -= 1


@collector_paused
def normalize_trace(w: Word) -> Trace:
    """Reduce the leftmost redex until none remains, recording the position
    and rule of every step; ``end`` is the word the rewriting leaves.
    Runs with the collector paused (``collector_paused``): the moves hold
    no reference cycle.
    """
    letters = list(w)
    moves = tuple(_leftmost_moves(letters))
    return Trace(w, moves, tuple(letters))


def is_normal(w: Word) -> bool:
    """True iff w contains no redex."""
    return not any(map(match_rule, w, w[1:]))


class ReductionGraph(NamedTuple):
    """All words reachable from ``root`` by single steps (nodes deduplicated)."""

    root: Word
    successors: dict[Word, tuple[Word, ...]]

    @property
    def nodes(self) -> set[Word]:
        return set(self.successors)

    @property
    def edges(self) -> set[tuple[Word, Word]]:
        return {(u, v) for u, vs in self.successors.items() for v in vs}

    @property
    def sinks(self) -> set[Word]:
        return {u for u, vs in self.successors.items() if not vs}

    def longest_chain(self) -> int:
        """Length of the longest reduction sequence from the root."""
        # every step lowers the degree, so each reduct's length is known when needed
        lengths: dict[Word, int] = {}
        for u in sorted(self.successors, key=degree):
            vs = self.successors[u]
            lengths[u] = 1 + max(lengths[v] for v in vs) if vs else 0
        return lengths[self.root]


def reduction_graph(w: Word) -> ReductionGraph:
    """Exhaustive expansion of every reduction from w (finite: degree drops)."""
    successors: dict[Word, tuple[Word, ...]] = {}
    queue = deque([w])
    while queue:
        u = queue.popleft()
        if u in successors:
            continue
        nexts = tuple(dict.fromkeys(forward_steps(u)))
        successors[u] = nexts
        queue.extend(v for v in nexts if v not in successors)
    return ReductionGraph(w, successors)


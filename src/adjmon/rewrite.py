"""The rewrite relation on words: redexes, steps, traces, normal forms.

Every redex is a two-letter factor.  The seven rule cases are:

    EpsEps            eps_i eps_j  ->  eps_{j-1} eps_i     (j > i)
    EtaEta            eta_j eta_i  ->  eta_i eta_{j-1}     (j > i)
    EpsEta_JGtIPlus1  eps_i eta_j  ->  eta_{j-1} eps_i     (j > i+1)
    EpsEta_IGtJ       eps_i eta_j  ->  eta_j eps_{i-1}     (i > j)
    EpsEta_IEqJPos    eps_i eta_i  ->  eps_{i-1} eta_i     (i > 0)
    EpsEta_JEqIPlus1  eps_i eta_{i+1}  ->  eps_i eta_i
    EpsEta_Zero       eps_0 eta_0  ->  1

The five eps-eta conditions partition all index pairs, so each factor
matches at most one rule.  Every step lowers ``degree`` by exactly 1
(EpsEta_Zero: by 2), which bounds all reduction sequences.  A word is
normal iff it is an eta block with non-decreasing indices followed by an
eps block with non-increasing indices.

``match_rule`` is the rule table.  It is memoized per letter pair: every
caller gets one shared, immutable ``RuleInstance`` per pair, and the
cache keeps at most ``MATCH_RULE_CACHE_SIZE`` pairs, so words with many
distinct huge indices do not grow it without bound.

``normalize`` performs no rewrite step: it reads the canonical form off
the monotone map of the naturals that a word denotes.  ``normalize_trace``,
``reduction_graph``, ``forward_steps`` and the audits rewrite, and they
are the reference ``normalize`` is tested against.  A trace records each
step as its position and rule, O(1) per step, and ``Trace.steps``
rebuilds the words from ``start`` when it is read.  ``_leftmost_moves``
is the one leftmost-reduction loop; ``adjmon trace`` streams its steps.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from functools import lru_cache
from typing import Iterator, NamedTuple

from .words import EPS, ETA, Generator, Word, degree, eps, eta, letter


class RuleCase(str, Enum):
    EPS_EPS = "EpsEps"
    ETA_ETA = "EtaEta"
    EPS_ETA_FAR = "EpsEta_JGtIPlus1"
    EPS_ETA_PAST = "EpsEta_IGtJ"
    EPS_ETA_EQUAL = "EpsEta_IEqJPos"
    EPS_ETA_NEXT = "EpsEta_JEqIPlus1"
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


@lru_cache(maxsize=MATCH_RULE_CACHE_SIZE)
def match_rule(x: Generator, y: Generator) -> RuleInstance | None:
    """The unique rule whose left-hand side is the factor ``x y``, if any.

    Memoized: equal letter pairs get the same ``RuleInstance``, which is
    immutable, as are its letters, so callers share it.  The least recently
    used pairs are dropped beyond ``MATCH_RULE_CACHE_SIZE``.
    """
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
    return None  # an eta followed by an eps is never a redex


def redexes(w: Word) -> list[tuple[int, RuleInstance]]:
    """All redex positions of w with their rule instances, left to right."""
    out = []
    for p in range(len(w) - 1):
        rule = match_rule(w[p], w[p + 1])
        if rule is not None:
            out.append((p, rule))
    return out


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


def normalize_trace(w: Word) -> Trace:
    """Reduce the leftmost redex until none remains, recording the position
    and rule of every step; ``end`` is the word the rewriting leaves.
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


"""The initial adjunction-in-monoids as an algebra over canonical forms.

Elements are the states of ``normalize``'s fold, one per canonical form, so
equality of elements is equality of canonical forms (the confluence module
independently audits why that is sound).  The structure carried on top of the
monoid: the distinguished unit/counit generators, the index-shift endomorphism
f, the defining identity suite, and the submonoid of counit-shift images.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import chain, product, repeat
from operator import le, lt, sub
from typing import NamedTuple

from .rewrite import _form, _read
from .rewrite import normalize  # noqa: F401  (bench/test_bench.py reads monoid.normalize; nothing here calls it)
from .words import EMPTY, EPS, ETA, NotCanonicalError, Word, degree, letter, normal_words, render
from .words import normal_words_of_degree  # noqa: F401  (bench/spans.py wraps monoid.normal_words_of_degree)


class Element(namedtuple("Element", "etas merges")):
    """A monoid element: the state of ``normalize``'s fold, from which its writer gives
    the canonical form ``nf``, h_{etas[0]} ..., then e_{merges[u] - u} for u = q-1 down
    to 0.  ``Element(...)`` and ``._replace(...)`` admit only a state, ``etas``
    non-decreasing naturals and ``merges`` strictly increasing ones, each an int, not a
    bool: exactly the pairs whose word is canonical (merges[u+1] - (u+1) >= merges[u] - u
    iff merges[u+1] > merges[u]).  They refuse any other with ``NotCanonicalError``."""

    __slots__ = ()

    def __new__(cls, etas: tuple[int, ...], merges: tuple[int, ...]):
        etas, merges = tuple(etas), tuple(merges)
        if not (all(type(x) is int for x in etas + merges) and all(map(le, (0, *etas), etas))
                and all(map(lt, (-1, *merges), merges))):
            raise NotCanonicalError(f"not the state of a canonical form: etas={etas} merges={merges}")
        return super().__new__(cls, etas, merges)

    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` builds through ``_make``
    nf = property(lambda self: _form(*self))
    __mul__ = lambda self, other: mul(self, other) if isinstance(other, Element) else NotImplemented
    __add__ = __rmul__ = lambda self, other: NotImplemented  # neither tuple concatenation nor repetition: use ``*``
    __str__ = lambda self: render(self.nf)
    # an Element equals only an Element: NotImplemented would fall back to tuple ==, as for __radd__ below
    __eq__ = lambda self, other: isinstance(other, Element) and tuple.__eq__(self, other)
    __ne__ = lambda self, other: not self == other
    __hash__ = tuple.__hash__  # a class that defines __eq__ loses its inherited hash

    def __radd__(self, other):  # Python tries a subclass's reflected method first, then tuple + tuple: raise, not defer
        raise TypeError(f"unsupported operand type(s) for +: {type(other).__name__!r} and 'Element'")


def _fold(etas: list[int], merges: list[int], letters) -> Element:  # a state by construction: not checked again
    _read(etas, merges, letters)
    return tuple.__new__(Element, (tuple(etas), tuple(merges)))


def _letters(a: Element):  # a's form right to left, as the fold reads it: (kind, index) pairs off a's state
    return chain(zip(repeat(EPS), map(sub, a.merges, range(len(a.merges)))), zip(repeat(ETA), reversed(a.etas)))


def element(w: Word) -> Element:
    """The element denoted by an arbitrary word: the state its fold leaves."""
    return _fold([], [], reversed(w))


def identity() -> Element:
    return Element((), ())


def eta() -> Element:
    return Element((0,), ())


def eps() -> Element:
    return Element((), (0,))


def mul(a: Element, b: Element) -> Element:
    """a*b: a word of a*b folds to b's state after b's letters, so only a's are folded, onto b's lists."""
    return _fold(list(b.etas), list(b.merges), _letters(a))


def shift_word(w: Word) -> Word:
    """Raise every letter index by 1 (the endomorphism f on words)."""
    return tuple([letter(kind, index + 1) for kind, index in w])


def apply_f(a: Element) -> Element:
    """f on elements: 1 added to every entry of both lists, which is ``shift_word``
    on the form, h_{etas[t]} to h_{etas[t] + 1} and e_{merges[u] - u} to
    e_{(merges[u] + 1) - u}; the lists stay a state: the form of f(a) is canonical."""
    return tuple.__new__(Element, (tuple([x + 1 for x in a.etas]), tuple([x + 1 for x in a.merges])))


# --- identity suite ---------------------------------------------------------

class Counterexample(NamedTuple):
    at: str | None  # rendered instantiation, e.g. "m=h0" or "m1=1 m2=h0"; None for a ground identity
    lhs_nf: Word
    rhs_nf: Word


class IdentityResult(NamedTuple):
    identity: str
    instances: int
    counterexample: Counterexample | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


class IdentityReport(NamedTuple):
    results: tuple[IdentityResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


_E0 = (letter(EPS, 0),)
_H0 = (letter(ETA, 0),)
_EPS = eps()


# An identity suite is a tuple of rows (name, arity, sides, failure label).
# ``sides`` maps f and an instantiation, ``arity`` canonical words, to the
# two words that must normalize alike; f is ``shift_word``, memoized per
# suite run, and the rows apply it to the pieces of a product, so each
# population word is shifted once.  The label, formatted with the rendered
# words, names a failing instantiation; a ground row, of arity 0, has none.
_AXIOMS = (
    ("eps*eta=1", 0, lambda f: (_E0 + _H0, EMPTY), None),
    ("eps*f(eta)=1", 0, lambda f: (_E0 + f(_H0), EMPTY), None),
    ("eps*f(eps)=eps^2", 0, lambda f: (_E0 + f(_E0), _E0 + _E0), None),
    ("eps*f^2(m)=f(m)*eps", 1, lambda f, m: (_E0 + f(f(m)), f(m) + _E0), "m={}"),
    ("f(m)*eta=eta*m", 1, lambda f, m: (f(m) + _H0, _H0 + m), "m={}"),
    ("eps*f(eps*f(m))=eps*f(m)*eps", 1, lambda f, m: (_E0 + f(_E0) + f(f(m)), _E0 + f(m) + _E0), "m={}"),
    ("m=eps*f(m)*eta", 1, lambda f, m: (m, _E0 + f(m) + _H0), "m={}"),
)

# Closure of the counit-shift submonoid under products, and the recovery
# identity n = eps*f(n*eta) at each member n = eps*f(m).
_N_CLOSURE = (
    (
        "eps*f(m1)*eps*f(m2)=eps*f(eps*f(m1)*m2)",
        2,
        lambda f, m1, m2: (_E0 + f(m1) + _E0 + f(m2), _E0 + f(_E0) + f(f(m1)) + f(m2)),
        "m1={} m2={}",
    ),
    ("n=eps*f(n*eta)", 1, lambda f, m: (_E0 + f(m), _E0 + f(_E0) + f(f(m)) + f(_H0)), "n=eps*f({})"),
)


def _state_table():
    """The suites' fold over interned states: ``state(w)`` is the number
    of the state (etas, merges) that w leaves, its place in ``states``, 0
    the empty word's; two words leave one state exactly when their
    canonical forms are equal.  ``moves[s]`` maps a letter to the state it
    leads to from s, so a suffix read once is looked up letter by letter by
    every later word that ends with it; a run of letters new at their
    states is read by ``_read`` into one pair of lists, copied from the
    state.  One table per suite run: nothing bounds it.
    """
    states: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    ids = {((), ()): 0}
    moves: list[dict] = [{}]

    def state(w: Word) -> int:
        s, a = 0, None  # a and merges: the lists of state s, while a run of new letters is read
        for x in reversed(w):
            t = moves[s].get(x)
            if t is None:
                if a is None:
                    a, merges = map(list, states[s])
                _read(a, merges, (x,))
                pair = (tuple(a), tuple(merges))
                t = moves[s][x] = ids.setdefault(pair, len(states))
                if t == len(states):
                    states.append(pair)
                    moves.append({})
            else:
                a = None
            s = t
        return s

    return state, states, moves


def _check_suite(suite, max_len: int, max_index: int) -> IdentityReport:
    """Compare both sides of each row of the suite at every instantiation
    by canonical words within bounds; a row's counterexample is its first
    failure in population order.

    The sides go through one ``_state_table`` per call and are compared by
    their state numbers, one per canonical form; ``_form`` writes only a
    counterexample's two forms, from the states the table holds.  The sides
    are products of a few pieces over one population, so their suffixes
    recur, and most letters are a lookup of a transition read before (93 %
    of them in ``check_N_closure(3, 2)``, 77 % in ``check_axioms(4, 3)``).
    The table dies with the call.
    """
    if max_len < 1 or max_index < 1:
        raise ValueError("bounds must be >= 1")
    pop = normal_words(max_len, max_index)
    f = lru_cache(maxsize=None)(shift_word)
    state, states, _ = _state_table()
    results = []
    for name, arity, sides, label in suite:
        count, bad = 0, None
        for ws in product(pop, repeat=arity):
            count += 1
            lhs, rhs = map(state, sides(f, *ws))
            if lhs != rhs:
                bad = Counterexample(label and label.format(*map(render, ws)), _form(*states[lhs]), _form(*states[rhs]))
                break
        results.append(IdentityResult(name, count, bad))
    return IdentityReport(tuple(results))


def check_axioms(max_len: int = 4, max_index: int = 3) -> IdentityReport:
    """Verify the defining identity suite over all elements within bounds,
    comparing the state numbers of both sides of each instance; only a
    counterexample's two forms are written.
    """
    return _check_suite(_AXIOMS, max_len, max_index)


def check_N_closure(max_len: int = 3, max_index: int = 2) -> IdentityReport:
    """Closure of the counit-shift submonoid under products, plus the
    recovery identity n = eps*f(n*eta) for each member n = eps*f(m).
    """
    return _check_suite(_N_CLOSURE, max_len, max_index)


# --- submonoid membership ---------------------------------------------------

class MembershipResult(NamedTuple):
    member: bool
    witness: Element | None


def counit_shift(m: Element) -> Element:
    """The member eps * f(m) of the submonoid: the construction that ``in_N``'s criterion inverts."""
    return mul(_EPS, apply_f(m))


def in_N(a: Element, search_bound: int) -> MembershipResult:
    """Decide whether a = eps*f(m') for some m' of degree <= search_bound.

    The answer is exact, by the criterion: a lies in N exactly when
    ``a.etas`` is empty or ``a.etas[0] > 0``, that is, when phi_a(0) = 0,
    and then its one witness is a*eta.  In the model of ``normalize`` (a
    word acts as the composite of its letters, the rightmost applied first,
    and two words with one map have one canonical form), f(m) acts as the
    map 0 -> 0, x+1 -> m(x) + 1 and e0 sends 0 to 0 and x+1 to x, so
    eps*f(m) sends 0 to 0 and x+1 to m(x): every member fixes 0.
    Conversely, if phi_a(0) = 0, then a*eta, which sends x to phi_a(x+1),
    is a witness: eps*f(a*eta) sends 0 to 0 = phi_a(0) and x+1 to
    phi_a(x+1).  It is the only one: eps*f(m') = a gives a*eta =
    eps*f(m')*eta = eps*eta*m' = m' (by f(m)*eta = eta*m and eps*eta = 1).
    phi_a(0) is the least natural outside the gaps ``a.etas[t] + t``, so it
    is 0 exactly when 0 is not a gap, which the criterion reads.

    A non-member returns with no fold; a member's letters are folded once,
    onto h0's state, to its witness, accepted when its degree, read off
    its state, is within the bound.  That degree is at most
    degree(a.nf) + 1, so that bound decides membership outright."""
    if search_bound < 0:
        raise ValueError("search bound must be >= 0")
    if a.etas and a.etas[0] == 0:  # 0 is a gap: phi_a(0) > 0
        return MembershipResult(False, None)
    c = _fold([0], [], _letters(a))
    q = len(c.merges)  # the degree: index + 1 over h_{etas[t]} and over e_{merges[u] - u}
    if sum(c.etas) + len(c.etas) + sum(c.merges) - q * (q - 1) // 2 + q <= search_bound:
        return MembershipResult(True, c)
    return MembershipResult(False, None)


# --- isomorphism criteria and the verdict -----------------------------------

class ConditionResult(NamedTuple):
    condition: str
    holds: bool
    witness_at: str | None  # instantiation that decided a quantified condition
    lhs_nf: Word
    rhs_nf: Word


class IsoCriteriaReport(NamedTuple):
    """The decidable conditions equivalent to the adjunction being an
    isomorphism, each decided by canonical-form comparison, plus the
    derived ones (f surjective, f an isomorphism, N = M), decided by two
    witnesses.  ``not_in_f_image`` is h0 when it lies outside f(M): f raises
    every index of a canonical form by 1, so no element of f(M) has a
    canonical form with an index-0 letter, and nf(h0) has one; f is then
    neither surjective nor an isomorphism.  ``not_in_N`` is h0 e0 when
    ``in_N`` decides it outside N, so N != M.  Either witness decides the
    derived conditions false; they hold only when neither is outside and
    the four conditions hold, which imply them by the equivalence.
    """

    conditions: tuple[ConditionResult, ...]
    derived_holds: bool
    not_in_f_image: Word | None
    not_in_N: Word | None


def iso_criteria_report() -> IsoCriteriaReport:
    """Decide the four conditions by comparing elements, and the derived
    ones by the witnesses h0 and h0 e0 (see ``IsoCriteriaReport``).

    The conditions are rows (condition, lhs, rhs, witness); the witness
    names the instantiation of a quantified condition that fails.
    "f(m)=eta*m*eps for all m" is decided at m = 1 alone: there it reads
    eta*eps = 1 (as f(1) = 1), and eta*eps = 1 implies the condition for
    every m, since eta*m*eps = f(m)*eta*eps by f(m)*eta = eta*m.
    """
    h, e, one = eta(), eps(), identity()
    he = h * e
    rows = (
        ("f(eta)=eta", apply_f(h), h, None),
        ("f(eps)=eps", apply_f(e), e, None),
        ("eta*eps=1", he, one, None),
        ("f(m)=eta*m*eps", apply_f(one), h * one * e, "1"),
    )
    conditions = [ConditionResult(name, a == b, None if a == b else at, a.nf, b.nf) for name, a, b, at in rows]
    not_in_f_image = h.nf if any(g.index == 0 for g in h.nf) else None
    not_in_N = None if in_N(he, degree(he.nf) + 1).member else he.nf
    holds = all(c.holds for c in conditions) and not_in_f_image is None and not_in_N is None
    return IsoCriteriaReport(tuple(conditions), holds, not_in_f_image, not_in_N)


NOT_ISO = "NOT_ISO"
ISO = "ISO"


class OpenQuestionVerdict(NamedTuple):
    verdict: str
    eta_eps_nf: Word  # canonical form of eta*eps
    eps_eta_nf: Word  # canonical form of eps*eta
    eta_eps_idempotent: bool
    criteria: IsoCriteriaReport


def answer_open_question() -> OpenQuestionVerdict:
    """Decide whether eta*eps = 1, i.e. whether every adjunction between
    monoids is an isomorphism.  The verdict rests on canonical forms; the
    confluence audit is the independent certificate that canonical forms
    separate elements.
    """
    he, eh = mul(eta(), eps()), mul(eps(), eta())
    verdict = ISO if he == identity() else NOT_ISO
    return OpenQuestionVerdict(verdict, he.nf, eh.nf, he * he == he, iso_criteria_report())

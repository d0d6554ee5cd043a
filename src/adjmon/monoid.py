"""The initial adjunction-in-monoids as an algebra over canonical forms.

Elements are words in canonical form; equality of elements is equality of
canonical forms (the confluence module independently audits why that is
sound).  The structure carried on top of the monoid: the distinguished
unit/counit generators, the index-shift endomorphism f, the defining
identity suite, and the submonoid of counit-shift images.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .rewrite import is_normal, normalize
from .words import EMPTY, NotCanonicalError, Word, concat, degree, letter, normal_words, render
from .words import normal_words_of_degree  # noqa: F401  (bench/spans.py wraps monoid.normal_words_of_degree)
from .words import eps as eps_letter
from .words import eta as eta_letter


class _ElementRecord(NamedTuple):
    nf: Word

    def __mul__(self, other: "Element") -> "Element":
        return mul(self, other)

    def __add__(self, other):  # neither tuple concatenation nor repetition: the product is ``*``
        return NotImplemented

    __rmul__ = __add__

    def __str__(self) -> str:
        return render(self.nf)


class Element(_ElementRecord):
    """A monoid element, stored as its canonical-form word."""

    __slots__ = ()

    def __new__(cls, nf: Word):
        if not is_normal(nf):
            raise NotCanonicalError(f"not a canonical form: {render(nf)}")
        return super().__new__(cls, nf)

    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` builds through ``_make``


def element(w: Word) -> Element:
    """The element denoted by an arbitrary word."""
    return Element(normalize(w))


def identity() -> Element:
    return Element(EMPTY)


def eta() -> Element:
    return Element((eta_letter(0),))


def eps() -> Element:
    return Element((eps_letter(0),))


def mul(a: Element, b: Element) -> Element:
    return Element(normalize(concat(a.nf, b.nf)))


def shift_word(w: Word, by: int = 1) -> Word:
    """Raise every letter index by ``by`` (the endomorphism f on words)."""
    return tuple([letter(kind, index + by) for kind, index in w])


def apply_f_word(w: Word) -> Word:
    return shift_word(w, 1)


def apply_f(a: Element) -> Element:
    """f on elements; an index shift maps canonical forms to canonical forms."""
    return Element(apply_f_word(a.nf))


def elements(max_len: int, max_index: int) -> list[Element]:
    """All elements with canonical form of bounded length and indices,
    ordered by (length, letterwise).
    """
    return [Element(w) for w in normal_words(max_len, max_index)]


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


_E0 = (eps_letter(0),)
_H0 = (eta_letter(0),)


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


def _check_suite(suite, max_len: int, max_index: int) -> IdentityReport:
    """Normalize both sides of each row of the suite at every instantiation
    by canonical words within bounds; a row's counterexample is its first
    failure in population order.
    """
    if max_len < 1 or max_index < 1:
        raise ValueError("bounds must be >= 1")
    pop = normal_words(max_len, max_index)
    f = lru_cache(maxsize=None)(shift_word)
    results = []
    for name, arity, sides, label in suite:
        count, bad = 0, None
        for ws in product(pop, repeat=arity):
            count += 1
            lhs, rhs = map(normalize, sides(f, *ws))
            if lhs != rhs:
                bad = Counterexample(label and label.format(*map(render, ws)), lhs, rhs)
                break
        results.append(IdentityResult(name, count, bad))
    return IdentityReport(tuple(results))


def check_axioms(max_len: int, max_index: int) -> IdentityReport:
    """Verify the defining identity suite over all elements within bounds,
    normalizing both sides of each instance.
    """
    return _check_suite(_AXIOMS, max_len, max_index)


def check_N_closure(max_len: int, max_index: int) -> IdentityReport:
    """Closure of the counit-shift submonoid under products, plus the
    recovery identity n = eps*f(n*eta) for each member n = eps*f(m).
    """
    return _check_suite(_N_CLOSURE, max_len, max_index)


# --- submonoid membership ---------------------------------------------------

class MembershipResult(NamedTuple):
    member: bool
    witness: Element | None


def counit_shift(m: Element) -> Element:
    """The member eps * f(m) of the submonoid."""
    return element(_E0 + shift_word(m.nf))


def in_N(a: Element, search_bound: int) -> MembershipResult:
    """Decide whether a = eps*f(m') for some m' of degree <= search_bound.

    The answer is exact.  If eps*f(m') = a, then a*eta = eps*f(m')*eta =
    eps*eta*m' = m' (by f(m)*eta = eta*m and eps*eta = 1), so
    normalize(a*eta) is the only candidate witness.  It is accepted after
    direct verification and when its degree is within the bound; otherwise
    no witness of degree <= search_bound exists.  The candidate's degree is
    at most degree(a.nf) + 1, so that bound decides membership outright.
    """
    if search_bound < 0:
        raise ValueError("search bound must be >= 0")
    candidate = normalize(a.nf + _H0)
    if degree(candidate) <= search_bound and normalize(_E0 + shift_word(candidate)) == a.nf:
        return MembershipResult(True, Element(candidate))
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
    remaining equivalent conditions (surjectivity of f, f an isomorphism,
    the submonoid exhausting the monoid) propagated through the proved
    equivalence of the whole family.
    """

    conditions: tuple[ConditionResult, ...]
    derived_holds: bool


# The four conditions as rows (condition, lhs, rhs, witness), each decided
# by comparing the normal forms of its two sides; the witness names the
# instantiation of a quantified condition that fails.
_ISO_CONDITIONS = (
    ("f(eta)=eta", apply_f_word(_H0), _H0, None),
    ("f(eps)=eps", apply_f_word(_E0), _E0, None),
    ("eta*eps=1", _H0 + _E0, EMPTY, None),
    ("f(m)=eta*m*eps", apply_f_word(EMPTY), _H0 + EMPTY + _E0, "1"),  # at m = 1: see iso_criteria_report
)


def iso_criteria_report() -> IsoCriteriaReport:
    """Decide the four conditions by canonical-form comparison.

    "f(m)=eta*m*eps for all m" is decided at m = 1 alone: there it reads
    eta*eps = 1 (as f(1) = 1), and eta*eps = 1 implies the condition for
    every m, since eta*m*eps = f(m)*eta*eps by f(m)*eta = eta*m.
    """
    conditions = []
    for name, lhs, rhs, at in _ISO_CONDITIONS:
        a, b = normalize(lhs), normalize(rhs)
        conditions.append(ConditionResult(name, a == b, None if a == b else at, a, b))
    return IsoCriteriaReport(tuple(conditions), all(c.holds for c in conditions))


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
    he = normalize(_H0 + _E0)
    eh = normalize(_E0 + _H0)
    verdict = ISO if he == EMPTY else NOT_ISO
    idem = normalize(he + he) == he
    return OpenQuestionVerdict(verdict, he, eh, idem, iso_criteria_report())

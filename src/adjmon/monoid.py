"""The initial adjunction-in-monoids as an algebra over canonical forms.

Elements are words in canonical form; equality of elements is equality of
canonical forms (the confluence module independently audits why that is
sound).  The structure carried on top of the monoid: the distinguished
unit/counit generators, the index-shift endomorphism f, the defining
identity suite, and the submonoid of counit-shift images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .rewrite import is_normal, normalize
from .words import EMPTY, Generator, Word, concat, degree, normal_words, render
from .words import normal_words_of_degree  # noqa: F401  (bench/spans.py wraps monoid.normal_words_of_degree)
from .words import eps as eps_letter
from .words import eta as eta_letter


class NotCanonicalError(ValueError):
    """An :class:`Element` was given a word that is not a canonical form."""


@dataclass(frozen=True)
class Element:
    """A monoid element, stored as its canonical-form word."""

    nf: Word

    def __post_init__(self):
        if not is_normal(self.nf):
            raise NotCanonicalError(f"not a canonical form: {render(self.nf)}")

    def __mul__(self, other: "Element") -> "Element":
        return mul(self, other)

    def __str__(self) -> str:
        return render(self.nf)


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
    return tuple(Generator(g.kind, g.index + by) for g in w)


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

@dataclass(frozen=True)
class Counterexample:
    at: str  # rendered instantiation, e.g. "m=h0" or "m1=1 m2=h0"
    lhs_nf: Word
    rhs_nf: Word


@dataclass(frozen=True)
class IdentityResult:
    identity: str
    instances: int
    counterexample: Counterexample | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def line(self) -> str:
        if self.passed:
            return f"{self.identity}  PASS ({self.instances} instances)"
        c = self.counterexample
        return f"{self.identity}  FAIL at m={c.at}: lhs={render(c.lhs_nf)} rhs={render(c.rhs_nf)}"


@dataclass(frozen=True)
class IdentityReport:
    results: tuple[IdentityResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


_E0 = (eps_letter(0),)
_H0 = (eta_letter(0),)


def _ground_identities() -> list[tuple[str, Word, Word]]:
    return [
        ("eps*eta=1", _E0 + _H0, EMPTY),
        ("eps*f(eta)=1", _E0 + (eta_letter(1),), EMPTY),
        ("eps*f(eps)=eps^2", _E0 + (eps_letter(1),), _E0 + _E0),
    ]


def _elementwise_identities() -> list[tuple[str, Callable[[Word], tuple[Word, Word]]]]:
    return [
        ("eps*f^2(m)=f(m)*eps", lambda w: (_E0 + shift_word(w, 2), shift_word(w) + _E0)),
        ("f(m)*eta=eta*m", lambda w: (shift_word(w) + _H0, _H0 + w)),
        (
            "eps*f(eps*f(m))=eps*f(m)*eps",
            lambda w: (_E0 + shift_word(_E0 + shift_word(w)), _E0 + shift_word(w) + _E0),
        ),
        ("m=eps*f(m)*eta", lambda w: (w, _E0 + shift_word(w) + _H0)),
    ]


def _first_counterexample(pop, sides, label) -> tuple[int, Counterexample | None]:
    """Check lhs/rhs agreement over a population; first failure in population order."""
    count = 0
    for w in pop:
        count += 1
        lhs, rhs = sides(w)
        a, b = normalize(lhs), normalize(rhs)
        if a != b:
            return count, Counterexample(label(w), a, b)
    return count, None


def check_axioms(max_len: int, max_index: int) -> IdentityReport:
    """Verify the defining identity suite over all elements within bounds,
    normalizing both sides of each instance.
    """
    if max_len < 1 or max_index < 1:
        raise ValueError("bounds must be >= 1")
    pop = normal_words(max_len, max_index)
    results = []
    for name, lhs, rhs in _ground_identities():
        a, b = normalize(lhs), normalize(rhs)
        bad = None if a == b else Counterexample("1", a, b)
        results.append(IdentityResult(name, 1, bad))
    for name, sides in _elementwise_identities():
        n, bad = _first_counterexample(pop, sides, lambda w: render(w))
        results.append(IdentityResult(name, n, bad))
    return IdentityReport(tuple(results))


def check_N_closure(max_len: int, max_index: int) -> IdentityReport:
    """Closure of the counit-shift submonoid under products, plus the
    recovery identity n = eps*f(n*eta) for each member n = eps*f(m).
    """
    if max_len < 1 or max_index < 1:
        raise ValueError("bounds must be >= 1")
    pop = normal_words(max_len, max_index)

    def closure_sides(pair):
        w1, w2 = pair
        lhs = _E0 + shift_word(w1) + _E0 + shift_word(w2)
        rhs = _E0 + shift_word(_E0 + shift_word(w1) + w2)
        return lhs, rhs

    pairs = [(w1, w2) for w1 in pop for w2 in pop]
    n, bad = _first_counterexample(
        pairs,
        closure_sides,
        lambda p: f"({render(p[0])}, {render(p[1])})",
    )
    closure = IdentityResult("eps*f(m1)*eps*f(m2)=eps*f(eps*f(m1)*m2)", n, bad)

    def recovery_sides(w):
        member = normalize(_E0 + shift_word(w))
        return member, _E0 + shift_word(member + _H0)

    n, bad = _first_counterexample(pop, recovery_sides, lambda w: f"n=eps*f({render(w)})")
    recovery = IdentityResult("n=eps*f(n*eta)", n, bad)
    return IdentityReport((closure, recovery))


# --- submonoid membership ---------------------------------------------------

@dataclass(frozen=True)
class MembershipResult:
    member: bool
    witness: Element | None
    search_bound: int


def counit_shift(m: Element) -> Element:
    """The member eps * f(m) of the submonoid."""
    return element(_E0 + shift_word(m.nf))


def in_N(a: Element, search_bound: int) -> MembershipResult:
    """Decide whether a = eps*f(m') for some m' of degree <= search_bound.

    The answer is exact.  If eps*f(m') = a, then a*eta = eps*f(m')*eta =
    eps*eta*m' = m' (by f(m)*eta = eta*m and eps*eta = 1), so
    normalize(a*eta) is the only candidate witness.  It is accepted after
    direct verification and when its degree is within the bound; otherwise
    no witness of degree <= search_bound exists.
    """
    if search_bound < 0:
        raise ValueError("search bound must be >= 0")
    candidate = normalize(a.nf + _H0)
    if degree(candidate) <= search_bound and normalize(_E0 + shift_word(candidate)) == a.nf:
        return MembershipResult(True, Element(candidate), search_bound)
    return MembershipResult(False, None, search_bound)


# --- isomorphism criteria and the verdict -----------------------------------

@dataclass(frozen=True)
class ConditionResult:
    condition: str
    holds: bool
    witness_at: str | None  # instantiation that decided a quantified condition
    lhs_nf: Word
    rhs_nf: Word

    def line(self) -> str:
        status = "HOLDS" if self.holds else "DOES-NOT-HOLD"
        at = f" at m={self.witness_at}" if self.witness_at is not None else ""
        return f"{self.condition}  {status}{at}: lhs={render(self.lhs_nf)} rhs={render(self.rhs_nf)}"


@dataclass(frozen=True)
class IsoCriteriaReport:
    """The decidable conditions equivalent to the adjunction being an
    isomorphism, each decided by canonical-form comparison, plus the
    remaining equivalent conditions (surjectivity of f, f an isomorphism,
    the submonoid exhausting the monoid) propagated through the proved
    equivalence of the whole family.
    """

    conditions: tuple[ConditionResult, ...]
    derived_holds: bool

    @property
    def unanimous(self) -> bool:
        return len({c.holds for c in self.conditions}) == 1

    def lines(self) -> list[str]:
        out = [c.line() for c in self.conditions]
        status = "HOLDS" if self.derived_holds else "DOES-NOT-HOLD"
        out.append(f"derived (f surjective; f iso; N=M)  {status} [propagated by equivalence]")
        return out


def iso_criteria_report() -> IsoCriteriaReport:
    """Decide the four conditions by canonical-form comparison.

    "f(m)=eta*m*eps for all m" is decided at m = 1 alone: there it reads
    eta*eps = 1 (as f(1) = 1), and eta*eps = 1 implies the condition for
    every m, since eta*m*eps = f(m)*eta*eps by f(m)*eta = eta*m.
    """
    h1 = (eta_letter(1),)
    e1 = (eps_letter(1),)
    he = normalize(_H0 + _E0)
    holds = he == EMPTY
    conditions = (
        ConditionResult("f(eta)=eta", normalize(h1) == normalize(_H0), None, normalize(h1), normalize(_H0)),
        ConditionResult("f(eps)=eps", normalize(e1) == normalize(_E0), None, normalize(e1), normalize(_E0)),
        ConditionResult("eta*eps=1", holds, None, he, EMPTY),
        ConditionResult("f(m)=eta*m*eps", holds, None if holds else "1", EMPTY, he),
    )
    return IsoCriteriaReport(conditions, all(c.holds for c in conditions))


NOT_ISO = "NOT_ISO"
ISO = "ISO"


@dataclass(frozen=True)
class OpenQuestionVerdict:
    verdict: str
    eta_eps_nf: Word  # canonical form of eta*eps
    eps_eta_nf: Word  # canonical form of eps*eta
    eta_eps_idempotent: bool
    criteria: IsoCriteriaReport
    certificate_note: str


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
    return OpenQuestionVerdict(
        verdict,
        he,
        eh,
        idem,
        iso_criteria_report(),
        "run the confluence audit (CLI: adjmon audit) for the uniqueness certificate",
    )

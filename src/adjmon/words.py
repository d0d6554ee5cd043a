"""Words over the indexed alphabet {eta_k, eps_k} and their textual form.

A word is a tuple of :class:`Generator` letters; the empty tuple is the
monoid identity.  Letters compare by value, and the package builds each
through :func:`letter`, which shares one immutable instance per value.  The
text format is space-optional tokens ``h<k>`` / ``e<k>`` (Unicode aliases
``η<k>`` / ``ε<k>`` accepted on input), with the bare token ``1`` standing
for the empty word.  ``degree`` is the additive measure that makes every
rewrite step strictly decreasing.  The enumerators list words within
bounds, all of them or only the canonical forms, in the deterministic
order of ``word_key``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations_with_replacement, pairwise, product, starmap
from typing import NamedTuple

ETA = "h"
EPS = "e"

_KIND_ALIASES = {"h": ETA, "η": ETA, "e": EPS, "ε": EPS}


class Generator(NamedTuple):
    """One letter: an eta or an eps with a natural-number index."""

    kind: str  # ETA or EPS
    index: int


Word = tuple[Generator, ...]

EMPTY: Word = ()


# The audits and short queries use a few dozen letters, the longest bench words 1,600;
# the same bound holds parse's and render's per-token tables.
LETTER_CACHE_SIZE = 4096


@lru_cache(maxsize=LETTER_CACHE_SIZE)
def letter(kind: str, index: int) -> Generator:
    """The letter (kind, index), memoized: equal arguments share one instance
    while among the ``LETTER_CACHE_SIZE`` most recently used.
    """
    return Generator(kind, index)


def eta(k: int) -> Generator:
    return letter(ETA, k)


def eps(k: int) -> Generator:
    return letter(EPS, k)


def concat(u: Word, v: Word) -> Word:
    """Free-monoid multiplication: u followed by v."""
    return u + v


def degree(w: Word) -> int:
    """Sum of (index + 1) over the letters; additive under concat."""
    return sum(g.index + 1 for g in w)


def letter_key(g: Generator) -> tuple[int, int]:
    """Sort key putting eta letters before eps letters, then by index."""
    return (0 if g.kind == ETA else 1, g.index)


def word_key(w: Word) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Deterministic enumeration order: by length, then letterwise."""
    return (len(w), tuple(letter_key(g) for g in w))


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the byte offset of the fault."""

    def __init__(self, message: str, text: str, position: int):
        self.offset = len(text[:position].encode("utf-8"))
        super().__init__(f"{message} (byte offset {self.offset})")


class NotCanonicalError(ValueError):
    """An :class:`adjmon.monoid.Element` was given a word that is not a canonical form."""


# The grammar of word text: letter tokens, run together or apart, or the lone
# token 1.  re's \s is exactly str.isspace(); [0-9] keeps indices ASCII.
_WORD_TEXT = re.compile(r"\s*(?:1\s*|(?:[hηeε][0-9]+\s*)+)")
_LETTER_TOKEN = re.compile(r"[hηeε][0-9]+")
# One token of any text, good or bad (groups: token, 1, kind, digits); compiled
# by re on first use, when the grammar rejects a text.
_SCAN = r"\s*((1)|([hηeε])([0-9]*)|\S)"


@lru_cache(maxsize=LETTER_CACHE_SIZE)
def _token_key(token: str) -> tuple[str, int]:
    """(kind, index) of a letter token, the arguments of :func:`letter`."""
    return _KIND_ALIASES[token[0]], int(token[1:])


@lru_cache(maxsize=LETTER_CACHE_SIZE)
def _token_text(g: Generator) -> str:
    return f"{g.kind}{g.index}"


def parse(text: str) -> Word:
    """Parse word text; inverse of :func:`render` on canonical output.

    Rejects malformed tokens and a ``1`` mixed with letter tokens; the
    raised :class:`WordSyntaxError` points at the first bad token.
    """
    if _WORD_TEXT.fullmatch(text):
        try:  # a list sizes the tuple exactly; tuple() of an iterator over-allocates
            return tuple([*starmap(letter, map(_token_key, _LETTER_TOKEN.findall(text)))])
        except ValueError:  # int() refused an index of too many digits
            pass
    raise _first_fault(text)


def _first_fault(text: str) -> WordSyntaxError:
    """The error for the first bad token of a text that the grammar or int() rejects."""
    seen = identity = False
    for m in re.finditer(_SCAN, text):
        token, one, kind, digits = m.groups()
        start = m.start(1)
        if not (one or kind):
            return WordSyntaxError(f"unexpected character {token!r}", text, start)
        if kind and not digits:
            return WordSyntaxError(f"missing index after {kind!r}", text, start)
        if identity or one and seen:
            return WordSyntaxError("token '1' mixed with other tokens", text, start)
        try:
            int(digits or 0)  # digits is None for the token 1
        except ValueError:
            return WordSyntaxError(f"index after {kind!r} has too many digits", text, start)
        seen, identity = True, bool(one)
    return WordSyntaxError("empty input (write '1' for the identity)", text, 0)


def render(w: Word) -> str:
    """Space-separated ASCII tokens; the empty word renders as ``1``."""
    return " ".join(map(_token_text, w)) if w else "1"


# --- enumeration ------------------------------------------------------------

def all_words(max_len: int, max_index: int):
    """Every word within the bounds, in (length, letterwise) order."""
    letters = sorted(
        (letter(kind, n) for kind in (ETA, EPS) for n in range(max_index + 1)),
        key=letter_key,
    )
    for length in range(max_len + 1):
        yield from product(letters, repeat=length)


@lru_cache(maxsize=None)
def _heads(d: int) -> tuple[Generator, ...]:
    """The first letters of the words of degree d >= 1, in enumeration order."""
    return tuple(letter(kind, weight - 1) for weight in range(1, d + 1) for kind in (ETA, EPS))


def _words_by_degree(max_degree: int) -> list[tuple[Word, ...]]:
    """The words of each degree d <= max_degree, built for the caller alone:
    level d lists them by number, in blocks by first letter (``_heads``
    order), each block in the order of the level of its rests.
    ``_block_start`` reads a number off the letters, with no level built.
    """
    levels = [(EMPTY,)]
    for d in range(1, max_degree + 1):
        levels.append(tuple((head,) + rest for head in _heads(d) for rest in levels[d - head.index - 1]))
    return levels


def _block_start(prefix: Word, d: int) -> int:
    """The number, among the words of degree d, of the first that begins
    with prefix: prefix + r, for r number i of degree d - degree(prefix),
    is that number + i.  Level d holds 2·3^(d-1) words (1 at d = 0), so
    the blocks before a head of weight w, both heads of each lighter weight,
    hold 2 (3^(d-1) - 3^(d-w)) words, and an eps follows the eta block of w.
    """
    start = 0
    for g in prefix:
        rest = d - g.index - 1
        start += 2 * (3 ** (d - 1) - 3**rest) + (g.kind == EPS) * (2 * 3 ** (rest - 1) if rest else 1)
        d = rest
    return start


def normal_words(max_len: int, max_index: int) -> list[Word]:
    """Every canonical-form word within the bounds, constructed directly:
    a non-decreasing eta block followed by a non-increasing eps block.
    """
    out: list[Word] = []
    for total in range(max_len + 1):
        for k in range(total + 1):
            for ups in combinations_with_replacement(range(max_index + 1), k):
                head = tuple(eta(i) for i in ups)
                for downs in combinations_with_replacement(range(max_index + 1), total - k):
                    out.append(head + tuple(eps(j) for j in reversed(downs)))
    out.sort(key=word_key)
    return out


def is_canonical_shape(w: Word) -> bool:
    """Shape test for normal forms, independent of the rule table:
    an eta block with non-decreasing indices, then an eps block with
    non-increasing indices.
    """
    split = len(w)
    for p, g in enumerate(w):
        if g.kind == EPS:
            split = p
            break
    etas, epss = w[:split], w[split:]
    if any(g.kind != EPS for g in epss):
        return False
    if any(a.index > b.index for a, b in pairwise(etas)):
        return False
    return all(a.index >= b.index for a, b in pairwise(epss))


def normal_words_of_degree(d: int) -> list[Word]:
    """Canonical-form words of exact degree d, in (length, letterwise) order."""
    return sorted(filter(is_canonical_shape, _words_by_degree(d)[d]), key=word_key)

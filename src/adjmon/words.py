"""Words over the indexed alphabet {eta_k, eps_k} and their textual form.

A word is a tuple of :class:`Generator` letters; the empty tuple is the
monoid identity.  Letters compare by value, and the package reads each
from its kind's letter table (:func:`letter`, :func:`eta`, :func:`eps`,
the token table, ``rewrite``'s form writer), which shares one immutable
instance per value.  Each table holds at most ``LETTER_CACHE_SIZE``
letters, and a full one starts afresh, empty; the token table holds only
letters that their kind's table holds, and starts afresh with it.  The
text format is space-optional tokens ``h<k>`` / ``e<k>`` (Unicode aliases
``η<k>`` / ``ε<k>`` accepted on input), with the bare token ``1`` standing
for the empty word.  :func:`parse` reads spaced letter tokens with a
whitespace split and the token table, and any other text one token at a
time; both readings give the same words and the same errors.  ``degree``
is the additive measure that makes every rewrite step strictly
decreasing.  The enumerators list words within bounds, all of them or
only the canonical forms, in the deterministic order of ``word_key``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations_with_replacement, pairwise, product
from operator import attrgetter
from typing import NamedTuple

ETA = "h"
EPS = "e"


class Generator(NamedTuple):
    """One letter: an eta or an eps with a natural-number index."""

    kind: str  # ETA or EPS
    index: int


Word = tuple[Generator, ...]

EMPTY: Word = ()


# The audits and short queries use a few dozen letters, the longest bench words 1,600.
# Each kind's letter table and the token table hold at most this many, and a full one
# starts afresh, empty; render's token texts keep this many, the most recently used.
LETTER_CACHE_SIZE = 4096


class _Letters(dict):
    """index -> the letter (kind, index), for one kind; a miss builds the letter.

    Refuses with ValueError an index that is not an int, a bool or a float
    included, so no such letter is held.  The check runs on a miss only:
    the table compares keys by ==, so True or 1.0 hits a held ``h1`` and
    gets that letter; every letter returned has an int index.  Once it holds
    ``LETTER_CACHE_SIZE`` letters, a miss clears it and the token table, so
    the token table holds only letters that their kind's table holds.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind

    def __missing__(self, index: int) -> Generator:
        if type(index) is not int:
            raise ValueError(f"a letter's index must be an int, not {type(index).__name__}: {index!r}")
        if len(self) >= LETTER_CACHE_SIZE:
            self.clear()
            _TOKENS.clear()
        g = self[index] = Generator(self.kind, index)
        return g


_LETTERS = {ETA: _Letters(ETA), EPS: _Letters(EPS)}
_ETAS, _EPSS = _LETTERS[ETA], _LETTERS[EPS]
# a token's first character -> its kind's table, Unicode aliases included
_ALIAS_LETTERS = {"h": _ETAS, "η": _ETAS, "e": _EPSS, "ε": _EPSS}


def letter(kind: str, index: int) -> Generator:
    """The letter (kind, index), read from its kind's table: equal arguments
    share one instance while the table holds it.  Refuses with ValueError a
    kind other than ``ETA`` or ``EPS``, and, as the table does, an index
    that is not an int."""
    try:
        table = _LETTERS[kind]
    except KeyError:
        raise ValueError(f"a letter's kind must be {ETA!r} or {EPS!r}, not {kind!r}") from None
    return table[index]


def eta(k: int) -> Generator:
    return _ETAS[k]


def eps(k: int) -> Generator:
    return _EPSS[k]


_index = attrgetter("index")


def degree(w: Word) -> int:
    """Sum of (index + 1) over the letters."""
    return sum(map(_index, w)) + len(w)


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
    """An :class:`adjmon.monoid.Element` pair that is not a canonical form's state, or a rewriting off its form."""


# Word text is letter tokens, run together or apart, or the lone token 1.
# re's \s is exactly str.isspace(), where str.split() splits; [0-9] keeps
# indices ASCII.
_LETTER_TOKEN = re.compile(r"[hηeε][0-9]+")
# One token of any text, good or bad (groups: token, 1, kind, digits); compiled
# by re on first use, when the whitespace split refuses a text.
_SCAN = r"\s*((1)|([hηeε])([0-9]*)|\S)"


class _Tokens(dict):
    """token -> its letter, the one its kind's table holds; a miss reads the token.

    Raises ValueError for any piece of text but a letter token, and stores
    none: the pattern comes first, since int() also reads ``_``, ``+``,
    ``-`` and non-ASCII digits.  Once it holds ``LETTER_CACHE_SIZE``
    tokens, a miss clears it.
    """

    __slots__ = ()

    def __missing__(self, token: str) -> Generator:
        if not _LETTER_TOKEN.fullmatch(token):
            raise ValueError(f"not a letter token: {token!r}")
        g = _ALIAS_LETTERS[token[0]][int(token[1:])]  # may clear this table: a letter table starts afresh
        if len(self) >= LETTER_CACHE_SIZE:
            self.clear()
        self[token] = g
        return g


_TOKENS = _Tokens()
_token_letter = _TOKENS.__getitem__


@lru_cache(maxsize=LETTER_CACHE_SIZE)
def _token_text(g: Generator) -> str:
    return f"{g.kind}{g.index}"


def parse(text: str) -> Word:
    """Parse word text; inverse of :func:`render` on canonical output.

    Reads text in two ways, with the same words and errors: spaced letter
    tokens, as :func:`render` writes them, are split on whitespace and
    looked up in the token table; any other text (run-together tokens,
    the lone ``1``, an index over the digit limit, malformed input) is
    read token by token by ``_scan``.  Rejects malformed tokens and a
    ``1`` mixed with letter tokens; the raised :class:`WordSyntaxError`
    points at the first bad token.
    """
    if tokens := text.split():
        try:  # a list sizes the tuple exactly; tuple() of an iterator over-allocates
            return tuple([*map(_token_letter, tokens)])
        except ValueError:  # a piece that is not one letter token, or an index int() refuses
            pass
    return _scan(text)


def _scan(text: str) -> Word:
    """The word of a text, read one token at a time; raises the error for
    its first bad token."""
    out: list[Generator] = []
    identity = False
    for m in re.finditer(_SCAN, text):
        token, one, kind, digits = m.groups()
        start = m.start(1)
        if not (one or kind):
            raise WordSyntaxError(f"unexpected character {token!r}", text, start)
        if kind and not digits:
            raise WordSyntaxError(f"missing index after {kind!r}", text, start)
        if identity or one and out:
            raise WordSyntaxError("token '1' mixed with other tokens", text, start)
        if one:
            identity = True
            continue
        try:
            out.append(_ALIAS_LETTERS[kind][int(digits)])
        except ValueError:
            raise WordSyntaxError(f"index after {kind!r} has too many digits", text, start) from None
    if not (out or identity):
        raise WordSyntaxError("empty input (write '1' for the identity)", text, 0)
    return tuple(out)


def render(w: Word) -> str:
    """Space-separated ASCII tokens; the empty word renders as ``1``."""
    return " ".join(map(_token_text, w)) if w else "1"


# --- enumeration ------------------------------------------------------------

def alphabet(max_index: int) -> list[Generator]:
    """The letters of index <= max_index in ``letter_key`` order: every eta, then every eps."""
    return [letter(kind, n) for kind in (ETA, EPS) for n in range(max_index + 1)]


def all_words(max_len: int, max_index: int):
    """Every word within the bounds, in (length, letterwise) order."""
    letters = alphabet(max_index)
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

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from adjmon.rewrite import normalize
from adjmon.words import (
    _LETTERS,
    _TEXTS,
    _TOKENS,
    EMPTY,
    EPS,
    ETA,
    LETTER_CACHE_SIZE,
    Generator,
    WordSyntaxError,
    _block_start,
    _heads,
    _words_by_degree,
    degree,
    eps,
    eta,
    letter,
    parse,
    render,
)
from conftest import small_words


def all_words(max_len, max_index):
    from adjmon.confluence import all_words as gen

    return list(gen(max_len, max_index))


def test_degree_examples():
    assert degree(EMPTY) == 0
    assert degree(parse("e0 h0")) == 2
    assert degree(parse("h2 e0")) == 4


def test_degree_is_additive_exhaustive():
    pop = all_words(3, 3)
    degs = {w: degree(w) for w in pop}
    for u in pop:
        for v in pop:
            assert degree(u + v) == degs[u] + degs[v]


@given(small_words(), small_words())
def test_degree_is_additive(u, v):
    assert degree(u + v) == degree(u) + degree(v)


def test_parse_examples():
    assert parse("h0 e2 h1") == (eta(0), eps(2), eta(1))
    assert parse("1") == EMPTY
    assert parse("ε0η0") == (eps(0), eta(0))  # unicode, no whitespace
    assert parse("  h10e3 ") == (eta(10), eps(3))


def test_render_examples():
    assert render(EMPTY) == "1"
    assert render((eta(0), eps(0))) == "h0 e0"
    assert render((eps(3),)) == "e3"


def test_parse_render_roundtrip_exhaustive():
    for w in all_words(3, 3):
        assert parse(render(w)) == w


@given(small_words(max_index=30))
def test_parse_render_roundtrip(w):
    assert parse(render(w)) == w


def test_render_parse_canonicalizes_text():
    assert render(parse("  h0\t\ne1  ")) == "h0 e1"
    assert render(parse("η0 ε1")) == "h0 e1"


@pytest.mark.parametrize(
    "text,offset",
    [
        ("x0", 0),
        ("h0 xx", 3),
        ("h", 0),  # missing index
        ("h-1", 0),  # negative index: '-' is not a digit
        ("h0 e", 3),
        ("1 h0", 2),  # identity mixed with letters
        ("h0 1", 3),
        ("η0 x", 4),  # byte offset counts the two-byte eta
        ("", 0),
        pytest.param("h" + "9" * 5000, 0, id="oversized-index"),  # more digits than int() converts
        pytest.param("h0 e" + "9" * 5000, 3, id="oversized-second-index"),
    ],
)
def test_parse_errors_carry_byte_offset(text, offset):
    with pytest.raises(WordSyntaxError) as exc:
        parse(text)
    assert exc.value.offset == offset


@given(st.one_of(st.text(), st.text(alphabet="heηε1234567890 \t")))
@example("h" + "9" * 5000)
def test_parse_returns_word_or_syntax_error(text):
    try:
        w = parse(text)
    except WordSyntaxError:
        return
    assert isinstance(w, tuple)
    assert all(isinstance(g, Generator) and g.index >= 0 for g in w)


def test_parse_rejects_unicode_digits():
    with pytest.raises(WordSyntaxError):
        parse("h٣")  # arabic-indic three


def _reference_parse(text):
    """The per-character parser that the grammar and token tables replaced."""
    letters = []
    identity_seen = False
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        start = pos
        ch = text[pos]
        if ch == "1":
            pos += 1
            if identity_seen or letters:
                raise WordSyntaxError("token '1' mixed with other tokens", text, start)
            identity_seen = True
            continue
        kind = {"h": "h", "η": "h", "e": "e", "ε": "e"}.get(ch)
        if kind is None:
            raise WordSyntaxError(f"unexpected character {ch!r}", text, start)
        pos += 1
        digits = pos
        while pos < n and "0" <= text[pos] <= "9":
            pos += 1
        if pos == digits:
            raise WordSyntaxError(f"missing index after {ch!r}", text, start)
        if identity_seen:
            raise WordSyntaxError("token '1' mixed with other tokens", text, start)
        try:
            index = int(text[digits:pos])
        except ValueError:
            raise WordSyntaxError(f"index after {ch!r} has too many digits", text, start) from None
        letters.append(letter(kind, index))
    if not letters and not identity_seen:
        raise WordSyntaxError("empty input (write '1' for the identity)", text, 0)
    return tuple(letters)


def _outcome(parser, text):
    """The word parsed, or the message and byte offset of the error raised."""
    try:
        return parser(text)
    except WordSyntaxError as exc:
        return str(exc), exc.offset


# letters, ASCII and other digits, the identity, and whitespace of one to three UTF-8 bytes
_PARSER_ALPHABET = ["h", "e", "η", "ε", *"0123456789", "1", "x", "٣", " ", "\t", "\x1c", "\x85", "\u200b", "\u3000"]
# characters that int() reads inside an index and the grammar refuses; U+FF11 is the fullwidth 1
_PARSER_ALPHABET += ["_", "+", "-", "\uff11"]


@given(st.text(alphabet=_PARSER_ALPHABET, max_size=40))
@example("h" + "9" * 5000 + " x")
@example("1 \u3000")
@example("\x85")
# int() reads each of these indices; the grammar does not
@example("h1_0")
@example("e+1 h0")
@example("h-0")
@example("h\uff11 e0")
# texts that are not all spaced letter tokens: run-together, the identity, an index over the digit limit
@example("h0e1 e2")
@example(" 1 ")
@example("1 h0")
@example("e0 h" + "9" * 5000)
def test_parse_agrees_with_reference(text):
    assert _outcome(parse, text) == _outcome(_reference_parse, text)


def test_parse_agrees_with_reference_on_every_separator():
    # str.isspace() holds for no code point above U+3000
    for c in map(chr, range(0x3001)):
        text = "h1" + c + "e0"
        assert _outcome(parse, text) == _outcome(_reference_parse, text), repr(c)


def test_letters_stay_shared_under_cache_pressure():
    for i in range(LETTER_CACHE_SIZE + 100):
        letter("h", 10**6 + i)
    w = parse("h3 ε3 e3 η0")
    assert all(g is letter(*g) for g in w)
    assert render(w) == "h3 e3 e3 h0"
    text = "η0 ε" + "9" * 5000
    with pytest.raises(WordSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == "index after 'ε' has too many digits (byte offset 4)"
    assert _outcome(parse, text) == _outcome(_reference_parse, text)
    assert render(parse("h1000000000000 e0")) == "h1000000000000 e0"
    assert parse("h1000000000000 e0") == (eta(10**12), eps(0))


def test_letter_refuses_an_index_that_is_not_an_int():
    # a dict gives True, 1.0 and 1 one key: a letter of bool or float index, once held, would be handed out for
    # the int index and render as hTrue or h1.0
    for index in (True, False, 1.0, 123456789.0, "3", None):
        with pytest.raises(ValueError):
            _LETTERS[ETA].__missing__(index)  # the check runs in the table's miss
    with pytest.raises(ValueError):
        eta(123456789.0)
    for index in (True, 1.0):  # a miss is refused; a hit gets the cached h1
        try:
            g = eta(index)
        except ValueError:
            continue
        assert g is eta(1) and type(g.index) is int
    assert render(parse("h1 e0")) == "h1 e0"
    assert render(parse("h123456789 e0")) == "h123456789 e0"


def test_letter_refuses_a_negative_index():
    # a letter of index -1 would fold and rewrite as no natural letter does
    for make in (lambda: letter(ETA, -1), lambda: eta(-1), lambda: eps(-1)):
        with pytest.raises(ValueError):
            make()
    assert all(-1 not in table for table in _LETTERS.values())
    assert Generator(ETA, -1).index == -1  # the raw record is not checked


def test_letter_refuses_a_kind_but_eta_or_eps():
    # a letter of any other kind would render as x1 and fold as an eps
    for kind in ("x", "η", "ε", "", None, 0):
        with pytest.raises(ValueError):
            letter(kind, 1)
    assert letter(ETA, 1) is eta(1) and letter(EPS, 1) is eps(1)


def test_letter_tables_stay_bounded_and_start_afresh():
    # 3 * LETTER_CACHE_SIZE distinct letters through eta, eps and parse: every table stays within the bound, and
    # the word parse, _scan or normalize returns right after a table starts afresh holds its kind tables' letters
    tables = {"h": _LETTERS[ETA], "e": _LETTERS[EPS], "tokens": _TOKENS}
    fresh = dict.fromkeys(tables, 0)
    base = 7 * 10**9
    for i in range(3 * LETTER_CACHE_SIZE):
        k = base + i
        sizes = {name: len(table) for name, table in tables.items()}
        (eta, eps, lambda k: parse(f"h{k} ε{k}"))[i % 3](k)
        assert all(len(table) <= LETTER_CACHE_SIZE for table in tables.values())
        started = [name for name, table in tables.items() if len(table) < sizes[name]]
        if not started:
            continue
        for name in started:
            fresh[name] += 1
        if "h" in started:  # a miss: True and 1.0 are refused, not taken for h1
            for index in (True, 1.0, float(k - 1)):
                with pytest.raises(ValueError):
                    eta(index)
        if "e" in started:
            for index in (False, 0.0, float(k - 1)):
                with pytest.raises(ValueError):
                    eps(index)
        for w in (parse(f"h3 ε3 e1 η0 h{k}"), parse(f"h3ε3e1η0h{k}"), normalize(parse(f"e{k} h{k + 1} h2 e0"))):
            assert all(g is letter(*g) for g in w)
        assert all(_LETTERS[g.kind].get(g.index) is g for g in _TOKENS.values())
    assert all(fresh.values()), fresh
    assert render(parse("h1 e0")) == "h1 e0"


def test_token_table_starts_afresh_by_itself():
    # 2,000 letters in three spellings each: 6,000 tokens, while every letter stays in its kind's table
    base = 8 * 10**9
    for _ in range(2):  # a kind table that starts afresh in the first pass holds all 2,000 after the second
        for i in range(2000):
            eta(base + i)
    kinds = [len(table) for table in _LETTERS.values()]
    fresh = 0
    for i in range(2000):
        for text in (f"h{base + i}", f"h0{base + i}", f"η{base + i}"):
            size = len(_TOKENS)
            (g,) = parse(text)
            assert g is letter(*g) is eta(base + i)
            assert len(_TOKENS) <= LETTER_CACHE_SIZE
            fresh += len(_TOKENS) < size
    assert [len(table) for table in _LETTERS.values()] == kinds  # no kind table started afresh
    assert fresh


def test_text_table_stays_bounded_and_starts_afresh():
    base = 9 * 10**9
    fresh = 0
    for i in range(3 * LETTER_CACHE_SIZE):
        size = len(_TEXTS)
        g = (eta, eps)[i % 2](base + i)
        assert render((g, eta(0))) == f"{g.kind}{base + i} h0"
        assert len(_TEXTS) <= LETTER_CACHE_SIZE
        fresh += len(_TEXTS) < size
    assert fresh
    assert render(parse("h1 e0")) == "h1 e0"


def test_generators_are_values():
    assert eta(2) == Generator("h", 2)
    assert eta(2) != eps(2)
    assert len({eta(1), eta(1), eps(1)}) == 2


def test_letters_are_shared():
    assert letter("h", 3) is letter("h", 3) is eta(3)
    assert letter("e", 3) is eps(3) is not eta(3)
    assert parse("h3")[0] is eta(3)
    assert all(g is letter(*g) for g in parse("h0 ε2 e2 η0"))


def test_degree_enumeration_layout():
    # confluence labels words by these numbers without building the levels
    levels = _words_by_degree(7)
    assert len(levels) == 8
    for d, words in enumerate(levels):
        assert len(words) == len(set(words)) == (2 * 3 ** (d - 1) if d else 1)
        assert all(degree(w) == d for w in words)
        if d <= 4:
            assert set(words) == {w for w in all_words(d, max(d - 1, 0)) if degree(w) == d}
        heads = _heads(d)
        prefixes = [()] + [(x,) for x in heads] + [(x, y) for x in heads for y in _heads(d - x.index - 1)]
        for prefix in prefixes:
            start = _block_start(prefix, d)
            rests = levels[d - degree(prefix)]
            assert words[start : start + len(rests)] == tuple(prefix + r for r in rests)
        # the one-letter blocks follow each other in _heads order and fill the level
        starts = [_block_start((x,), d) for x in heads] + [len(words) if d else 0]
        assert starts == sorted(starts) and starts[0] == 0
        assert all(b - a == len(levels[d - x.index - 1]) for x, a, b in zip(heads, starts, starts[1:]))
        # a whole word's block is the word alone: its number
        assert [_block_start(w, d) for w in words] == list(range(len(words)))

"""Independent answer checker: the monotone-map model of the monoid.

``h_k`` acts on the naturals as the coface delta_k (x -> x if x < k, else
x + 1) and ``e_k`` as the codegeneracy sigma_k (x -> x if x <= k, else
x - 1).  A word g1 ... gn acts as g1 o ... o gn, so its rightmost letter
applies first.  From x >= max index + (number of eps letters) + 1 on,
every letter only shifts by one, so two words are equal in the monoid
exactly when their maps agree on that point and all below it, for both
words.

Nothing here imports adjmon or uses its rewrite rules: letters are plain
``(kind, index)`` pairs (adjmon's ``Generator`` is such a pair), the text
parser and the canonical-shape test are the benchmark's own, and the
expected audit figures are written out by hand.
"""

from __future__ import annotations

import re
from math import comb

ETA, EPS = "h", "e"
E0 = ((EPS, 0),)
H0 = ((ETA, 0),)

_TOKEN = re.compile(r"([he])(0|[1-9][0-9]*)")


def window(*words) -> int:
    """A window on which equal maps of these words must agree."""
    return max(max((i for _, i in w), default=0) + sum(kind == EPS for kind, _ in w) for w in words) + 2


def apply_letter(kind: str, k: int, images: tuple[int, ...]) -> tuple[int, ...]:
    """Post-compose a map (given by its images) with one letter."""
    if kind == ETA:
        return tuple([x if x < k else x + 1 for x in images])
    return tuple([x if x <= k else x - 1 for x in images])


def evaluate(word, size: int) -> tuple[int, ...]:
    """Images of 0 .. size-1 under the map the word denotes."""
    images = tuple(range(size))
    for kind, k in reversed(word):
        images = apply_letter(kind, k, images)
    return images


def same(u, v) -> bool:
    """Do u and v denote the same element of the monoid?"""
    size = window(u, v)
    return evaluate(u, size) == evaluate(v, size)


def is_canonical(word) -> bool:
    """An eta block with non-decreasing indices, then an eps block with
    non-increasing indices."""
    seen_eps = False
    prev = None
    for kind, k in word:
        if kind not in (ETA, EPS) or type(k) is not int or k < 0:
            return False
        if kind == EPS and not seen_eps:
            seen_eps, prev = True, None
        elif kind == ETA and seen_eps:
            return False
        if prev is not None and (k < prev if kind == ETA else k > prev):
            return False
        prev = k
    return True


def shift(word, by: int = 1):
    return tuple((kind, k + by) for kind, k in word)


def degree(word) -> int:
    return sum(k + 1 for _, k in word)


def derived_steps(before, after) -> int:
    """Rewrite steps between a word and its reduct, read off from outside:
    each step lowers the degree by one, except the vanishing step, which
    lowers it by two and the length by two."""
    return degree(before) - degree(after) - (len(before) - len(after)) // 2


def parse_text(text: str):
    """Strict reading of canonical output text: ``1`` or single-spaced
    ``h<k>`` / ``e<k>`` tokens.  Returns None on anything else."""
    if text == "1":
        return ()
    out = []
    for token in text.split(" "):
        m = _TOKEN.fullmatch(token)
        if m is None:
            return None
        out.append((m.group(1), int(m.group(2))))
    return tuple(out)


def render_text(word) -> str:
    return " ".join(f"{kind}{k}" for kind, k in word) if word else "1"


# --- per-answer checks --------------------------------------------------------

def normal_form_ok(word, nf) -> bool:
    return nf is not None and is_canonical(nf) and same(word, nf)


def product_ok(left, right, product) -> bool:
    return product is not None and is_canonical(product) and same(tuple(left) + tuple(right), product)


def image_ok(word, image) -> bool:
    """f(a) fixes 0 and acts as a shifted up by one: f(a)(x+1) = a(x)+1."""
    if image is None or not is_canonical(image):
        return False
    size = max(window(word), window(image))
    a, fa = evaluate(word, size), evaluate(image, size + 1)
    return fa[0] == 0 and all(fa[x + 1] == a[x] + 1 for x in range(size))


def membership_ok(word, member: bool, witness) -> bool:
    """A witness w must satisfy sigma_0 o f(w) = a; "no witness" is only
    correct when a moves 0, since every sigma_0 o f(m) fixes 0."""
    if member:
        return witness is not None and is_canonical(witness) and same(E0 + shift(witness), word)
    return witness is None and evaluate(word, 1)[0] != 0


def trace_text_ok(word, lines: list[str]) -> bool:
    """``adjmon trace`` output: the start word, then one line per step
    ``<word>  [<case> @ <position>]``, each acting as its predecessor,
    ending at a canonical form, with as many steps as the degree drop gives."""
    if not lines or parse_text(lines[0]) != tuple(word):
        return False
    prev = tuple(word)
    for line in lines[1:]:
        m = re.fullmatch(r"(.+)  \[[A-Za-z0-9_]+ @ ([0-9]+)\]", line)
        current = parse_text(m.group(1)) if m else None
        if current is None or not same(prev, current):
            return False
        prev = current
    return is_canonical(prev) and len(lines) - 1 == derived_steps(word, prev)


def trace_ok(word, steps, end) -> bool:
    """A recorded trace (library form): consecutive steps chain, every step
    rewrites only the two letters at its position into letters that act the
    same, and the end is a canonical form of the input with the step count
    the degree drop gives."""
    prev = tuple(word)
    for position, before, after in steps:
        if before != prev:
            return False
        grew = len(after) - len(before)
        rhs = after[position : position + 2 + grew]
        if (
            after[:position] != before[:position]
            or after[position + 2 + grew :] != before[position + 2 :]
            or not same(before[position : position + 2], rhs)
        ):
            return False
        prev = after
    return prev == tuple(end) and normal_form_ok(word, end) and len(steps) == derived_steps(word, end)


# --- hand-written expected answers --------------------------------------------

def ascending_eps(n: int):
    """e0 e1 ... e(n-1); its canonical form is e0^n."""
    return tuple((EPS, i) for i in range(n))


def cancelling(n: int):
    """e0^n h0^n; its canonical form is the identity."""
    return ((EPS, 0),) * n + ((ETA, 0),) * n


HEADLINE_NORMAL_FORMS = {
    "h0 e0": "h0 e0",  # eta*eps does not cancel
    "e0 h0": "1",
}

TERMINATION_4_6 = {"words": 41_371, "steps": 56_147, "longest_chain": 26}
CROSS_CHECK_3_2_9 = {"population": 259, "pairs": 33_670, "discrepancies": 0}


def overlap_pairs(max_index: int) -> int:
    """Three-letter parents with two overlapping redexes, counted by their
    index patterns: EEE (i<j<k), HHH (i>j>k), EEH (i<j, any k), EHH (j>k,
    any i)."""
    n = max_index + 1
    triples = n * (n - 1) * (n - 2) // 6
    ordered_pairs = n * (n - 1) // 2
    return 2 * triples + 2 * ordered_pairs * n


LOCAL_CONFLUENCE_DISJOINT = 32  # one disjoint pair per sampled parent
LOCAL_CONFLUENCE_6_OVERLAPS = 364


def canonical_words(max_len: int, max_index: int) -> int:
    """How many canonical forms have length <= max_len and indices <= max_index."""
    n = max_index + 1  # each block is a multiset of indices
    blocks = [comb(n + k - 1, k) for k in range(max_len + 1)]
    return sum(blocks[a] * blocks[t - a] for t in range(max_len + 1) for a in range(t + 1))


ISO_LINES = (
    "f(eta)=eta  DOES-NOT-HOLD: lhs=h1 rhs=h0",
    "f(eps)=eps  DOES-NOT-HOLD: lhs=e1 rhs=e0",
    "eta*eps=1  DOES-NOT-HOLD: lhs=h0 e0 rhs=1",
    "f(m)=eta*m*eps  DOES-NOT-HOLD at m=1: lhs=1 rhs=h0 e0",
)

ANSWER_LINES = (
    "verdict: NOT_ISO",
    "  eta*eps normalizes to 'h0 e0', a canonical form distinct from '1'",
    "  eps*eta normalizes to '1'",
    "  (eta*eps)^2 = eta*eps holds: eta*eps is a non-identity idempotent",
)


def iso_text_ok(lines: list[str]) -> bool:
    derived = [ln for ln in lines if ln.startswith("derived")]
    return all(ln in lines for ln in ISO_LINES) and len(derived) == 1 and "DOES-NOT-HOLD" in derived[0]


def answer_text_ok(lines: list[str]) -> bool:
    certificate = [ln for ln in lines if ln.startswith("certificate:")]
    return (
        bool(lines)
        and lines[0] == ANSWER_LINES[0]
        and all(ln in lines for ln in ANSWER_LINES)
        and len(certificate) == 1
        and "termination PASS" in certificate[0]
        and "local confluence PASS" in certificate[0]
    )


def model_verdict_ok() -> bool:
    """The verdict's facts in the model: eps*eta acts as the identity;
    eta*eps does not (it sends 0 to 1) but is idempotent."""
    he = H0 + E0
    return same(E0 + H0, ()) and evaluate(he, 1) == (1,) and same(he + he, he)

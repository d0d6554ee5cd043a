import gc

import pytest
from hypothesis import strategies as st

from adjmon import rewrite
from adjmon.words import EPS, ETA, Generator


def letters(max_index: int = 5):
    return st.builds(Generator, st.sampled_from([ETA, EPS]), st.integers(0, max_index))


def small_words(max_len: int = 6, max_index: int = 5):
    return st.lists(letters(max_index), max_size=max_len).map(tuple)


@pytest.fixture
def collector_on():
    """The cyclic garbage collector enabled for the test, and again after it, whatever the test left."""
    gc.enable()
    yield
    gc.enable()


@pytest.fixture
def collections():
    """The generation of every garbage collection that starts while the test runs, in order."""
    seen = []

    def record(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(record)
    yield seen
    gc.callbacks.remove(record)


@pytest.fixture
def mutated_rules(monkeypatch):
    """Replace one row's guard or right-hand side template in ``RULES`` for
    the test, with the rule caches cleared on the way in and out: a cached
    match would hide the mutation, and one made under it would leak into
    later tests.  Each call mutates the table as it was before the test."""
    original = rewrite.RULES

    def mutate(case, guard=None, rhs=None):
        def replaced(name, g, r):
            return (name, g if guard is None else guard, r if rhs is None else rhs) if name is case else (name, g, r)

        monkeypatch.setattr(rewrite, "RULES", {kinds: tuple(replaced(*row) for row in rows)
                                               for kinds, rows in original.items()})
        rewrite.match_rule.cache_clear()
        rewrite.left_sides.cache_clear()

    yield mutate
    monkeypatch.undo()
    rewrite.match_rule.cache_clear()
    rewrite.left_sides.cache_clear()

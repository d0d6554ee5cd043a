import gc

import pytest
from hypothesis import strategies as st

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

"""Every adjmon function the benchmark's tracer wraps must still exist.

``bench/run.py --trace 1`` looks each name in ``spans.SPANNED`` and
``spans.COUNTED`` up by attribute on its adjmon module, so a deleted or
renamed binding breaks the traced benchmark without failing any other
test here.
"""

import importlib
import sys
from pathlib import Path

import adjmon
import adjmon.cli  # noqa: F401  (the tracer wraps cli.main)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        spans = importlib.import_module("spans")
        names = list(spans.SPANNED) + list(spans.COUNTED)
    finally:
        for name in ("spans", "checker"):  # bench modules, importable only here
            sys.modules.pop(name, None)
    assert names
    for qualified in names:
        module, attr = qualified.split(".")
        assert callable(getattr(getattr(adjmon, module), attr)), qualified

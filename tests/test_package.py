"""The package namespace: ``import adjmon`` loads words and rewrite only,
monoid and confluence load on first access, and the public surface is
the same whichever has loaded.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adjmon

# __all__ as it read when every layer loaded at import, in the same order
PUBLIC = [
    "CriticalPair", "CrossCheckReport", "EMPTY", "EPS", "ETA", "Element", "Generator", "IdentityReport",
    "IsoCriteriaReport", "LocalConfluenceReport", "MembershipResult", "NOT_ISO", "NotARedexError",
    "OpenQuestionVerdict", "OracleVerdict", "ReductionGraph", "RuleCase", "RuleInstance", "Step",
    "TerminationReport", "Trace", "Word", "WordSyntaxError", "answer_open_question", "apply", "apply_f",
    "apply_f_word", "audit_local_confluence", "audit_termination", "check_N_closure", "check_axioms",
    "common_reducts", "concat", "confluence", "cross_check_oracle", "degree", "element", "elements",
    "enumerate_overlaps", "eps", "equivalent_bounded", "eta", "identity", "in_N", "is_canonical_shape",
    "is_normal", "iso_criteria_report", "monoid", "mul", "normalize", "normalize_trace", "parse", "redexes",
    "reduction_graph", "render", "resolve", "rewrite", "shift_word", "words",
]  # fmt: skip
SUBMODULES = ("words", "rewrite", "monoid", "confluence")  # in import order


def _fresh(code: str) -> str:
    """Run code after a fresh ``import adjmon, sys``; its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", f"import adjmon, sys\n{code}"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "print(sorted(m for m in sys.modules if m.startswith('adjmon.')))"


def test_all_is_unchanged():
    assert adjmon.__all__ == PUBLIC


def test_every_name_is_its_defining_modules_object():
    modules = {name: importlib.import_module(f"adjmon.{name}") for name in SUBMODULES}
    for name in PUBLIC:
        value = getattr(adjmon, name)
        if name in modules:
            assert value is modules[name], name
            continue
        # the first in import order that binds the name defines it (monoid's eps is an Element)
        defining = next(m for m in modules.values() if hasattr(m, name))
        assert value is getattr(defining, name), name


def test_star_import_binds_every_name():
    code = "ns = {}\nexec('from adjmon import *', ns)\nprint(all(ns[n] is getattr(adjmon, n) for n in adjmon.__all__))"
    assert _fresh(code) == "True\n"


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="'nope'"):
        adjmon.nope  # noqa: B018
    assert not hasattr(adjmon, "nope")


def test_import_loads_words_and_rewrite_only():
    assert _fresh(LOADED) == "['adjmon.rewrite', 'adjmon.words']\n"
    # dir() and __all__ list the deferred names without loading them
    code = f"print(set(adjmon.__all__) <= set(dir(adjmon)))\n{LOADED}"
    assert _fresh(code) == "True\n['adjmon.rewrite', 'adjmon.words']\n"


def test_first_access_loads_the_defining_module_and_caches_the_name():
    code = f"adjmon.Element\n{LOADED}\nprint('Element' in vars(adjmon), 'mul' in vars(adjmon))"
    assert _fresh(code) == "['adjmon.monoid', 'adjmon.rewrite', 'adjmon.words']\nTrue False\n"
    code = f"print(adjmon.confluence is sys.modules['adjmon.confluence'])\n{LOADED}"
    assert _fresh(code) == "True\n['adjmon.confluence', 'adjmon.rewrite', 'adjmon.words']\n"

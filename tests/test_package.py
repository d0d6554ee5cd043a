"""The package namespace: ``import adjmon`` loads words and rewrite only,
monoid and confluence load on first access, and the public surface is
the same whichever has loaded.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import adjmon

# __all__ as it read when every layer loaded at import, in the same order, each name with the reason it is
# public: the first of a command, an audit, a bench binding, the README example, a caller in src/ or a test reference
PUBLIC = {
    "CriticalPair": "caller in src/: the overlap enumerators build them, LocalConfluenceReport.unjoinable holds them",
    "CrossCheckReport": "audit: cross_check_oracle's report",
    "EMPTY": "caller in src/: the identity suites' empty word",
    "EPS": "caller in src/: the kind of an eps letter",
    "ETA": "caller in src/: the kind of an eta letter",
    "Element": "caller in src/: the value of element, mul, apply_f and in_N's witness",
    "Generator": "bench binding: long_words builds its letters",
    "IdentityReport": "command: axioms prints check_axioms's report",
    "IsoCriteriaReport": "command: iso prints iso_criteria_report's report",
    "LocalConfluenceReport": "audit: audit_local_confluence's report",
    "MembershipResult": "caller in src/: in_N's result, which ncheck prints",
    "NOT_ISO": "command: answer checks the verdict against it",
    "NotARedexError": "test reference: apply raises it, and the tests build reference critical pairs with apply",
    "OpenQuestionVerdict": "caller in src/: answer_open_question's verdict, which answer prints",
    "ReductionGraph": "caller in src/: reduction_graph's record; tests check normalize against sinks and longest_chain",
    "RuleCase": "audit: audit_termination reads the vanishing rule's case",
    "RuleInstance": "caller in src/: match_rule's record, which the audits read",
    "Step": "caller in src/: a trace's steps",
    "TerminationReport": "audit: audit_termination's report",
    "Trace": "caller in src/: normalize_trace's record",
    "Word": "command: the type of the words the commands read",
    "WordSyntaxError": "command: main reports it",
    "answer_open_question": "command: answer",
    "apply": "test reference: the tests build reference critical pairs with it",
    "apply_f": "bench binding: the queries workload's apply_f op",
    "audit_local_confluence": "command: audit",
    "audit_termination": "command: audit",
    "check_N_closure": "command: axioms",
    "check_axioms": "command: axioms",
    "common_reducts": "audit: audit_local_confluence builds the full graphs through it",
    "confluence": "command: audit",
    "cross_check_oracle": "command: audit",
    "degree": "command: degree",
    "element": "command: mul, ncheck",
    "enumerate_overlaps": "bench binding: the tracer wraps it",
    "eps": "caller in src/: normal_words builds eps letters",
    "equivalent_bounded": "audit: cross_check_oracle's spot searches",
    "eta": "caller in src/: normal_words builds eta letters",
    "identity": "caller in src/: answer_open_question compares eta*eps with it",
    "in_N": "command: ncheck",
    "is_canonical_shape": "caller in src/: normal_words_of_degree filters by it",
    "is_normal": "bench binding: the tracer wraps it",
    "iso_criteria_report": "command: iso",
    "monoid": "command: mul, f, iso, ncheck, axioms, answer",
    "mul": "command: mul",
    "normalize": "command: normalize, eq",
    "normalize_trace": "bench binding: the long_words workload",
    "parse": "command: every command reads its words with it",
    "redexes": "bench binding: the tracer counts its calls",
    "reduction_graph": "caller in src/: common_reducts",
    "render": "command: every command writes its words with it",
    "rewrite": "command: normalize, trace, eq",
    "shift_word": "command: f",
    "words": "command: every command",
}  # fmt: skip
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
    assert adjmon.__all__ == list(PUBLIC)


def _loads(path: Path, functions=None) -> set[str]:
    """The names a module loads, bare or as dotted chains (``A.monoid.mul``), in the given functions or anywhere."""
    tree = ast.parse(path.read_text())
    roots = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in functions] if functions else [tree]
    out = set(functions or ())
    for node in (n for root in roots for n in ast.walk(root)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            chain = [node.attr]
            while isinstance(node := node.value, ast.Attribute):
                chain.append(node.attr)
            if isinstance(node, ast.Name) and node.id in ("A", "words", "rewrite"):
                out.update(chain, {node.id} - {"A"})
    return out


def _text(paths) -> str:
    return "\n".join(p.read_text() for p in paths)


def test_every_public_name_has_a_caller():
    # each reason's place must reach the name: the command line, the audits, bench/, the README's
    # example, a module of src/, or a test other than this one
    root, src = Path(__file__).resolve().parent.parent, Path(adjmon.__file__).parent
    readme = "\n".join(line for line in (root / "README.md").read_text().splitlines() if line.startswith(">>>"))
    places = {
        "command": _loads(src / "cli.py"),
        "audit": _loads(src / "confluence.py", ("audit_termination", "audit_local_confluence", "cross_check_oracle")),
        "bench binding": _text((root / "bench").glob("*.py")),
        "README example": readme,
        "caller in src/": set().union(*(_loads(p) for p in src.glob("*.py") if p.name not in ("__init__.py", "cli.py"))),
        "test reference": _text(p for p in Path(__file__).parent.glob("*.py") if p.name != "test_package.py"),
    }
    for name, reason in PUBLIC.items():
        place = places[reason.split(":")[0]]
        assert name in place if isinstance(place, set) else re.search(rf"\b{name}\b", place), (name, reason)


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

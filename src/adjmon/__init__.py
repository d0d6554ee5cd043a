"""Normal forms, word problem and confluence audit for the initial
adjunction-in-monoids.

``import adjmon`` loads :mod:`adjmon.words` and :mod:`adjmon.rewrite`, all
that parsing, ``normalize`` and traces need.  The algebra layer
:mod:`adjmon.monoid` and the audit layer :mod:`adjmon.confluence` load on
first use: the first access to one of their names here, or to the module
itself, imports it.  ``__all__`` and ``dir(adjmon)`` list every name either way.
"""

from .words import (
    EMPTY,
    EPS,
    ETA,
    Generator,
    Word,
    WordSyntaxError,
    degree,
    eps,
    eta,
    is_canonical_shape,
    parse,
    render,
)
from .rewrite import (
    NotARedexError,
    ReductionGraph,
    RuleCase,
    RuleInstance,
    Step,
    Trace,
    apply,
    is_normal,
    normalize,
    normalize_trace,
    reduction_graph,
    redexes,
)

# name -> the submodule that defines it, imported on the name's first access (PEP 562)
_DEFERRED = {
    name: module
    for module, names in {
        "monoid": (
            "monoid Element IdentityReport IsoCriteriaReport MembershipResult NOT_ISO OpenQuestionVerdict "
            "answer_open_question apply_f check_axioms check_N_closure element identity in_N iso_criteria_report "
            "mul shift_word"
        ),
        "confluence": (
            "confluence CriticalPair CrossCheckReport LocalConfluenceReport TerminationReport audit_local_confluence "
            "audit_termination common_reducts cross_check_oracle enumerate_overlaps equivalent_bounded"
        ),
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_DEFERRED[name]}")
    value = globals()[name] = module if name == _DEFERRED[name] else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _DEFERRED.keys())


__all__ = sorted({name for name in globals() if not name.startswith("_")} | _DEFERRED.keys())
__version__ = "0.1.0"

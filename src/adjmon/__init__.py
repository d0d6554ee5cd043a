"""Normal forms, word problem and confluence audit for the initial
adjunction-in-monoids.
"""

from .words import (
    EMPTY,
    EPS,
    ETA,
    Generator,
    Word,
    WordSyntaxError,
    concat,
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
from .monoid import (
    Element,
    IdentityReport,
    IsoCriteriaReport,
    MembershipResult,
    NOT_ISO,
    OpenQuestionVerdict,
    answer_open_question,
    apply_f,
    apply_f_word,
    check_axioms,
    check_N_closure,
    element,
    elements,
    identity,
    in_N,
    iso_criteria_report,
    mul,
    shift_word,
)
from .confluence import (
    CriticalPair,
    CrossCheckReport,
    LocalConfluenceReport,
    OracleVerdict,
    TerminationReport,
    audit_local_confluence,
    audit_termination,
    common_reducts,
    cross_check_oracle,
    enumerate_overlaps,
    equivalent_bounded,
    resolve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

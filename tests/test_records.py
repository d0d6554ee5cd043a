"""The result records are immutable named tuples with stable reprs, and
``Element`` still admits canonical forms only.
"""

import pytest

from adjmon import confluence, monoid, rewrite
from adjmon.words import eps, eta, parse

# One instance of every result record, built by a small public call.
RECORDS = {
    "RuleInstance": lambda: rewrite.match_rule(eps(1), eta(1)),
    "Step": lambda: rewrite.normalize_trace(parse("e1 h1")).steps[0],
    "Trace": lambda: rewrite.normalize_trace(parse("e1 h1")),
    "ReductionGraph": lambda: rewrite.reduction_graph(parse("e1 h1")),
    "Element": lambda: monoid.element(parse("h1 e0")),
    "Counterexample": lambda: monoid.Counterexample("m=1", parse("h0"), ()),
    "IdentityResult": lambda: monoid.check_axioms(1, 1).results[0],
    "IdentityReport": lambda: monoid.check_axioms(1, 1),
    "MembershipResult": lambda: monoid.in_N(monoid.element(parse("e0 h1")), 3),
    "ConditionResult": lambda: monoid.iso_criteria_report().conditions[0],
    "IsoCriteriaReport": lambda: monoid.iso_criteria_report(),
    "OpenQuestionVerdict": lambda: monoid.answer_open_question(),
    "CriticalPair": lambda: confluence.enumerate_overlaps(2)[0],
    "SubcaseRow": lambda: confluence.audit_local_confluence(2).rows[0],
    "LocalConfluenceReport": lambda: confluence.audit_local_confluence(2),
    "TerminationReport": lambda: confluence.audit_termination(1, 1),
    "OracleVerdict": lambda: confluence.equivalent_bounded(parse("h0 e0"), (), 2),
    "CrossCheckReport": lambda: confluence.cross_check_oracle(1, 1, 2),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_an_immutable_named_tuple(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict
    assert repr(record).startswith(f"{name}({record._fields[0]}=")
    assert record._replace() == record
    assert type(record)(**record._asdict()) == record


def test_trace_repr_unchanged():
    # the repr these records had as frozen dataclasses
    assert repr(rewrite.normalize_trace(parse("e1 h1"))) == (
        "Trace(start=(Generator(kind='e', index=1), Generator(kind='h', index=1)), "
        "steps=(Step(position=0, rule=RuleInstance(case=<RuleCase.EPS_ETA_EQUAL: 'EpsEta_IEqJPos'>, "
        "lhs=(Generator(kind='e', index=1), Generator(kind='h', index=1)), "
        "rhs=(Generator(kind='e', index=0), Generator(kind='h', index=1))), "
        "before=(Generator(kind='e', index=1), Generator(kind='h', index=1)), "
        "after=(Generator(kind='e', index=0), Generator(kind='h', index=1))), "
        "Step(position=0, rule=RuleInstance(case=<RuleCase.EPS_ETA_NEXT: 'EpsEta_JEqIPlus1'>, "
        "lhs=(Generator(kind='e', index=0), Generator(kind='h', index=1)), "
        "rhs=(Generator(kind='e', index=0), Generator(kind='h', index=0))), "
        "before=(Generator(kind='e', index=0), Generator(kind='h', index=1)), "
        "after=(Generator(kind='e', index=0), Generator(kind='h', index=0))), "
        "Step(position=0, rule=RuleInstance(case=<RuleCase.EPS_ETA_ZERO: 'EpsEta_Zero'>, "
        "lhs=(Generator(kind='e', index=0), Generator(kind='h', index=0)), rhs=()), "
        "before=(Generator(kind='e', index=0), Generator(kind='h', index=0)), after=())))"
    )


def test_element_admits_canonical_forms_only():
    with pytest.raises(monoid.NotCanonicalError):
        monoid.Element(parse("e0 h0"))
    a = monoid.element(parse("h0"))
    with pytest.raises(monoid.NotCanonicalError):
        a._replace(nf=parse("e0 h0"))
    assert repr(a) == "Element(nf=(Generator(kind='h', index=0),))"


def test_element_sum_is_not_tuple_concatenation():
    a, b = monoid.eta(), monoid.eps()
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        2 * a  # nor tuple repetition
    assert a * b == monoid.mul(a, b) == monoid.element(parse("h0 e0"))

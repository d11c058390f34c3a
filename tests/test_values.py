"""Value semantics of the package's frozen value classes.

The nine classes compare, hash and print by their fields, refuse assignment
and deletion, and bind constructor arguments like a Python signature.  The
repr strings and TypeError messages below were recorded when the classes
were still frozen dataclasses and must not change.
"""

from fractions import Fraction

import pytest

from confound_kit import (
    ClassificationReport,
    CoarseningMap,
    Conclusion,
    Exposure,
    Hypothesis,
    JointDistribution,
    Model1Params,
    Model2Params,
    Model3Params,
    ResponseType,
    StratifiedCounts,
    build_joint,
    classify_covariate,
    clause_lookup,
    verify_clause,
)
from confound_kit.theorems import TheoremClause, VerificationReport

V = (0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875)
EXACT3 = dict(
    a=Fraction(1, 2), t=Fraction(1, 4), b0=Fraction(3, 4), b1=Fraction(1, 8), u0=Fraction(3, 8), u1=Fraction(5, 8)
)
CLAUSE_T1A = (
    "TheoremClause(theorem='T1', clause='a', model=1, conditions=frozenset({<Hypothesis.H4: 'H4'>}), "
    "conclusion=<Conclusion.IRRELEVANT_FACTOR: 'irrelevant_factor'>)"
)

# name -> (builder, repr recorded from the dataclass version); each builder
# returns a fresh instance, equal to but distinct from the last one
VALUES = {
    "Model1Params": (
        lambda: Model1Params(*V),
        "Model1Params(t=0.5, a0=0.25, a1=0.75, b0=0.125, b1=0.375, u0=0.625, u1=0.875)",
    ),
    "Model2Params": (
        lambda: Model2Params(*V),
        "Model2Params(a=0.5, c0=0.25, c1=0.75, b0=0.125, b1=0.375, u0=0.625, u1=0.875)",
    ),
    "Model3Params": (
        lambda: Model3Params(**EXACT3),
        "Model3Params(a=Fraction(1, 2), t=Fraction(1, 4), b0=Fraction(3, 4), b1=Fraction(1, 8), "
        "u0=Fraction(3, 8), u1=Fraction(5, 8))",
    ),
    "JointDistribution": (
        lambda: build_joint(Model1Params(*V)),
        "JointDistribution(p=(0.046875, 0.078125, 0.046875, 0.328125, 0.328125, 0.046875, 0.078125, 0.046875))",
    ),
    "JointDistribution exact": (
        lambda: build_joint(Model3Params(**EXACT3)),
        "JointDistribution(p=(Fraction(15, 64), Fraction(9, 64), Fraction(3, 64), Fraction(5, 64), "
        "Fraction(3, 32), Fraction(9, 32), Fraction(7, 64), Fraction(1, 64)))",
    ),
    "ClassificationReport": (
        lambda: classify_covariate(build_joint(Model1Params(*V))),
        "ClassificationReport(hypothetical=0.8125, observed=0.1875, standardized=0.3125, bias=0.625, "
        "adjusted_gap=0.5, verdict=<Verdict.CONFOUNDER: 'confounder'>)",
    ),
    "TheoremClause": (
        lambda: TheoremClause("T1", "a", 1, frozenset({Hypothesis.H4}), Conclusion.IRRELEVANT_FACTOR),
        CLAUSE_T1A,
    ),
    "VerificationReport": (
        lambda: verify_clause(clause_lookup("T1", "a"), 10, seed=3, exact=True),
        f"VerificationReport(clause={CLAUSE_T1A}, samples=10, max_violation=0, failures=0, seed=3)",
    ),
    "StratifiedCounts": (
        lambda: StratifiedCounts(
            ("x", "y"),
            {
                (ResponseType.DOOMED, Exposure.EXPOSED, "x"): 2,
                (ResponseType.IMMUNE, Exposure.UNEXPOSED, "y"): 3,
            },
        ),
        "StratifiedCounts(strata=('x', 'y'), counts=mappingproxy({"
        "(<ResponseType.DOOMED: 1>, <Exposure.EXPOSED: 'e'>, 'x'): 2, "
        "(<ResponseType.IMMUNE: 4>, <Exposure.UNEXPOSED: 'ebar'>, 'y'): 3}))",
    ),
    "CoarseningMap": (
        lambda: CoarseningMap.from_spec("0=1,2,3;1=4"),
        "CoarseningMap(assignment=mappingproxy({'1': 0, '2': 0, '3': 0, '4': 1}))",
    ),
}


# (call, TypeError message recorded from the dataclass version)
BAD_CALLS = [
    (lambda: Model1Params(*V[:6]), "Model1Params.__init__() missing 1 required positional argument: 'u1'"),
    (lambda: Model2Params(*V, x=1), "Model2Params.__init__() got an unexpected keyword argument 'x'"),
    (lambda: Model3Params(*V), "Model3Params.__init__() takes 7 positional arguments but 8 were given"),
    (lambda: Model3Params(0.5, a=0.5), "Model3Params.__init__() got multiple values for argument 'a'"),
    (lambda: JointDistribution(), "JointDistribution.__init__() missing 1 required positional argument: 'p'"),
    (lambda: JointDistribution(p=(1,), q=2), "JointDistribution.__init__() got an unexpected keyword argument 'q'"),
    (
        lambda: ClassificationReport(1, 2, 3),
        "ClassificationReport.__init__() missing 3 required positional arguments: "
        "'bias', 'adjusted_gap', and 'verdict'",
    ),
    (
        lambda: ClassificationReport(1, 2, 3, 4, 5, 6, extra=7),
        "ClassificationReport.__init__() got an unexpected keyword argument 'extra'",
    ),
    (
        lambda: TheoremClause("T1", "a"),
        "TheoremClause.__init__() missing 3 required positional arguments: 'model', 'conditions', and 'conclusion'",
    ),
    (
        lambda: VerificationReport(clause=None, samples=1, max_violation=0, failures=0),
        "VerificationReport.__init__() missing 1 required positional argument: 'seed'",
    ),
    (
        lambda: VerificationReport(None, 1, 0, 0, 0, 0),
        "VerificationReport.__init__() takes 6 positional arguments but 7 were given",
    ),
    (
        lambda: StratifiedCounts(),
        "StratifiedCounts.__init__() missing 2 required positional arguments: 'strata' and 'counts'",
    ),
    (
        lambda: StratifiedCounts(strata=("x",)),
        "StratifiedCounts.__init__() missing 1 required positional argument: 'counts'",
    ),
    (lambda: CoarseningMap(), "CoarseningMap.__init__() missing 1 required positional argument: 'assignment'"),
    (
        lambda: CoarseningMap({}, mapping={}),
        "CoarseningMap.__init__() got an unexpected keyword argument 'mapping'",
    ),
]


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in value._fields)


@pytest.mark.parametrize("name", VALUES)
def test_repr_is_pinned(name):
    build, expected = VALUES[name]
    assert repr(build()) == expected


@pytest.mark.parametrize("name", VALUES)
def test_equality_and_hash_follow_the_fields(name):
    build = VALUES[name][0]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a.__eq__(_fields(a)) is NotImplemented
    assert a != _fields(a)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", [n for n in VALUES if n not in ("StratifiedCounts", "CoarseningMap")])
def test_hash_is_the_field_tuple_hash(name):
    value = VALUES[name][0]()
    assert hash(value) == hash(_fields(value))


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = VALUES[name][0]()
    first = value._fields[0]
    before = repr(value)
    for attr in (first, "not_a_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
            setattr(value, attr, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{attr}'"):
            delattr(value, attr)
    assert repr(value) == before


@pytest.mark.parametrize("call, message", BAD_CALLS)
def test_bad_constructor_calls_raise_python_type_errors(call, message):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


def test_constructors_take_positional_and_keyword_arguments():
    names = Model1Params._fields
    assert Model1Params(*V) == Model1Params(**dict(zip(names, V))) == Model1Params(*V[:3], **dict(zip(names[3:], V[3:])))
    report = VALUES["ClassificationReport"][0]()
    assert ClassificationReport(*_fields(report)) == report
    assert ClassificationReport(**dict(zip(report._fields, _fields(report)))) == report


def test_equal_fields_of_different_classes_are_not_equal():
    assert Model1Params(*V) != Model2Params(*V)
    assert not Model1Params(*V) == Model2Params(*V)
    assert _fields(Model1Params(*V)) == _fields(Model2Params(*V))


def test_plain_attributes_stay_out_of_equality_hash_and_repr():
    # built from parameters, the exact joint keeps its cells over L**3; built
    # from its weights, over their least common denominator
    from_params = VALUES["JointDistribution exact"][0]()
    from_weights = JointDistribution(from_params.p)
    assert from_params._numerators != from_weights._numerators
    assert from_params == from_weights
    assert hash(from_params) == hash(from_weights)
    assert repr(from_params) == repr(from_weights)
    params = Model3Params(**EXACT3)
    assert "_unit" not in repr(params)
    assert params == Model3Params(**EXACT3)

"""Property tests tying the cell-index verdict path to brute-force summation.

``holds_numeric`` and ``summary_from_joint`` add fixed cells (integer
numerators on a rational joint).  The oracle here is the keyword route,
``JointDistribution.prob`` and ``conditional_prob``, on random float and
rational joints with zero cells and zero-mass slices.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confound_kit import (
    DegenerateEventError,
    Hypothesis,
    JointDistribution,
    MeasureSummary,
    check_lemma1,
    classify_covariate,
    conditional_prob,
    holds_numeric,
    hypothetical_proportion,
    observed_proportion,
    standardized_proportion,
    summary_from_joint,
)

PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)

# (X∧Y, X, Y, slice) of each product test, written out from the statements
H = Hypothesis
ORACLE_EVENTS = {
    H.H1: ({"E": "e", "D": 1}, {"E": "e"}, {"D": 1}, {}),
    H.H2: ({"E": "e", "D": 1}, {"E": "e"}, {"D": 1}, {"C": 0}),
    H.H3: ({"E": "e", "D": 1}, {"E": "e"}, {"D": 1}, {"C": 1}),
    H.H4: ({"E": "e", "C": 1}, {"E": "e"}, {"C": 1}, {}),
    H.H5: ({"D": 1, "C": 1}, {"D": 1}, {"C": 1}, {}),
    H.H6: ({"D": 1, "C": 1}, {"D": 1}, {"C": 1}, {"E": "ebar"}),
    H.H7: ({"D": 1, "C": 1}, {"D": 1}, {"C": 1}, {"E": "e"}),
}

# mostly small counts, so zero cells and zero-mass slices are common
counts = st.lists(
    st.one_of(st.just(0), st.integers(1, 3), st.integers(0, 10**6)), min_size=8, max_size=8
).filter(any)


@st.composite
def rational_joints(draw):
    ns = draw(counts)
    total = sum(ns)
    # a zero cell may be the int 0 rather than Fraction(0); both are exact
    return JointDistribution(
        tuple(0 if n == 0 and draw(st.booleans()) else Fraction(n, total) for n in ns)
    )


@st.composite
def float_joints(draw):
    weights = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(0, 1)), min_size=8, max_size=8).filter(any)
    )
    total = sum(weights)
    return JointDistribution(tuple(w / total for w in weights))


joints = st.one_of(rational_joints(), float_joints())
tolerances = st.one_of(
    st.just(0), st.floats(0, 0.1), st.fractions(0, Fraction(1, 10), max_denominator=10**6)
)


def oracle_holds(joint, hypothesis, tol):
    xy, x, y, given_ = ORACLE_EVENTS[hypothesis]
    q_xy = conditional_prob(joint, xy, given_)
    q_x = conditional_prob(joint, x, given_)
    q_y = conditional_prob(joint, y, given_)
    return abs(q_xy - q_x * q_y) <= tol


def oracle_summary(joint):
    """The four measures from conditional_prob, or the expected error message."""
    if joint.prob(e="e") == 0:
        return "P(E=e) = 0; the hypothetical proportion is undefined"
    if joint.prob(e="ebar") == 0:
        return "P(E=ebar) = 0; the observed proportion is undefined"
    hypothetical = conditional_prob(joint, {"D": 1}, {"E": "e"})
    observed = conditional_prob(joint, {"D": 1}, {"E": "ebar"})
    standardized = 0
    for k in (0, 1):
        if joint.prob(e="e", c=k) == 0:
            continue
        if joint.prob(e="ebar", c=k) == 0:
            return (
                f"P(E=ebar, C={k}) = 0 while P(C={k} | E=e) > 0; "
                "the standardized proportion is undefined"
            )
        standardized += conditional_prob(joint, {"D": 1}, {"E": "ebar", "C": k}) * (
            conditional_prob(joint, {"C": k}, {"E": "e"})
        )
    return MeasureSummary(hypothetical, observed, standardized, hypothetical - observed)


def per_measure_summary(joint):
    """The route summary_from_joint takes for float joints."""
    hypothetical = hypothetical_proportion(joint)
    observed = observed_proportion(joint)
    return MeasureSummary(
        hypothetical, observed, standardized_proportion(joint), hypothetical - observed
    )


@PROPERTY
@given(joints, tolerances)
def test_holds_numeric_matches_oracle(joint, tol):
    for hypothesis in Hypothesis:
        given_ = ORACLE_EVENTS[hypothesis][3]
        if joint.prob(**{var.lower(): value for var, value in given_.items()}) == 0:
            message = f"{hypothesis.value} conditions on {given_!r}, which has probability zero"
            with pytest.raises(DegenerateEventError) as info:
                holds_numeric(joint, hypothesis, tol)
            assert str(info.value) == message
        else:
            # float bools come from the same sums in the same order, bit for bit
            assert holds_numeric(joint, hypothesis, tol) is oracle_holds(joint, hypothesis, tol)


@PROPERTY
@given(joints)
def test_summary_matches_oracle(joint):
    expected = oracle_summary(joint)
    if isinstance(expected, str):
        for summary in (summary_from_joint, per_measure_summary):
            with pytest.raises(DegenerateEventError) as info:
                summary(joint)
            assert str(info.value) == expected
        return
    summary = summary_from_joint(joint)
    route = per_measure_summary(joint)
    for got, want in zip(summary, route):
        assert type(got) is type(want) and repr(got) == repr(want)
    if joint.is_exact:
        for got, want in zip(summary, expected):
            assert type(got) is Fraction and got == want and repr(got) == repr(Fraction(want))
    else:
        assert all(abs(got - want) <= 1e-9 for got, want in zip(summary, expected))


@PROPERTY
@given(rational_joints())
def test_lemma1_exclusive_on_rational_joints(joint):
    try:
        report = classify_covariate(joint)
    except DegenerateEventError:
        return
    assert check_lemma1(joint)
    irrelevant = report.standardized == report.observed
    confounder = report.adjusted_gap < abs(report.bias)
    assert not (irrelevant and confounder)
    if irrelevant:
        assert report.adjusted_gap == abs(report.bias)

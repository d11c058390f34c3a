"""Property tests tying the fast verdict path to independent routes.

``holds_numeric`` and ``summary_from_joint`` add fixed cells (integer
numerators on a rational joint).  Their oracle is the keyword route,
``JointDistribution.prob`` and ``conditional_prob``, on random float and
rational joints with zero cells and zero-mass slices.  The exact verdict
and Lemma 1 compare integer cross-products; their oracle is ``_classify``
and the two conditions on the ``Fraction`` measures.

``build_joint``, ``holds_algebraic`` and ``closed_form_summary`` expand the
model algebra once over a unit (integer numerators for rational
parameters).  Their oracle is ``algebra_oracle``, the plain products and
quotients, on random parameters: rational with any denominators, float,
bare ints, boundary values and mixtures of these.  The H1/H5 solve
``hypotheses._solve``, shared by ``impose`` and exact campaigns, is held to
the oracle's plain quotients the same way.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import algebra_oracle as oracle
from confound_kit import (
    ConstraintError,
    DegenerateEventError,
    Hypothesis,
    JointDistribution,
    MeasureSummary,
    Model2Params,
    ParameterError,
    build_joint,
    check_lemma1,
    classify_covariate,
    closed_form_summary,
    conditional_prob,
    holds_algebraic,
    holds_numeric,
    hypothetical_proportion,
    impose,
    observed_proportion,
    params_type,
    standardized_proportion,
    summary_from_joint,
)
from confound_kit._rng import SplitMix64
from confound_kit.hypotheses import _solve
from confound_kit.measures import _classify

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


def joint_of_counts(cells):
    total = sum(cells)
    return JointDistribution(tuple(Fraction(n, total) for n in cells))


def fraction_classify(joint):
    return _classify(summary_from_joint(joint), 0)


# adjusted_gap == |bias| while standardized != observed: the edge of the
# strict confounder test, which random counts seldom reach (8 of the 3**8
# joints with cells 0..2); in the second |bias| = 1/5, which rounds up as a
# float
@PROPERTY
@given(rational_joints())
@example(joint_of_counts((0, 0, 1, 2, 2, 0, 0, 1)))
@example(joint_of_counts((0, 1, 2, 2, 3, 0, 0, 2)))
def test_exact_verdict_matches_fraction_route(joint):
    expected = outcome(fraction_classify, joint)
    # a float zero is a zero tolerance too: no measure may be rounded to a
    # float on the way
    for tol in (0, 0.0):
        got = outcome(classify_covariate, joint, tol)
        lemma = outcome(check_lemma1, joint, tol)
        if isinstance(expected, tuple):  # a degenerate joint: same error
            assert got == expected and lemma == expected
            continue
        # read through getattr: an exact report builds its Fractions on first
        # read, so its __dict__ holds its integer ratios until then
        fields = expected._fields
        assert typed(getattr(got, name) for name in fields) == typed(getattr(expected, name) for name in fields)
        irrelevant = expected.standardized == expected.observed
        confounder = expected.adjusted_gap < abs(expected.bias)
        assert lemma is (not (irrelevant and confounder))


# --- the model algebra against the plain products -----------------------------

fraction_values = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(0, 1, max_denominator=1000),
    st.fractions(0, 1, max_denominator=10**9),
)
float_values = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))
# bare ints take the value route, so their cells keep the products' types
mixed_values = st.one_of(st.sampled_from([0, 1]), fraction_values, float_values)


@st.composite
def model_params(draw):
    model = draw(st.sampled_from([1, 2, 3]))
    values = draw(st.sampled_from([fraction_values, float_values, mixed_values]))
    cls = params_type(model)
    data = {name: draw(values) for name in cls._fields}
    try:
        params = cls(**data)
    except ParameterError:  # a degenerate exposure marginal, or a = 0 or 1
        assume(False)
    equation = draw(st.sampled_from([None, Hypothesis.H1, Hypothesis.H5]))
    if equation is not None:
        # solve H1 for u1 or H5 for u0, so that the equality branch runs; a
        # redraw lands on the thousandths grid, in the parameters' arithmetic
        try:
            params = impose(params, {equation}, SplitMix64(draw(st.integers(0, 2**64 - 1))), budget=3)
        except ConstraintError:
            pass
    return params


algebra_tolerances = st.one_of(
    tolerances, st.sampled_from([1e-9, 0.05, Fraction(1, 10**6)])
)


def outcome(check, *args):
    """A check's result, or the type and message of what it raised."""
    try:
        return check(*args)
    except Exception as exc:  # the oracle's errors are the expected ones
        return type(exc), str(exc)


def typed(values):
    # repr tells floats apart bit for bit (and -0.0 from 0.0)
    return [(type(v), repr(v)) for v in values]


@PROPERTY
@given(model_params())
def test_build_joint_matches_products(params):
    expected = outcome(oracle.build_joint, params)
    got = outcome(build_joint, params)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert typed(got.p) == typed(expected.p)
    assert got == expected and hash(got) == hash(expected) and repr(got) == repr(expected)
    assert got.to_dict() == expected.to_dict()
    assert got.is_exact is expected.is_exact
    # any common denominator serves the exact measures: same summary
    assert typed(outcome(summary_from_joint, got)) == typed(outcome(summary_from_joint, expected))


@PROPERTY
@given(model_params())
def test_closed_form_matches_quotients(params):
    expected = outcome(oracle.closed_form_summary, params)
    got = outcome(closed_form_summary, params)
    if isinstance(expected, MeasureSummary):
        assert typed(got) == typed(expected)
    else:
        assert got == expected


@PROPERTY
@given(model_params(), algebra_tolerances)
def test_holds_algebraic_matches_sides(params, tol):
    for hypothesis in Hypothesis:
        sides = outcome(oracle._algebraic_sides, params, hypothesis)
        if isinstance(sides[0], type):  # the oracle raised
            assert outcome(holds_algebraic, params, hypothesis, tol) == sides
            continue
        gap = abs(sides[0] - sides[1])
        # the drawn tolerance, and tolerances at the gap and just below it:
        # a float gap one ulp off, or an exact one compared after rounding,
        # flips one of them
        below = math.nextafter(gap, 0) if isinstance(gap, float) else gap - Fraction(1, 10**30)
        for t in (tol, gap, float(gap), below, 0):
            if t >= 0:
                expected = oracle.holds_algebraic(params, hypothesis, t)
                assert holds_algebraic(params, hypothesis, t) is expected, (hypothesis, t)


@pytest.mark.parametrize("c", [0, 1, Fraction(0), Fraction(1), 0.0, 1.0])
def test_degenerate_model2_h5_matches_sides(c):
    params = Model2Params(a=Fraction(3, 10), c0=c, c1=c, b0=Fraction(3, 20), b1=0.35, u0=Fraction(7, 20), u1=Fraction(9, 20))
    exact = Model2Params(a=Fraction(3, 10), c0=c, c1=c, b0=Fraction(3, 20), b1=Fraction(7, 20), u0=Fraction(7, 20), u1=Fraction(9, 20))
    for p in (params, exact):
        with pytest.raises(DegenerateEventError) as expected:
            oracle.holds_algebraic(p, Hypothesis.H5)
        with pytest.raises(DegenerateEventError) as got:
            holds_algebraic(p, Hypothesis.H5)
        assert str(got.value) == str(expected.value)
        assert typed(build_joint(p).p) == typed(oracle.build_joint(p).p)


# --- the H1/H5 solve against the plain quotients -------------------------------

ORACLE_SOLVES = {Hypothesis.H1: oracle._solve_h1, Hypothesis.H5: oracle._solve_h5}
solves = st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from([Hypothesis.H1, Hypothesis.H5]))


def seven(values):
    return st.lists(values, min_size=7, max_size=7)


@st.composite
def integer_slots(draw):
    """(L, seven integer numerators over L), boundary numerators included."""
    one = draw(st.integers(1, 10**6))
    return one, draw(seven(st.one_of(st.sampled_from([0, one]), st.integers(0, one))))


@PROPERTY
@given(solves, seven(st.one_of(st.sampled_from([0, 1]), fraction_values)))
# a Fraction u1 beside bare ints: the oracle's int-only term once divided to
# a float and made the whole quotient one
@example((3, Hypothesis.H5), [1, 0, 0, 0, 0, 0, Fraction(0, 1)])
def test_solve_matches_quotients_on_rationals(solve, v):
    model, eq = solve
    num, den = _solve(model, eq, v, 1)
    try:
        expected = ORACLE_SOLVES[eq](model, v)
    except ZeroDivisionError:
        assert den == 0
        return
    assert den != 0
    got = num / den
    # arithmetic follows the inputs: a Fraction among the slots the solve
    # reads makes the solved value a Fraction, and bare ints alone divide to
    # a float, on both routes
    assert type(got) is type(expected) and got == expected


@PROPERTY
@given(solves, integer_slots())
def test_solve_on_integer_numerators(solve, slots):
    model, eq = solve
    one, n = slots
    num, den = _solve(model, eq, n, one)
    try:
        expected = ORACLE_SOLVES[eq](model, [Fraction(x, one) for x in n])
    except ZeroDivisionError:
        assert den == 0
        return
    assert den != 0 and Fraction(num, den) == expected


@PROPERTY
@given(solves, seven(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))))
def test_solve_matches_quotients_on_floats(solve, v):
    model, eq = solve
    num, den = _solve(model, eq, v, 1)
    try:
        expected = ORACLE_SOLVES[eq](model, v)
    except ZeroDivisionError:
        assert den == 0
        return
    # one quotient instead of the oracle's chain: the last bits may differ
    assert abs(num / den - expected) <= 1e-12 * max(1.0, abs(expected))

"""Tests for the model parameterizations and the 8-cell joint distribution."""

import copy
import importlib
import json
import pickle
import random
import re
import types
from decimal import Decimal
from fractions import Fraction

import pytest

import algebra_oracle as oracle
import confound_kit
from confound_kit import (
    Exposure,
    JointDistribution,
    Model1Params,
    Model2Params,
    Model3Params,
    ParameterError,
    DegenerateEventError,
    Hypothesis,
    build_joint,
    check_lemma1,
    classify_covariate,
    conditional_prob,
    holds_numeric,
    model_number,
    params_from_dict,
    params_type,
    summary_from_joint,
)

F = Fraction


def uniform_m1():
    return Model1Params(t=0.5, a0=0.5, a1=0.5, b0=0.5, b1=0.5, u0=0.5, u1=0.5)


EXAMPLE_M1 = Model1Params(t=0.4, a0=0.2, a1=0.6, b0=0.1, b1=0.7, u0=0.3, u1=0.9)


# --- cell values ---------------------------------------------------------


def test_uniform_factorization_gives_eighths():
    joint = build_joint(uniform_m1())
    assert joint.p == (0.125,) * 8


def test_model1_example_cell():
    # cell (E=e, C=1, D=1) = t * a1 * u1 = 0.4 * 0.6 * 0.9
    joint = build_joint(EXAMPLE_M1)
    idx = JointDistribution.index("e", 1, 1)
    assert joint.p[idx] == pytest.approx(0.216, abs=1e-15)


def test_model1_full_joint_matches_enumeration():
    # independent per-cell product oracle
    p = EXAMPLE_M1
    tb, a0b, a1b = 1 - p.t, 1 - p.a0, 1 - p.a1
    expect = {
        ("e", 0, 0): tb * p.a0 * (1 - p.u0),
        ("e", 0, 1): tb * p.a0 * p.u0,
        ("e", 1, 0): p.t * p.a1 * (1 - p.u1),
        ("e", 1, 1): p.t * p.a1 * p.u1,
        ("ebar", 0, 0): tb * a0b * (1 - p.b0),
        ("ebar", 0, 1): tb * a0b * p.b0,
        ("ebar", 1, 0): p.t * a1b * (1 - p.b1),
        ("ebar", 1, 1): p.t * a1b * p.b1,
    }
    joint = build_joint(p)
    for (e, c, d), value in expect.items():
        assert joint.p[JointDistribution.index(e, c, d)] == pytest.approx(value, abs=1e-15)


def test_degenerate_covariate_zeroes_half_the_cells():
    joint = build_joint(Model1Params(t=1.0, a0=0.3, a1=0.6, b0=0.1, b1=0.7, u0=0.3, u1=0.9))
    for c0_cell in (0, 1, 4, 5):  # all C=0 cells
        assert joint.p[c0_cell] == 0.0


def test_model2_example_cell():
    # cell (E=ebar, C=1, D=1) = (1-a) * c0 * b1 = 0.4 * 0.2 * 0.5
    params = Model2Params(a=0.6, c0=0.2, c1=0.8, b0=0.1, b1=0.5, u0=0.4, u1=0.9)
    joint = build_joint(params)
    idx = JointDistribution.index("ebar", 1, 1)
    assert joint.p[idx] == pytest.approx(0.04, abs=1e-15)


def test_model2_uniform():
    params = Model2Params(a=0.5, c0=0.5, c1=0.5, b0=0.5, b1=0.5, u0=0.5, u1=0.5)
    assert build_joint(params).p == (0.125,) * 8


# --- model collapse ------------------------------------------------------


def test_model2_with_equal_c_collapses_to_model3():
    for t in (F(1, 4), F(2, 3)):
        m2 = Model2Params(a=F(3, 5), c0=t, c1=t, b0=F(1, 10), b1=F(1, 2), u0=F(2, 5), u1=F(9, 10))
        m3 = Model3Params(a=F(3, 5), t=t, b0=F(1, 10), b1=F(1, 2), u0=F(2, 5), u1=F(9, 10))
        assert build_joint(m2).p == build_joint(m3).p


def test_model3_equals_model1_with_equal_a():
    m3 = Model3Params(a=F(2, 7), t=F(1, 3), b0=F(1, 5), b1=F(4, 5), u0=F(3, 10), u1=F(7, 10))
    m1 = Model1Params(t=F(1, 3), a0=F(2, 7), a1=F(2, 7), b0=F(1, 5), b1=F(4, 5), u0=F(3, 10), u1=F(7, 10))
    assert build_joint(m3).p == build_joint(m1).p


def test_model3_exposure_covariate_independence_exact():
    joint = build_joint(Model3Params(a=F(2, 5), t=F(3, 7), b0=F(1, 9), b1=F(5, 9), u0=F(1, 3), u1=F(2, 3)))
    assert joint.prob(e="e", c=1) == joint.prob(e="e") * joint.prob(c=1)


def test_model3_symmetric_swap_balances_arms():
    joint = build_joint(Model3Params(a=0.5, t=0.5, b0=0.0, b1=1.0, u0=1.0, u1=0.0))
    hyp = conditional_prob(joint, {"D": 1}, {"E": "e"})
    obs = conditional_prob(joint, {"D": 1}, {"E": "ebar"})
    assert hyp == 0.5
    assert obs == 0.5


# --- conditionals --------------------------------------------------------


def test_conditional_on_uniform_is_half():
    joint = build_joint(uniform_m1())
    assert conditional_prob(joint, {"D": 1}, {"E": "e"}) == 0.5


def test_observed_proportion_closed_form_example():
    # (b0*a0bar*tbar + b1*a1bar*t) / (a0bar*tbar + a1bar*t) with the worked numbers
    joint = build_joint(EXAMPLE_M1)
    obs = conditional_prob(joint, {"D": 1}, {"E": "ebar"})
    assert obs == pytest.approx(0.25, abs=1e-15)


def test_conditional_returns_u1_exactly():
    exact = Model1Params(t=F(2, 5), a0=F(1, 5), a1=F(3, 5), b0=F(1, 10), b1=F(7, 10), u0=F(3, 10), u1=F(9, 10))
    joint = build_joint(exact)
    assert conditional_prob(joint, {"D": 1}, {"E": "e", "C": 1}) == F(9, 10)
    fj = build_joint(EXAMPLE_M1)
    assert conditional_prob(fj, {"D": 1}, {"E": "e", "C": 1}) == pytest.approx(0.9, abs=1e-14)


def test_conditional_conflicting_assignment_is_zero():
    joint = build_joint(uniform_m1())
    assert conditional_prob(joint, {"E": "e"}, {"E": "ebar"}) == 0.0


def test_conditional_reads_both_spellings_of_exposure_as_one_value():
    exact = Model1Params(t=F(2, 5), a0=F(1, 5), a1=F(3, 5), b0=F(1, 10), b1=F(7, 10), u0=F(3, 10), u1=F(9, 10))
    joint = build_joint(exact)
    assert conditional_prob(joint, {"E": "e"}, {"E": Exposure.EXPOSED}) == 1
    assert conditional_prob(joint, {"E": Exposure.UNEXPOSED}, {"E": "ebar"}) == 1
    observed = conditional_prob(joint, {"D": 1}, {"E": "ebar"})
    assert observed == F(1, 4)
    assert conditional_prob(joint, {"D": 1, "E": "ebar"}, {"E": Exposure.UNEXPOSED}) == observed
    assert conditional_prob(joint, {"D": 1, "E": Exposure.UNEXPOSED}, {"E": "ebar"}) == observed


@pytest.mark.parametrize(
    "event, given, message",
    [
        ({"C": 7}, {"C": 0}, "invalid C value 7; expected 0 or 1"),
        ({"E": "x"}, {"E": "e"}, "invalid exposure value 'x'; expected 'e' or 'ebar'"),
        ({"D": "yes"}, {"D": 1}, "invalid D value 'yes'; expected 0 or 1"),
    ],
)
def test_conditional_invalid_event_value_raises_beside_a_given_one(event, given, message):
    # an invalid value is no conflicting one: it must not read as probability 0
    with pytest.raises(ParameterError) as info:
        conditional_prob(build_joint(uniform_m1()), event, given)
    assert str(info.value) == message


def test_conditional_zero_mass_event_raises():
    joint = build_joint(Model1Params(t=0.0, a0=0.5, a1=0.5, b0=0.5, b1=0.5, u0=0.5, u1=0.5))
    with pytest.raises(DegenerateEventError):
        conditional_prob(joint, {"D": 1}, {"C": 1})


def test_round_trip_float_within_1e14():
    p = EXAMPLE_M1
    joint = build_joint(p)
    assert conditional_prob(joint, {"C": 1}, {}) == pytest.approx(p.t, abs=1e-14)
    assert conditional_prob(joint, {"E": "e"}, {"C": 0}) == pytest.approx(p.a0, abs=1e-14)
    assert conditional_prob(joint, {"E": "e"}, {"C": 1}) == pytest.approx(p.a1, abs=1e-14)
    assert conditional_prob(joint, {"D": 1}, {"E": "ebar", "C": 0}) == pytest.approx(p.b0, abs=1e-14)
    assert conditional_prob(joint, {"D": 1}, {"E": "ebar", "C": 1}) == pytest.approx(p.b1, abs=1e-14)
    assert conditional_prob(joint, {"D": 1}, {"E": "e", "C": 0}) == pytest.approx(p.u0, abs=1e-14)
    assert conditional_prob(joint, {"D": 1}, {"E": "e", "C": 1}) == pytest.approx(p.u1, abs=1e-14)


def test_round_trip_rational_exact():
    p = Model2Params(a=F(2, 3), c0=F(1, 7), c1=F(4, 7), b0=F(1, 11), b1=F(6, 11), u0=F(2, 9), u1=F(8, 9))
    joint = build_joint(p)
    assert conditional_prob(joint, {"E": "e"}, {}) == p.a
    assert conditional_prob(joint, {"C": 1}, {"E": "ebar"}) == p.c0
    assert conditional_prob(joint, {"C": 1}, {"E": "e"}) == p.c1
    assert conditional_prob(joint, {"D": 1}, {"E": "e", "C": 0}) == p.u0
    assert sum(joint.p) == 1


# --- validation ----------------------------------------------------------


def test_params_out_of_range_rejected():
    with pytest.raises(ParameterError):
        Model1Params(t=1.5, a0=0.5, a1=0.5, b0=0.5, b1=0.5, u0=0.5, u1=0.5)
    with pytest.raises(ParameterError):
        Model1Params(t=0.5, a0=-0.1, a1=0.5, b0=0.5, b1=0.5, u0=0.5, u1=0.5)


def test_non_real_params_and_weights_rejected():
    with pytest.raises(ParameterError, match="parameter a = '0.5' is not a real number"):
        Model3Params(a="0.5", t=0.5, b0=0.5, b1=0.5, u0=0.5, u1=0.5)
    with pytest.raises(ParameterError, match="parameter u1 = None is not a real number"):
        Model1Params(t=0.5, a0=0.5, a1=0.5, b0=0.5, b1=0.5, u0=0.5, u1=None)
    with pytest.raises(ParameterError, match="cell 0 weight '0.125' is not a real number"):
        JointDistribution(("0.125",) * 8)
    with pytest.raises(ParameterError, match="cell 7 weight"):
        JointDistribution((0.125,) * 7 + (0.125j,))


_UNIFORM = JointDistribution((0.125,) * 8)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Model3Params(a=0.5, t=float("nan"), b0=0.1, b1=0.7, u0=0.3, u1=0.9), "parameter t is NaN"),
        (lambda: JointDistribution((float("nan"),) + (0.125,) * 7), "cell 0 weight is NaN"),
        (lambda: JointDistribution.index("x", 0, 0), "invalid exposure value 'x'; expected 'e' or 'ebar'"),
        (lambda: _UNIFORM.prob(c=2), "invalid C value 2; expected 0 or 1"),
        (lambda: JointDistribution.from_dict({"q": []}), "expected exactly the field ['p'], got ['q']"),
        (lambda: JointDistribution.from_dict({"p": 3}), "field 'p' must be a list of 8 cell weights"),
        (lambda: conditional_prob(_UNIFORM, {"X": 1}, {}), "unknown variable 'X'; expected 'E', 'C', or 'D'"),
        (lambda: model_number(object()), "not a model parameter set: <object object at"),
        (lambda: build_joint(object()), "not a model parameter set: <object object at"),
        # a bool is an int, and was read as 0 or 1
        (lambda: Model1Params(t=0.5, a0=True, a1=0.5, b0=0.1, b1=0.2, u0=0.3, u1=0.4),
         "parameter a0 = True is not a real number"),
        (lambda: JointDistribution((True, 0, 0, 0, 0, 0, 0, 0)), "cell 0 weight True is not a real number"),
        # a Decimal is a tolerance only: Decimal("NaN") escaped as
        # decimal.InvalidOperation, and a Decimal field was accepted and
        # broke build_joint
        (lambda: Model1Params(t=0.5, a0=0.5, a1=0.5, b0=0.1, b1=Decimal("0.5"), u0=0.3, u1=0.4),
         "parameter b1 = Decimal('0.5') is not a real number"),
        (lambda: Model3Params(a=0.5, t=Decimal("NaN"), b0=0.1, b1=0.7, u0=0.3, u1=0.9),
         "parameter t = Decimal('NaN') is not a real number"),
        (lambda: JointDistribution((F(1, 8),) * 7 + (Decimal("0.125"),)),
         "cell 7 weight Decimal('0.125') is not a real number"),
        (lambda: JointDistribution((Decimal("NaN"),) + (0.125,) * 7), "cell 0 weight Decimal('NaN') is not a real number"),
    ],
    ids=["nan-param", "nan-weight", "index", "prob", "from-dict-key", "from-dict-cells",
         "conditional-variable", "model-number", "build-joint", "bool-param", "bool-weight",
         "decimal-param", "decimal-nan-param", "decimal-weight", "decimal-nan-weight"],
)
def test_invalid_values_rejected(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value).startswith(message)


def test_model1_degenerate_exposure_marginal_rejected():
    with pytest.raises(ParameterError):
        Model1Params(t=0.5, a0=0.0, a1=0.0, b0=0.5, b1=0.5, u0=0.5, u1=0.5)
    with pytest.raises(ParameterError):
        Model1Params(t=0.5, a0=1.0, a1=1.0, b0=0.5, b1=0.5, u0=0.5, u1=0.5)
    # one degenerate arm conditional is fine while the mixture stays interior
    Model1Params(t=0.5, a0=0.0, a1=1.0, b0=0.5, b1=0.5, u0=0.5, u1=0.5)


def test_model2_model3_require_interior_exposure():
    with pytest.raises(ParameterError):
        Model2Params(a=0.0, c0=0.5, c1=0.5, b0=0.5, b1=0.5, u0=0.5, u1=0.5)
    with pytest.raises(ParameterError):
        Model2Params(a=1.0, c0=0.5, c1=0.5, b0=0.5, b1=0.5, u0=0.5, u1=0.5)
    with pytest.raises(ParameterError):
        Model3Params(a=0.0, t=0.5, b0=0.5, b1=0.5, u0=0.5, u1=0.5)
    with pytest.raises(ParameterError):
        Model3Params(a=1.0, t=0.5, b0=0.5, b1=0.5, u0=0.5, u1=0.5)


def test_boundary_outcome_probabilities_allowed():
    joint = build_joint(Model3Params(a=0.5, t=0.0, b0=0.0, b1=1.0, u0=1.0, u1=0.0))
    assert sum(joint.p) == pytest.approx(1.0, abs=1e-15)


def test_joint_validation():
    with pytest.raises(ParameterError):
        JointDistribution((0.5, 0.5))  # wrong arity
    with pytest.raises(ParameterError):
        JointDistribution((0.5, 0.5, 0.25, -0.25, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ParameterError):
        JointDistribution((0.5,) * 8)  # sums to 4
    with pytest.raises(ParameterError):
        JointDistribution((F(1, 2), F(1, 4), F(1, 5), 0, 0, 0, 0, 0))  # exact sum != 1


def test_exact_joint_sums_to_one_exactly():
    joint = build_joint(
        Model1Params(t=F(2, 5), a0=F(1, 5), a1=F(3, 5), b0=F(1, 10), b1=F(7, 10), u0=F(3, 10), u1=F(9, 10))
    )
    assert sum(joint.p) == 1
    assert joint.is_exact


def test_integer_cells_checked_as_weights_are():
    # build_joint passes integer cells over L**3 straight in; the checks and
    # their messages are those of the weights they stand for
    for numerators, denominator in (
        ((3, -1, 2, 0, 0, 0, 0, 0), 4),  # a negative cell
        ((1, 1, 1, 1, 1, 1, 1, 1), 12),  # sums to 2/3
    ):
        with pytest.raises(ParameterError) as expected:
            JointDistribution(tuple(F(n, denominator) for n in numerators))
        with pytest.raises(ParameterError) as got:
            JointDistribution._from_numerators(numerators, denominator)
        assert str(got.value) == str(expected.value)
    joint = JointDistribution._from_numerators((1, 1, 1, 1, 1, 1, 1, 1), 8)
    assert joint == JointDistribution((F(1, 8),) * 8) and joint._numerators == (1,) * 8


UNIFORM = JointDistribution((F(1, 8),) * 8)
_NO_MAPPING = "{} must be a mapping of 'E', 'C' and 'D' to values, got {}"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: confound_kit.SplitMix64(1.5), "seed must be an integer, got 1.5"),
        (lambda: confound_kit.SplitMix64(True), "seed must be an integer, got True"),
        (lambda: confound_kit.sample_stream(None, 0), "seed must be an integer, got None"),
        (lambda: confound_kit.sample_stream(0, 1.5), "index must be an integer, got 1.5"),
        (lambda: params_from_dict(None), "expected a mapping of parameter fields, got NoneType"),
        (lambda: Model1Params.from_dict(None), "expected a mapping of parameter fields, got NoneType"),
        (lambda: JointDistribution.from_dict(None), "expected a mapping with the field 'p', got NoneType"),
        (lambda: JointDistribution(None), "joint needs a sequence of 8 cell weights, got NoneType"),
        (lambda: JointDistribution(1.5), "joint needs a sequence of 8 cell weights, got float"),
        (lambda: classify_covariate(None), "expected a JointDistribution, got NoneType"),
        (lambda: summary_from_joint(1.5), "expected a JointDistribution, got float"),
        (lambda: check_lemma1("joint"), "expected a JointDistribution, got str"),
        (
            lambda: confound_kit.holds_numeric(None, confound_kit.Hypothesis.H1),
            "expected a JointDistribution, got NoneType",
        ),
        (lambda: confound_kit.hypothetical_proportion(1.5), "expected a JointDistribution, got float"),
        (lambda: confound_kit.observed_proportion("x"), "expected a JointDistribution, got str"),
        (lambda: confound_kit.standardized_proportion(None), "expected a JointDistribution, got NoneType"),
        (lambda: confound_kit.confounding_bias(1.5), "expected a JointDistribution, got float"),
        (lambda: conditional_prob("x", {"D": 1}, {"E": "e"}), "expected a JointDistribution, got str"),
        (lambda: conditional_prob(UNIFORM, None, {"E": "e"}), _NO_MAPPING.format("event", "NoneType")),
        (lambda: conditional_prob(UNIFORM, "D", {"E": "e"}), _NO_MAPPING.format("event", "str")),
        (lambda: conditional_prob(UNIFORM, {"D": 1}, None), _NO_MAPPING.format("given", "NoneType")),
        (lambda: conditional_prob(UNIFORM, {"D": 1}, "D"), _NO_MAPPING.format("given", "str")),
        (lambda: confound_kit.analyze_counts(None), "analyze_counts needs a StratifiedCounts, got NoneType"),
        (lambda: confound_kit.counts_to_joint(1.5), "counts_to_joint needs a StratifiedCounts, got float"),
        (lambda: confound_kit.dump_counts("x"), "dump_counts needs a StratifiedCounts, got str"),
        (lambda: confound_kit.random_params(1, None), "rng must be a SplitMix64, got NoneType"),
        (lambda: confound_kit.random_params(1, 7, exact=True), "rng must be a SplitMix64, got int"),
        (
            lambda: confound_kit.coarsen(None, confound_kit.CoarseningMap({"a": 0, "b": 1})),
            "coarsen needs a StratifiedCounts and a CoarseningMap, got NoneType and CoarseningMap",
        ),
        (
            lambda: confound_kit.coarsen(confound_kit.load_counts(confound_kit.fixture_path("table1.csv")), {}),
            "coarsen needs a StratifiedCounts and a CoarseningMap, got StratifiedCounts and dict",
        ),
    ],
    ids=["rng-seed", "rng-seed-bool", "stream-seed", "stream-index", "params-from-dict", "params-class-from-dict",
         "joint-from-dict", "joint-none", "joint-float", "classify",
         "summary", "lemma1", "holds-numeric", "hypothetical", "observed", "standardized", "bias", "conditional-prob",
         "conditional-prob-event-none", "conditional-prob-event-str", "conditional-prob-given-none",
         "conditional-prob-given-str", "analyze-counts", "counts-to-joint", "dump-counts", "random-params",
         "random-params-exact", "coarsen-counts", "coarsen-map"],
)
def test_arguments_of_the_wrong_kind_are_parameter_errors(call, message):
    # these once escaped as TypeError or AttributeError
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message


# --- values kept on a joint ------------------------------------------------

EXACT_M2 = Model2Params(a=F(3, 7), c0=F(1, 4), c1=F(5, 6), b0=F(1, 10), b1=F(7, 10), u0=F(2, 9), u1=F(9, 10))


def test_exact_cells_built_on_first_access():
    joint = build_joint(EXACT_M2)
    assert "p" not in vars(joint)
    assert joint.p == oracle.build_joint(EXACT_M2).p
    assert all(type(w) is Fraction for w in joint.p)
    assert joint.p is joint.p  # built once


def test_reading_the_cells_does_not_change_the_joint():
    # each check gets a joint whose cells were never read, since comparing,
    # hashing or printing one reads them
    read = build_joint(EXACT_M2)
    assert read.p  # now kept on the joint
    for unread, other in ((build_joint(EXACT_M2), read), (read, build_joint(EXACT_M2))):
        assert unread == other
    assert hash(build_joint(EXACT_M2)) == hash(read)
    assert repr(build_joint(EXACT_M2)) == repr(read)
    assert build_joint(EXACT_M2).to_dict() == read.to_dict()
    assert pickle.dumps(build_joint(EXACT_M2)) == pickle.dumps(read)
    # copies are rebuilt from the cells, over their least common denominator
    rebuilt = JointDistribution(read.p)._numerators
    for restored in (pickle.loads(pickle.dumps(build_joint(EXACT_M2))), copy.deepcopy(build_joint(EXACT_M2))):
        assert restored == read and restored._numerators == rebuilt
        assert classify_covariate(restored) == classify_covariate(read)


def _verdict_calls(tol):
    calls = [
        ("classify", lambda joint: classify_covariate(joint, tol)),
        ("lemma1", lambda joint: check_lemma1(joint, tol)),
        ("summary", summary_from_joint),
    ]
    calls += [(h.value, lambda joint, h=h: holds_numeric(joint, h, tol)) for h in Hypothesis]
    return calls


@pytest.mark.parametrize("exact", [False, True])
def test_kept_proportions_give_the_fresh_results_in_any_order(exact):
    rng = random.Random(31)
    for model in (1, 2, 3):
        cls = params_type(model)
        for _ in range(5):
            grid = [F(rng.randint(1, 99), 100) for _ in cls._fields]
            params = cls(*(grid if exact else [float(v) for v in grid]))
            calls = _verdict_calls(0 if exact else 1e-9)
            fresh = {name: call(build_joint(params)) for name, call in calls}
            for _ in range(4):
                rng.shuffle(calls)
                joint = build_joint(params)
                for name, call in calls + calls:
                    got = call(joint)
                    # repr tells float bits apart, 0.0 from -0.0 included
                    assert got == fresh[name] and repr(got) == repr(fresh[name]), name
            assert pickle.dumps(joint) == pickle.dumps(build_joint(params))


@pytest.mark.parametrize("exact", [False, True])
def test_degenerate_joint_raises_on_every_call(exact):
    # P(E=ebar, C=1) = 0 while P(C=1 | E=e) > 0: the standardized proportion
    # is undefined, and a failure is not kept
    weights = (F(1, 8), F(1, 8), F(1, 8), F(1, 8), F(1, 4), F(1, 4), 0, 0)
    joint = JointDistribution(weights if exact else [float(w) for w in weights])
    calls = [call for _, call in _verdict_calls(0)[:3]]
    for call in calls + calls:
        with pytest.raises(DegenerateEventError, match=r"P\(E=ebar, C=1\) = 0"):
            call(joint)
    assert joint._proportions is None


# --- dispatch ------------------------------------------------------------


def test_exports_are_the_public_names():
    # the package imports its names lazily from one table: __all__ is that
    # table, each name is the object its module defines, and once every
    # module has loaded, no public name of the package sits outside it (a
    # name bound in __init__ itself, say); a deleted function cannot linger
    exports = confound_kit._EXPORTS
    assert confound_kit.__all__ == ["__version__", *exports]
    for name, module in exports.items():
        defined = vars(importlib.import_module(f"confound_kit.{module}"))
        assert name in defined, f"{module} defines no {name}"
        assert getattr(confound_kit, name) is defined[name]
        if isinstance(defined[name], (type, types.FunctionType)):
            # not a name the module only imports from another
            assert defined[name].__module__ == f"confound_kit.{module}"
    public = {
        name
        for name, value in vars(confound_kit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(exports)


def test_model_number_and_params_type():
    assert model_number(EXAMPLE_M1) == 1
    assert params_type(2) is Model2Params
    assert params_type(3) is Model3Params
    with pytest.raises(ParameterError):
        params_type(4)
    # True == 1 and 2.0 == 2 as dict keys, yet neither is a model number
    for model in (True, False, 2.0):
        with pytest.raises(ParameterError, match=f"unknown model number {model}"):
            params_type(model)


# --- serialization -------------------------------------------------------


def test_params_dict_round_trip_float():
    data = EXAMPLE_M1.to_dict()
    assert data == {"t": 0.4, "a0": 0.2, "a1": 0.6, "b0": 0.1, "b1": 0.7, "u0": 0.3, "u1": 0.9}
    assert Model1Params.from_dict(data) == EXAMPLE_M1
    assert params_from_dict(data) == EXAMPLE_M1


def test_params_dict_round_trip_fraction_strings():
    p = Model3Params(a=F(1, 3), t=F(2, 7), b0=F(1, 5), b1=F(4, 5), u0=F(1, 2), u1=F(1, 4))
    data = p.to_dict()
    assert data["a"] == "1/3"
    assert Model3Params.from_dict(data) == p
    assert params_from_dict(data) == p
    json.dumps(data)  # JSON-safe


def test_params_from_dict_rejects_unknown_shape():
    with pytest.raises(ParameterError):
        params_from_dict({"t": 0.5, "a0": 0.5})
    with pytest.raises(ParameterError):
        Model1Params.from_dict({**EXAMPLE_M1.to_dict(), "extra": 1.0})


# bad strings, then values that are no number at all
@pytest.mark.parametrize("value", ["abc", "nan", "inf", "1/0", None, [0.5], {}, True], ids=str)
def test_from_dict_rejects_bad_number_strings(value):
    message = re.escape(f"invalid numeric value {value!r}")
    with pytest.raises(ParameterError, match=message):
        params_from_dict({**EXAMPLE_M1.to_dict(), "b0": value})
    with pytest.raises(ParameterError, match=message):
        JointDistribution.from_dict({"p": [value] + ["1/7"] * 7})


def test_joint_dict_round_trip():
    joint = build_joint(
        Model1Params(t=F(2, 5), a0=F(1, 5), a1=F(3, 5), b0=F(1, 10), b1=F(7, 10), u0=F(3, 10), u1=F(9, 10))
    )
    data = joint.to_dict()
    assert list(data) == ["p"]
    assert len(data["p"]) == 8
    assert JointDistribution.from_dict(data).p == joint.p
    assert JointDistribution.from_dict(json.loads(json.dumps(data))).p == joint.p


def test_exposure_labels():
    assert Exposure.EXPOSED.value == "e"
    assert Exposure.UNEXPOSED.value == "ebar"
    assert len(Exposure) == 2

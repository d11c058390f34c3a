"""Tests for the seven independence hypotheses and constrained sampling."""

import copy
import enum
import math
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from confound_kit import (
    ConstraintError,
    DegenerateEventError,
    Hypothesis,
    JointDistribution,
    Model1Params,
    Model2Params,
    Model3Params,
    ParameterError,
    build_joint,
    confounding_bias,
    holds_algebraic,
    holds_numeric,
    impose,
    observed_proportion,
    random_params,
    standardized_proportion,
    summary_from_joint,
)
from confound_kit.hypotheses import (
    equational_member,
    hypothesis_set,
    parse_hypothesis,
    substitution_reps,
)
from confound_kit._rng import SplitMix64

F = Fraction
H = Hypothesis

EXAMPLE_M1 = Model1Params(t=0.4, a0=0.2, a1=0.6, b0=0.1, b1=0.7, u0=0.3, u1=0.9)


# --- the statement list --------------------------------------------------


def test_statement_numbering():
    assert H.H1.statement == "E ⊥ D_ebar"
    assert H.H2.statement == "E ⊥ D_ebar | C=0"
    assert H.H3.statement == "E ⊥ D_ebar | C=1"
    assert H.H4.statement == "E ⊥ C"
    assert H.H5.statement == "D_ebar ⊥ C"
    assert H.H6.statement == "D_ebar ⊥ C | E=ebar"
    assert H.H7.statement == "D_ebar ⊥ C | E=e"


def test_hypothesis_behaves_as_a_plain_enum():
    # Hypothesis iterates over a tuple of its members (a metaclass derived
    # from EnumMeta, the name Python 3.10 has too); all else is Enum's own
    members = [H.H1, H.H2, H.H3, H.H4, H.H5, H.H6, H.H7]
    assert isinstance(H, enum.EnumMeta) and issubclass(H, enum.Enum)
    assert list(H) == members and list(H) == members  # iterable again
    assert [h.value for h in H] == ["H1", "H2", "H3", "H4", "H5", "H6", "H7"]
    assert len(H) == 7
    assert list(reversed(H)) == members[::-1]
    assert H.H4 in H and all(h in H for h in H)
    assert H("H3") is H.H3 and H["H4"] is H.H4 and H.H5.name == "H5"
    assert list(H.__members__) == [h.name for h in members]
    assert list(H.__members__.values()) == members
    for h in H:
        assert pickle.loads(pickle.dumps(h)) is h
        assert copy.copy(h) is h and copy.deepcopy(h) is h
    assert pickle.loads(pickle.dumps(H)) is H
    with pytest.raises(ValueError):
        H("H8")
    with pytest.raises(KeyError):
        H["H8"]
    with pytest.raises(AttributeError):
        H.H1 = "H1"


def test_parse_hypothesis():
    assert parse_hypothesis("h3") is H.H3
    assert parse_hypothesis("H7") is H.H7
    with pytest.raises(ParameterError):
        parse_hypothesis("H8")
    with pytest.raises(ParameterError, match="unknown hypothesis 1"):
        parse_hypothesis(1)


# --- numeric tests on joints ---------------------------------------------


def test_model3_joint_always_satisfies_h4():
    rng = SplitMix64(11)
    for _ in range(50):
        joint = build_joint(random_params(3, rng))
        assert holds_numeric(joint, H.H4, tol=1e-12)


def test_matched_outcome_params_satisfy_h2_h3():
    params = Model1Params(t=0.4, a0=0.2, a1=0.6, b0=0.1, b1=0.7, u0=0.1, u1=0.7)
    joint = build_joint(params)
    assert holds_numeric(joint, H.H2, tol=1e-12)
    assert holds_numeric(joint, H.H3, tol=1e-12)


def test_example_violates_h6():
    # b0 != b1, so the unexposed slice is covariate-dependent
    joint = build_joint(EXAMPLE_M1)
    assert not holds_numeric(joint, H.H6, tol=1e-9)


@pytest.mark.parametrize(
    "tol",
    [
        float("nan"),
        float("inf"),
        float("-inf"),
        # past the floats: each once passed, or escaped as OverflowError or
        # decimal.InvalidOperation
        pytest.param(Decimal("Infinity"), id="decimal-inf"),
        pytest.param(Decimal("1e400"), id="decimal-1e400"),
        pytest.param(Decimal("NaN"), id="decimal-nan"),
        pytest.param(10**400, id="int-10**400"),
    ],
)
def test_non_finite_tolerance_rejected(tol):
    # an infinite tolerance would accept H6 here, a NaN one reject anything
    with pytest.raises(ParameterError, match="finite"):
        holds_numeric(build_joint(EXAMPLE_M1), H.H6, tol=tol)
    with pytest.raises(ParameterError, match="finite"):
        holds_algebraic(EXAMPLE_M1, H.H6, tol=tol)


@pytest.mark.parametrize("tol", ["0.1", None, 1e-9 + 0j])
def test_non_real_tolerance_rejected(tol):
    # each once escaped as a TypeError from the comparison with zero
    with pytest.raises(ParameterError, match="real number"):
        holds_numeric(build_joint(EXAMPLE_M1), H.H1, tol)
    with pytest.raises(ParameterError, match="real number"):
        holds_algebraic(EXAMPLE_M1, H.H1, tol)


@pytest.mark.parametrize("tol", [True, False])
def test_bool_tolerance_rejected(tol):
    # True would pass as a tolerance of 1, which accepts H6 here
    with pytest.raises(ParameterError, match=f"tolerance must be a real number, got {tol}"):
        holds_numeric(build_joint(EXAMPLE_M1), H.H6, tol)
    with pytest.raises(ParameterError, match=f"tolerance must be a real number, got {tol}"):
        holds_algebraic(EXAMPLE_M1, H.H6, tol)


@pytest.mark.parametrize("bad", ["H1", None, 3, []])
def test_tests_reject_what_is_not_a_hypothesis(bad):
    # the numeric test once raised KeyError (TypeError for [])
    message = re.escape(f"{bad!r} is not a Hypothesis")
    exact = Model1Params(*[F(k, 10) for k in (4, 2, 6, 1, 7, 3, 9)])
    for params in (EXAMPLE_M1, exact):
        with pytest.raises(ParameterError, match=message):
            holds_numeric(build_joint(params), bad)
        with pytest.raises(ParameterError, match=message):
            holds_algebraic(params, bad)


# (X, Y, slice) of each hypothesis as keyword arguments of JointDistribution.prob
_PRODUCT_FORMS = {
    H.H1: ({"e": "e"}, {"d": 1}, {}),
    H.H2: ({"e": "e"}, {"d": 1}, {"c": 0}),
    H.H3: ({"e": "e"}, {"d": 1}, {"c": 1}),
    H.H4: ({"e": "e"}, {"c": 1}, {}),
    H.H5: ({"d": 1}, {"c": 1}, {}),
    H.H6: ({"d": 1}, {"c": 1}, {"e": "ebar"}),
    H.H7: ({"d": 1}, {"c": 1}, {"e": "e"}),
}


def _seeded_float_joints():
    rng = random.Random(4242)
    sampler = SplitMix64(4242)
    for model in (1, 2, 3):
        for _ in range(30):
            yield build_joint(random_params(model, sampler))
    for _ in range(150):
        # integer weights, about a third of them zero, scaled to sum to one
        weights = [rng.choice((0, rng.randint(1, 10**6), rng.randint(1, 10**6))) for _ in range(8)]
        if sum(weights) == 0:
            continue
        total = sum(weights)
        cells = [w / total for w in weights]
        if abs(sum(cells) - 1) <= 1e-12:
            yield JointDistribution(cells)


def test_float_product_test_is_the_prob_sums_bit_for_bit():
    # the residual from JointDistribution.prob sums is the exact threshold:
    # the test passes at tol = x and fails at the next float below it
    checked = degenerate = zero_cells = 0
    for joint in _seeded_float_joints():
        zero_cells += 0 in joint.p
        for h, (x, y, given) in _PRODUCT_FORMS.items():
            mass = joint.prob(**given)
            if mass == 0:
                with pytest.raises(DegenerateEventError):
                    holds_numeric(joint, h, 0.5)
                degenerate += 1
                continue
            q_xy = joint.prob(**given, **x, **y) / mass
            q_x = joint.prob(**given, **x) / mass
            q_y = joint.prob(**given, **y) / mass
            residual = abs(q_xy - q_x * q_y)
            assert holds_numeric(joint, h, residual)
            if residual > 0:
                assert not holds_numeric(joint, h, math.nextafter(residual, -math.inf))
            checked += 1
    assert checked > 1000 and degenerate > 0 and zero_cells > 50


def test_numeric_degenerate_slice_raises():
    params = Model1Params(t=1.0, a0=0.3, a1=0.6, b0=0.1, b1=0.7, u0=0.3, u1=0.9)
    with pytest.raises(DegenerateEventError):
        holds_numeric(build_joint(params), H.H2)  # C=0 slice has zero mass


def test_numeric_exact_equality():
    params = Model1Params(t=F(2, 5), a0=F(1, 5), a1=F(1, 5), b0=F(1, 10), b1=F(7, 10), u0=F(3, 10), u1=F(9, 10))
    assert holds_numeric(build_joint(params), H.H4, tol=0)
    assert not holds_numeric(build_joint(params), H.H6, tol=0)


# --- algebraic forms ------------------------------------------------------


def test_equal_exposure_rates_give_h4():
    params = Model1Params(t=0.5, a0=0.3, a1=0.3, b0=0.2, b1=0.8, u0=0.4, u1=0.9)
    assert holds_algebraic(params, H.H4)
    assert not holds_algebraic(params, H.H7)  # u0 != u1


def test_model2_equal_stratum_rates_give_h4():
    params = Model2Params(a=0.4, c0=0.35, c1=0.35, b0=0.2, b1=0.8, u0=0.4, u1=0.9)
    assert holds_algebraic(params, H.H4)


def test_model3_h4_vacuously_true():
    params = Model3Params(a=0.4, t=0.3, b0=0.2, b1=0.8, u0=0.4, u1=0.9)
    assert holds_algebraic(params, H.H4)


def test_model3_h5_swap_example():
    params = Model3Params(a=0.5, t=0.3, b0=0.2, b1=0.8, u0=0.8, u1=0.2)
    # 0.2*0.5 + 0.8*0.5 == 0.8*0.5 + 0.2*0.5
    assert holds_algebraic(params, H.H5)


def test_equal_unexposed_rates_give_h6():
    params = Model1Params(t=0.4, a0=0.2, a1=0.6, b0=0.25, b1=0.25, u0=0.3, u1=0.9)
    assert holds_algebraic(params, H.H6)
    assert not holds_algebraic(params, H.H2)


def test_algebraic_numeric_agreement_random():
    rng = SplitMix64(20260819)
    for model in (1, 2, 3):
        for _ in range(100):
            params = random_params(model, rng)
            joint = build_joint(params)
            for h in H:
                assert holds_algebraic(params, h, tol=1e-10) == holds_numeric(joint, h, tol=1e-10)


def test_algebraic_numeric_agreement_on_constrained_draws():
    # equality-substituted parameters make the hypotheses actually hold, so
    # the agreement is exercised on the "true" branch as well
    rng = SplitMix64(77)
    cases = [
        (1, hypothesis_set(H.H4)),
        (1, hypothesis_set(H.H6)),
        (1, hypothesis_set(H.H2, H.H3)),
        (2, hypothesis_set(H.H4)),
        (2, hypothesis_set(H.H7)),
        (3, hypothesis_set(H.H6, H.H7)),
    ]
    for model, hs in cases:
        for _ in range(25):
            params = impose(random_params(model, rng), hs, rng)
            joint = build_joint(params)
            for h in hs:
                assert holds_algebraic(params, h, tol=1e-10)
                assert holds_numeric(joint, h, tol=1e-10)


def _read_masses(model, joint):
    """{hypothesis: masses of the conditionals its algebraic form reads in
    ``model``}, taken from the joint's cells."""
    c = joint.p
    e0, e1, ebar0, ebar1 = c[0] + c[1], c[2] + c[3], c[4] + c[5], c[6] + c[7]
    strata = (e0 + ebar0, e1 + ebar1)
    return {
        H.H1: (),
        H.H2: (e0, ebar0),
        H.H3: (e1, ebar1),
        H.H4: strata if model == 1 else (),
        H.H5: strata if model in (1, 3) else (),
        H.H6: (ebar0, ebar1),
        H.H7: (e0, e1),
    }


def test_algebraic_numeric_agreement_on_the_boundary(boundary_grid):
    # the contract in the hypotheses docstring: wherever every conditional the
    # algebraic form reads has mass, both tests answer alike at tol 0, except
    # that Model 2's H5 raises where a C stratum is empty
    agreed = 0
    for model, params, joint in boundary_grid:
        for h, masses in _read_masses(model, joint).items():
            if not all(masses):
                continue
            numeric = holds_numeric(joint, h)
            try:
                algebraic = holds_algebraic(params, h)
            except DegenerateEventError:
                c = joint.p
                assert model == 2 and h is H.H5
                assert c[0] + c[1] + c[4] + c[5] == 0 or c[2] + c[3] + c[6] + c[7] == 0
                continue
            assert algebraic == numeric, (params, h)
            agreed += 1
    assert agreed == 97_280


# --- substitution plumbing ------------------------------------------------


def test_substitution_reps_outcome_classes():
    # H6 ties b1 (slot 4) to b0 (slot 3)
    assert substitution_reps(1, hypothesis_set(H.H6)) == (0, 1, 2, 3, 3, 5, 6)
    # H2+H3+H6 chain all four outcome slots to b0
    assert substitution_reps(1, hypothesis_set(H.H2, H.H3, H.H6)) == (0, 1, 2, 3, 3, 3, 3)
    # H7 alone ties u1 to u0
    assert substitution_reps(2, hypothesis_set(H.H7)) == (0, 1, 2, 3, 4, 5, 5)


def test_substitution_reps_h4():
    # exposure-side tie: slot 1 copies slot 2
    assert substitution_reps(1, hypothesis_set(H.H4)) == (0, 2, 2, 3, 4, 5, 6)
    assert substitution_reps(2, hypothesis_set(H.H4)) == (0, 2, 2, 3, 4, 5, 6)
    # vacuous for the independent model
    assert substitution_reps(3, hypothesis_set(H.H4)) == (0, 1, 2, 3, 4, 5, 6)


def _brute_force_reps(model, hypotheses):
    """Lowest slot of each connected class of the set's slot pairs; slot 2
    for the class {1, 2}; H4 ties nothing in Model 3."""
    pairs = {H.H2: (3, 5), H.H3: (4, 6), H.H6: (3, 4), H.H7: (5, 6)}
    if model != 3:
        pairs[H.H4] = (1, 2)
    edges = [pairs[h] for h in hypotheses if h in pairs]
    reps = []
    for j in range(7):
        reached, frontier = {j}, [j]
        while frontier:
            k = frontier.pop()
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    if x == k and y not in reached:
                        reached.add(y)
                        frontier.append(y)
        reps.append(2 if reached == {1, 2} else min(reached))
    return tuple(reps)


@pytest.mark.parametrize("model", [1, 2, 3])
def test_substitution_reps_match_connected_classes(model):
    members = list(Hypothesis)
    for mask in range(2 ** len(members)):
        hypotheses = hypothesis_set(*(h for i, h in enumerate(members) if mask >> i & 1))
        assert substitution_reps(model, hypotheses) == _brute_force_reps(model, hypotheses), (
            model,
            sorted(h.value for h in hypotheses),
        )


def test_equational_member():
    assert equational_member(hypothesis_set(H.H1, H.H6)) is H.H1
    assert equational_member(hypothesis_set(H.H5)) is H.H5
    assert equational_member(hypothesis_set(H.H6, H.H7)) is None
    with pytest.raises(ConstraintError):
        equational_member(hypothesis_set(H.H1, H.H5))


# --- random_params ---------------------------------------------------------


def test_random_params_deterministic_and_interior():
    a = random_params(1, SplitMix64(5))
    b = random_params(1, SplitMix64(5))
    assert a == b
    for value in a.to_dict().values():
        assert 0.01 <= value <= 0.99


def test_random_params_exact_mode():
    params = random_params(2, SplitMix64(5), exact=True)
    for value in (params.a, params.c0, params.c1, params.b0, params.b1, params.u0, params.u1):
        assert isinstance(value, F)
        assert F(1, 100) <= value <= F(99, 100)
        assert 1000 % value.denominator == 0  # thousandths grid
    assert params.is_exact


def test_random_params_model3_stream_positions():
    # model 3 consumes exactly six draws; a following draw must continue
    # the same stream without a gap
    rng = SplitMix64(123)
    random_params(3, rng)
    follow = rng.next_float()
    rng2 = SplitMix64(123)
    for _ in range(6):
        rng2.next_float()
    assert follow == rng2.next_float()


# --- impose ---------------------------------------------------------------


def test_impose_substitutes_exactly():
    rng = SplitMix64(9)
    out = impose(EXAMPLE_M1, hypothesis_set(H.H6), rng)
    assert out.b0 == out.b1 == EXAMPLE_M1.b0
    # untouched parameters pass through bit for bit
    assert (out.t, out.a0, out.a1, out.u0, out.u1) == (0.4, 0.2, 0.6, 0.3, 0.9)


def test_impose_h4_direction():
    out = impose(EXAMPLE_M1, hypothesis_set(H.H4), SplitMix64(9))
    assert out.a0 == out.a1 == EXAMPLE_M1.a1


def test_impose_model3_h1_identity():
    base = Model3Params(a=0.37, t=0.29, b0=0.15, b1=0.85, u0=0.44, u1=0.66)
    out = impose(base, hypothesis_set(H.H1), SplitMix64(13))
    lhs = out.u0 * (1 - out.t) + out.u1 * out.t
    rhs = out.b0 * (1 - out.t) + out.b1 * out.t
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_impose_h1_kills_bias():
    rng = SplitMix64(31)
    for model in (1, 2, 3):
        base = random_params(model, rng)
        out = impose(base, hypothesis_set(H.H1), rng)
        assert abs(confounding_bias(build_joint(out))) <= 1e-12


def test_impose_h1_exact_mode_is_perfect():
    rng = SplitMix64(31)
    base = random_params(1, rng, exact=True)
    out = impose(base, hypothesis_set(H.H1), rng)
    assert out.is_exact
    assert confounding_bias(build_joint(out)) == 0


def test_impose_h5_solves_marginal_independence():
    rng = SplitMix64(47)
    base = random_params(1, rng, exact=True)
    out = impose(base, hypothesis_set(H.H5), rng)
    assert holds_numeric(build_joint(out), H.H5, tol=0)


def test_impose_model2_no_confounding_stack():
    # u0=b0, u1=b1, c0=c1 forces zero bias downstream
    base = Model2Params(a=0.5, c0=0.2, c1=0.8, b0=0.15, b1=0.75, u0=0.4, u1=0.6)
    out = impose(base, hypothesis_set(H.H2, H.H3, H.H4), SplitMix64(3))
    assert out.u0 == out.b0
    assert out.u1 == out.b1
    assert out.c0 == out.c1
    assert abs(confounding_bias(build_joint(out))) <= 1e-15


def test_impose_rejects_h1_with_solved_slot_tied():
    rng = SplitMix64(1)
    with pytest.raises(ConstraintError):
        impose(EXAMPLE_M1, hypothesis_set(H.H1, H.H3), rng)  # H3 ties u1 to b1
    with pytest.raises(ConstraintError):
        impose(EXAMPLE_M1, hypothesis_set(H.H1, H.H7), rng)  # H7 ties u0 to u1
    with pytest.raises(ConstraintError):
        impose(EXAMPLE_M1, hypothesis_set(H.H1, H.H5), rng)


def test_impose_empty_set_returns_base():
    out = impose(EXAMPLE_M1, hypothesis_set(), SplitMix64(2))
    assert out == EXAMPLE_M1


def test_impose_preserves_model3_after_redraws():
    # H1 on model 3 occasionally needs redraws; results must stay valid
    rng = SplitMix64(99)
    for _ in range(50):
        base = random_params(3, rng)
        out = impose(base, hypothesis_set(H.H1), rng)
        assert isinstance(out, Model3Params)
        joint = build_joint(out)
        assert abs(standardized_proportion(joint) - observed_proportion(joint)) <= 1.0
        summary = summary_from_joint(joint)
        assert abs(summary.bias) <= 1e-12


@pytest.mark.parametrize("members", [{"H1"}, {H.H2, "H1"}, {1}])
def test_impose_rejects_members_that_are_not_hypotheses(members):
    # a name instead of a member would otherwise impose nothing
    bad = next(m for m in members if not isinstance(m, Hypothesis))
    with pytest.raises(ParameterError, match=f"{bad!r} is not a Hypothesis"):
        impose(EXAMPLE_M1, members, SplitMix64(3))
    with pytest.raises(ParameterError, match=f"{bad!r} is not a Hypothesis"):
        substitution_reps(1, members)


@pytest.mark.parametrize(
    "hypotheses", [None, 5, [[H.H4]], ([1],), ({},)], ids=["None", "int", "nested", "list-member", "dict-member"]
)
def test_impose_rejects_hypotheses_that_are_not_an_iterable_of_members(hypotheses):
    # each once escaped as a bare TypeError from frozenset()
    message = re.escape(f"hypotheses must be an iterable of Hypothesis members, got {hypotheses!r}")
    with pytest.raises(ParameterError, match=message):
        impose(EXAMPLE_M1, hypotheses, SplitMix64(3))
    with pytest.raises(ParameterError, match=message):
        substitution_reps(1, hypotheses)
    if type(hypotheses) is tuple:  # hypothesis_set's own arguments
        with pytest.raises(ParameterError, match=message):
            hypothesis_set(*hypotheses)


@pytest.mark.parametrize(
    "budget, message",
    [
        (-1, "budget must be nonnegative, got -1"),
        ("x", "budget must be an integer, got 'x'"),
        (2.5, "budget must be an integer, got 2.5"),
    ],
)
@pytest.mark.parametrize("hypotheses", [hypothesis_set(), hypothesis_set(H.H1), hypothesis_set(H.H6)])
def test_impose_rejects_bad_budget(budget, message, hypotheses):
    with pytest.raises(ParameterError, match=message):
        impose(EXAMPLE_M1, hypotheses, SplitMix64(4), budget=budget)


def test_impose_accepts_zero_budget():
    # zero redraws is a valid budget: the base itself is imposed
    out = impose(EXAMPLE_M1, hypothesis_set(H.H6), SplitMix64(5), budget=0)
    assert out.b0 == out.b1

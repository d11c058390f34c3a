"""Bit-level parity tests between the pure and compiled campaign kernels.

When the compiled kernel is not installed (a source checkout on PYTHONPATH),
the ``backends`` fixture (conftest.py) builds _ckernel.c with setup.py into a
temporary directory, so the parity tests run wherever a C compiler exists.
Each test that takes ``backends`` runs twice: on the compiled kernel as the
loader picks its clone and H1/H5 loop, and on the ``default_clone`` build
(conftest.py), which runs the other H1/H5 loop.
"""

import functools
import itertools
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import algebra_oracle as oracle
from confound_kit import CLAUSES, Conclusion, Hypothesis, TheoremClause, clause_lookup
from confound_kit._rng import _GOLDEN, sample_stream
from confound_kit.hypotheses import random_params, substitution_reps
from confound_kit.kernel import (
    BACKEND,
    EQ_H1,
    EQ_H5,
    EQ_NONE,
    IRRELEVANT,
    NO_CONFOUNDING,
    available_backends,
    run_campaign,
)
from confound_kit.theorems import _campaign_codes
from test_theorems import _false_clauses


UNIT_REP = (0, 1, 2, 3, 4, 5, 6)


@pytest.fixture(params=["compiled", "default clone"])
def build(request):
    """The compiled kernel a test runs on: the one the loader picks, or the
    default clone.  The parameter is this fixture's, not ``backends``': a
    parameter named ``backends`` would key conftest's session fixture too,
    which pytest would then set up again on each switch."""
    return request.param


@pytest.fixture
def backends(build, backends, default_clone):
    """conftest's backends, with the default-target build as "compiled" in
    the second run, so both H1/H5 loops, and on an AVX-512 host both clones
    of the free loop, give the pure bits."""
    if build == "compiled":
        return backends
    return {**backends, "compiled": default_clone}


def test_backend_selection_reports_something_sane():
    assert BACKEND in ("pure", "compiled")
    assert "pure" in available_backends()


def test_code_constants():
    assert (EQ_NONE, EQ_H1, EQ_H5) == (0, 1, 2)
    assert (IRRELEVANT, NO_CONFOUNDING) == (0, 1)


def _public_functions(module):
    return {name for name, value in vars(module).items() if callable(value) and not name.startswith("_")}


def test_backends_export_the_same_functions(backends):
    # a kernel function added to one backend only would leave the other
    # unable to serve the library
    assert _public_functions(backends["pure"]) == _public_functions(backends["compiled"])
    assert _public_functions(backends["pure"]) >= {"run_campaign", "grid_tally"}


# (label, model, conditions, conclusion) of clauses whose violations show
# each sample's draws: each solve in each model, and an equality beside it
_STREAM_CLAUSES = (
    ("model 1 H1 irrelevance", 1, (Hypothesis.H1,), IRRELEVANT),
    ("model 2 H1 irrelevance", 2, (Hypothesis.H1,), IRRELEVANT),
    ("model 3 H5 no confounding", 3, (Hypothesis.H5,), NO_CONFOUNDING),
    ("model 1 H1 H2 irrelevance", 1, (Hypothesis.H1, Hypothesis.H2), IRRELEVANT),
    ("model 1 H5 H3 irrelevance", 1, (Hypothesis.H5, Hypothesis.H3), IRRELEVANT),
    ("model 2 H5 H6 no confounding", 2, (Hypothesis.H5, Hypothesis.H6), NO_CONFOUNDING),
)


def test_grid_tally_continues_the_sample_stream(backends):
    # a one-sample campaign's violation is that of the Fraction route on
    # sample_stream(seed, index): its first attempt's draws and, when the
    # solve is rejected, the draws that follow them on the same stream, as
    # the exact campaign's numerators over 1000 with the equalities applied
    shown = redrawn = 0
    for label, model, conditions, conclusion in _STREAM_CLAUSES:
        conditions = frozenset(conditions)
        rep = substitution_reps(model, conditions)
        eq = EQ_H1 if Hypothesis.H1 in conditions else EQ_H5
        for seed in (0, 7, -3, 2**64 + 3, 2**64 - 1):
            for index in (0, 1, 2, 3, 2**64 - 1, 2**64, 2**64 + 1):
                rng = sample_stream(seed, index)
                params = oracle.impose(random_params(model, rng, exact=True), conditions, rng, budget=1000)
                gap = oracle.conclusion_gap(oracle.build_joint(params), conclusion == NO_CONFOUNDING)
                shown += gap != 0
                redrawn += backends["pure"].grid_tally(model, rep, eq, conclusion, index, 1, seed, 0)[3]
                for name, impl in backends.items():
                    failures, num, den, exhausted = impl.grid_tally(model, rep, eq, conclusion, index, 1, seed, 1000)
                    got = (failures, Fraction(num, den), exhausted)
                    assert got == (int(gap != 0), abs(gap), 0), (name, label, seed, index)
    # nearly every sample's draws show in its violation, and the first
    # attempt of some of them is rejected
    assert shown >= 200 and redrawn >= 20, (shown, redrawn)


def _cases(clauses):
    """(label, model, rep, eq, conclusion) of each clause's campaign."""
    for clause in clauses:
        yield (f"{clause.theorem}{clause.clause} model {clause.model} {clause.conclusion.value}", *_campaign_codes(clause))


def _free_cases():
    """The exact campaigns without an H1/H5 member: the 16 catalog clauses,
    then the false clauses with no conditions in each model under both
    conclusions."""
    clauses = [c for c in CLAUSES if _campaign_codes(c)[2] == EQ_NONE]
    assert len(clauses) == 16
    return _cases(clauses + [TheoremClause("X", "none", m, frozenset(), c) for m in (1, 2, 3) for c in Conclusion])


def _solved_cases():
    """The exact campaigns with an H1/H5 member: T2a, T4a and T5a, then
    every H1/H5 false clause of test_theorems."""
    clauses = [clause_lookup(*key) for key in (("T2", "a"), ("T4", "a"), ("T5", "a"))]
    clauses += [c for c in _false_clauses() if c.conditions]
    assert len(clauses) == 12
    return _cases(clauses)


# the false clauses that meet failing samples: all five without an H1/H5
# member but model 3's irrelevance, which holds by structure, and seven of
# the nine with one (not H1 or H5 irrelevance in model 3)
@pytest.mark.parametrize("cases, failing", [(_free_cases, 5), (_solved_cases, 7)], ids=["free", "solved"])
def test_grid_tally_parity(backends, cases, failing):
    # the compiled tally runs a clause without an H1/H5 member in 64- and
    # 128-bit integers; under H1 or H5 it solves and redraws in int64, keeps
    # the cells in int128 and the pairs in 320-bit limbs.  Both keep the
    # maximum in 320-bit limbs and compare maxima in 640 bits.  It must
    # return the pure kernel's unreduced pair.
    failed = set()
    for label, model, rep, eq, conclusion in cases():
        for seed in (0, 7, -3, 2**64 + 3):
            for start, count in ((0, 0), (0, 1), (5, 300), (2**64 - 1, 3)):
                expected = backends["pure"].grid_tally(model, rep, eq, conclusion, start, count, seed, 1000)
                for name, impl in backends.items():
                    got = impl.grid_tally(model, rep, eq, conclusion, start, count, seed, 1000)
                    assert got == expected, (name, label, seed, start, count)
                    assert all(type(v) is int for v in got)
                if count == 0:
                    assert expected == (0, 0, 1, 0)
                assert expected[3] == 0
                if expected[0]:
                    failed.add(label)
    assert len(failed) == failing, failed


def test_grid_tally_parity_on_many_violations(backends):
    # every sample fails, so the conclusion and the comparison of maxima
    # meet 20,000 nonzero violations: model 1 irrelevance in 128 bits, with
    # pairs of about 110 bits, and under model 1's H1 solve in 320-bit limbs,
    # with pairs past 300 bits
    for eq, bits in ((EQ_NONE, 100), (EQ_H1, 300)):
        expected = backends["pure"].grid_tally(1, UNIT_REP, eq, IRRELEVANT, 0, 20_000, 99, 1000)
        assert expected[0] > 19_900 and expected[2].bit_length() > bits
        assert backends["compiled"].grid_tally(1, UNIT_REP, eq, IRRELEVANT, 0, 20_000, 99, 1000) == expected


@pytest.mark.parametrize("eq", [EQ_NONE, EQ_H5])
def test_grid_tally_keeps_the_first_of_equal_maxima(backends, eq):
    # in model 2 the irrelevance gap is (b1 - b0)(c1 - c0), whatever a, u0
    # and u1 are; with b0 tied to c0 and b1 to c1 adjacent samples often
    # tie in value, their pairs scaled apart by a (and under H5 by the
    # solve's den).  A tie keeps the first pair, so the compiled kernel's
    # cross products must come out equal to the last bit, carries included:
    # pairs past 2**100 without a solve and past 2**280 under H5, both
    # compared in 640 bits.
    rep = (0, 1, 2, 1, 2, 5, 6)
    pure, compiled = backends["pure"].grid_tally, backends["compiled"].grid_tally
    singles = [pure(2, rep, eq, IRRELEVANT, i, 1, 3, 1000) for i in range(20_001)]
    ties = [
        i
        for i, (a, b) in enumerate(zip(singles, singles[1:]))
        if a[0] and a[1:3] != b[1:3] and Fraction(a[1], a[2]) == Fraction(b[1], b[2])
    ]
    assert len(ties) >= 20
    assert min(singles[i][2].bit_length() for i in ties) > (280 if eq == EQ_H5 else 100)
    for i in ties:
        expected = pure(2, rep, eq, IRRELEVANT, i, 2, 3, 1000)
        assert expected == (2, *singles[i][1:])
        assert compiled(2, rep, eq, IRRELEVANT, i, 2, 3, 1000) == expected, i


def test_grid_tally_chunks_merge_to_whole(backends):
    # [0, n) is [0, k) and [k, n) merged: failures and exhausted samples
    # add, and the maximum is the first chunk's pair unless the second's is
    # strictly larger; a budget of 0 exhausts the samples whose first solve
    # is rejected
    for label, model, rep, eq, conclusion in (*_free_cases(), *_solved_cases()):
        for name, impl in backends.items():
            for budget in (1000, 0):
                whole = impl.grid_tally(model, rep, eq, conclusion, 0, 150, 11, budget)
                for k in (0, 1, 64, 149, 150):
                    left = impl.grid_tally(model, rep, eq, conclusion, 0, k, 11, budget)
                    right = impl.grid_tally(model, rep, eq, conclusion, k, 150 - k, 11, budget)
                    larger = right if Fraction(right[1], right[2]) > Fraction(left[1], left[2]) else left
                    merged = (left[0] + right[0], *larger[1:3], left[3] + right[3])
                    assert merged == whole, (name, label, budget, k)
                if eq != EQ_NONE and budget == 0:
                    assert whole[3] > 0, (name, label)


def test_parity_across_full_catalog(backends):
    for clause in CLAUSES:
        model, rep, eq, conclusion = _campaign_codes(clause)
        args = (model, rep, eq, conclusion, 0, 500, 12345, 1e-10, 1000)
        pure = backends["pure"].run_campaign(*args)
        compiled = backends["compiled"].run_campaign(*args)
        assert pure == compiled, (clause.theorem, clause.clause)
        # bit-identical, not merely close
        assert pure[0].hex() == compiled[0].hex()


def test_parity_on_equational_paths(backends):
    for model in (1, 2, 3):
        for eq in (EQ_NONE, EQ_H1, EQ_H5):
            for conclusion in (IRRELEVANT, NO_CONFOUNDING):
                args = (model, UNIT_REP, eq, conclusion, 0, 300, 777, 1e-10, 1000)
                pure = backends["pure"].run_campaign(*args)
                assert pure == backends["compiled"].run_campaign(*args), args


def test_parity_on_wrapping_seeds_and_indices(backends):
    # the compiled kernel reduces seed and sample index modulo 2**64 as the
    # pure one does with & _MASK64; a budget of 0 exhausts on failed solves
    for args in (
        (1, UNIT_REP, EQ_H1, NO_CONFOUNDING, 0, 200, -5, 1e-10, 1000),
        (2, UNIT_REP, EQ_H5, IRRELEVANT, 2**62, 200, 2**64 - 1, 0.0, 0),
        (1, UNIT_REP, EQ_NONE, NO_CONFOUNDING, -50, 100, 9, 1e-10, 1000),
    ):
        assert backends["pure"].run_campaign(*args) == backends["compiled"].run_campaign(*args)


@functools.lru_cache(maxsize=None)
def _pure_campaign(*args):
    """The pure kernel's result, kept across the runs on both builds."""
    return available_backends()["pure"].run_campaign(*args)


def test_parity_across_batch_boundaries(backends):
    # the compiled kernel takes samples 64 at a time.  Under H1 or H5 it
    # runs them in up to 64 lanes, each stepping over every 64th sample,
    # and narrows the lanes once half of them have passed the count; or it
    # keeps the samples whose solve failed in a pool that later rounds top
    # up with fresh samples.  One of the two builds runs each.  Either way a
    # redraw can run in a later round than its sample's first attempt.
    # Counts and starts that cut batches anywhere, and budgets of 0, 1 and
    # 2 that exhaust samples mid-campaign and leave some in the pool at its
    # end, must still match the one-sample-at-a-time loop.  No catalog
    # clause has an H5 member, so H5 runs in each model.
    cases = [(c.theorem + c.clause, *_campaign_codes(c)) for c in CLAUSES]
    cases += [(f"model {m} H5", m, UNIT_REP, EQ_H5, c) for m in (1, 2, 3) for c in (IRRELEVANT, NO_CONFOUNDING)]
    runs = [
        (case, start, count, budget)
        for case in cases
        for start, count, budget in ((0, 1, 1000), (5, 63, 1000), (64, 65, 0), (100, 129, 1), (7, 640, 2))
    ]
    # campaigns long enough that lanes get unequal sample counts and the
    # narrowing fires again and again; start -70 is 2**64 - 70 modulo
    # 2**64, so the sample index wraps mid-campaign
    runs += [
        (case, start, count, budget)
        for case in _per_sample_cases()
        if case[3] != EQ_NONE
        for start in (0, -70)
        for count in (1000, 4097, 10_000)
        for budget in (0, 2, 1000)
    ]
    for (label, model, rep, eq, conclusion), start, count, budget in runs:
        args = (model, rep, eq, conclusion, start, count, 2024, 1e-10, budget)
        pure = _pure_campaign(*args)
        compiled = backends["compiled"].run_campaign(*args)
        assert pure == compiled, (label, start, count, budget)
        assert pure[0].hex() == compiled[0].hex()


def test_parity_over_every_rep(backends):
    # the compiled kernel draws only the slots that some position other than
    # the solved one reads, so every rep a hypothesis set gives, and raw reps
    # in which another position reads the solved slot's draw, run under each
    # eq code: a wrong mask of read slots changes some maximum here
    sets = [s for n in range(8) for s in itertools.combinations(Hypothesis, n)]
    reps = sorted({(m, substitution_reps(m, s)) for m in (1, 2, 3) for s in sets})
    assert len(sets) == 128 and len(reps) == 60
    reps += [
        (1, (0, 1, 2, 3, 4, 6, 6)),
        (2, (0, 1, 2, 3, 4, 5, 5)),
        (3, (0, 1, 2, 3, 4, 6, 6)),
        (3, (5, 1, 2, 3, 4, 5, 0)),
        (1, (6, 5, 6, 5, 6, 5, 6)),
    ]
    codes = itertools.product((EQ_NONE, EQ_H1, EQ_H5), (IRRELEVANT, NO_CONFOUNDING))
    tied = 0
    for (model, rep), (eq, conclusion) in itertools.product(reps, codes):
        solved = {EQ_H1: 6, EQ_H5: 5}.get(eq)
        if solved is not None and (rep[solved] != solved or rep.count(solved) > 1):
            # another position shares the solved slot's draw: both refuse
            tied += 1
            for impl in backends.values():
                with pytest.raises(ValueError, match="rep must not tie the slot eq solves for"):
                    impl.run_campaign(model, rep, eq, conclusion, 0, 1, 31, 1e-10, 1000)
            continue
        for start, count, budget in ((0, 1, 1000), (3, 130, 1000), (64, 65, 0), (9, 200, 2)):
            args = (model, rep, eq, conclusion, start, count, 31, 1e-10, budget)
            pure = backends["pure"].run_campaign(*args)
            compiled = backends["compiled"].run_campaign(*args)
            assert (compiled[0].hex(), compiled[1:]) == (pure[0].hex(), pure[1:]), args
    assert 0 < tied < len(reps) * 6


def _per_sample_cases():
    """(label, model, rep, eq, conclusion): every catalog clause, then the
    H1 and H5 solves in each model under both conclusions."""
    for clause in CLAUSES:
        yield (clause.theorem + clause.clause, *_campaign_codes(clause))
    for model in (1, 2, 3):
        for eq in (EQ_H1, EQ_H5):
            for conclusion in (IRRELEVANT, NO_CONFOUNDING):
                yield (f"model {model} eq {eq} conclusion {conclusion}", model, UNIT_REP, eq, conclusion)


def test_parity_sample_by_sample(backends):
    # one-sample campaigns expose each sample's violation, so a change to the
    # bits of a sample that is not a campaign's maximum fails here too
    pure, compiled = backends["pure"].run_campaign, backends["compiled"].run_campaign
    for label, model, rep, eq, conclusion in _per_sample_cases():
        for index in range(400):
            args = (model, rep, eq, conclusion, index, 1, 4242, 1e-10, 1000)
            expected, got = pure(*args), compiled(*args)
            assert (got[0].hex(), got[1:]) == (expected[0].hex(), expected[1:]), (label, index)


def test_parity_sample_by_sample_in_full_batches(backends):
    # one-sample campaigns never fill a batch, so the vectorized body of the
    # compiled loop is checked here: at tol = x_i and just below it, a full
    # 64-sample campaign must count exactly the samples whose one-sample
    # (pure) violation exceeds tol, which fails if any sample's bits differ
    pure, compiled = backends["pure"].run_campaign, backends["compiled"].run_campaign
    for label, model, rep, eq, conclusion in _per_sample_cases():
        for start in (0, 1000):
            xs = [pure(model, rep, eq, conclusion, i, 1, 4242, 0.0, 1000)[0] for i in range(start, start + 64)]
            for x in xs:
                for tol in (x, math.nextafter(x, -math.inf)):
                    got = compiled(model, rep, eq, conclusion, start, 64, 4242, tol, 1000)
                    expected = (max(xs), sum(v > tol for v in xs), 0)
                    assert (got[0].hex(), got[1:]) == (expected[0].hex(), expected[1:]), (label, start, tol)


def test_parity_sample_by_sample_across_pool_rounds(backends):
    # as above, over 200-sample campaigns of every H1 and H5 case: more than
    # three batches, so rejected samples are carried into rounds beside
    # fresh ones.  A pool that tallied a rejected attempt, or dropped or
    # repeated a carried sample, would count some threshold differently.
    pure, compiled = backends["pure"].run_campaign, backends["compiled"].run_campaign
    for label, model, rep, eq, conclusion in _per_sample_cases():
        if eq == EQ_NONE:
            continue
        xs = [pure(model, rep, eq, conclusion, i, 1, 4242, 0.0, 1000)[0] for i in range(200)]
        for x in xs:
            for tol in (x, math.nextafter(x, -math.inf)):
                got = compiled(model, rep, eq, conclusion, 0, 200, 4242, tol, 1000)
                expected = (max(xs), sum(v > tol for v in xs), 0)
                assert (got[0].hex(), got[1:]) == (expected[0].hex(), expected[1:]), (label, tol)


def test_parity_at_edge_tolerances(backends):
    # the compiled kernel tallies a batch at a time on the bit patterns of
    # |x| (see _ckernel.c); against a NaN, negative, signed-zero, infinite
    # or zero tolerance its failures and maximum could part from the pure
    # kernel's one-at-a-time tally, though verify_clause passes only the
    # last two.  Counts cut the 64-sample batch and the pool's rounds; the
    # budgets exhaust samples or keep them in the pool.
    pure, compiled = backends["pure"].run_campaign, backends["compiled"].run_campaign
    for label, model, rep, eq, conclusion in _per_sample_cases():
        for tol in (math.nan, -1.0, -0.0, math.inf, 0.0):
            for count in (1, 63, 64, 65, 200):
                for budget in (0, 1, 1000):
                    args = (model, rep, eq, conclusion, 0, count, 515, tol, budget)
                    expected, got = pure(*args), compiled(*args)
                    assert (got[0].hex(), got[1:]) == (expected[0].hex(), expected[1:]), (label, tol, count, budget)


_REP_ERROR = "rep must be 7 slot indices in 0..6"
_TIE_ERROR = "rep must not tie the slot eq solves for"


@pytest.mark.parametrize(
    "rep, eq, message",
    [
        ((0, 1, 2, 3, 4, 5), EQ_NONE, _REP_ERROR),
        ((0, 1, 2, 3, 4, 5, 6, 0), EQ_NONE, _REP_ERROR),
        ((0, 1, 2, 3, 4, 5, 7), EQ_NONE, _REP_ERROR),
        ((0, 1, 2, -1, 4, 5, 6), EQ_NONE, _REP_ERROR),
        # a tie of the solved slot in either direction: it takes another
        # slot's draw (rep[s] != s), or another position takes its draw
        ((0, 1, 2, 3, 4, 5, 5), EQ_H1, _TIE_ERROR),
        ((0, 1, 2, 3, 4, 5, 5), EQ_H5, _TIE_ERROR),
        ((0, 1, 2, 3, 4, 6, 6), EQ_H1, _TIE_ERROR),
        ((0, 1, 2, 3, 4, 6, 6), EQ_H5, _TIE_ERROR),
        ((6, 1, 2, 3, 4, 5, 6), EQ_H1, _TIE_ERROR),
        ((0, 1, 2, 5, 4, 5, 6), EQ_H5, _TIE_ERROR),
        ((0, 1, 2, 3, 6, 5, 6), EQ_H1, _TIE_ERROR),
    ],
)
def test_bad_rep_raises_in_both_backends(backends, rep, eq, message):
    for impl in backends.values():
        with pytest.raises(ValueError, match=message):
            impl.run_campaign(1, rep, eq, IRRELEVANT, 0, 10, 0, 1e-10, 1000)
    for impl in backends.values():
        with pytest.raises(ValueError, match=message):
            impl.grid_tally(1, rep, eq, IRRELEVANT, 0, 10, 0, 1000)
        # in a list too
        with pytest.raises(ValueError, match=message):
            impl.grid_tally(1, list(rep), eq, IRRELEVANT, 0, 10, 0, 1000)


_CODE_ERRORS = {
    "model": "model must be 1, 2 or 3",
    "eq": "eq must be EQ_NONE, EQ_H1 or EQ_H5",
    "conclusion": "conclusion must be IRRELEVANT or NO_CONFOUNDING",
    "budget": "budget must be non-negative",
}


@pytest.mark.parametrize(
    "name, value",
    [
        ("model", 0),
        ("model", 4),
        ("model", 2**64),
        # True == 1, yet it is no model number
        ("model", True),
        ("eq", 3),
        ("eq", -1),
        ("conclusion", 2),
        ("conclusion", -(2**70)),
        ("budget", -1),
        ("budget", -(2**64)),
        # a float equal to a valid code is not an int: the pure kernel ran
        # model=1.0 as model 1 while the compiled one raised TypeError
        ("model", 1.0),
        ("model", 2.0),
        ("eq", 1.0),
        ("conclusion", 0.0),
        ("budget", 1000.0),
    ],
)
def test_bad_codes_raise_in_both_backends(backends, name, value):
    # without these checks the backends ran an unknown code differently
    # (eq = 3 as EQ_NONE in one and as H5 in the other)
    args = {"model": 1, "eq": EQ_H1, "conclusion": IRRELEVANT, "budget": 1000, name: value}
    error, message = (TypeError, None) if isinstance(value, float) else (ValueError, _CODE_ERRORS[name])
    for impl in backends.values():
        with pytest.raises(error, match=message):
            impl.run_campaign(args["model"], UNIT_REP, args["eq"], args["conclusion"], 0, 10, 0, 1e-10, args["budget"])
    messages = set()
    for impl in backends.values():
        with pytest.raises(error, match=message) as raised:
            impl.grid_tally(args["model"], UNIT_REP, args["eq"], args["conclusion"], 0, 10, 0, args["budget"])
        messages.add(str(raised.value))
    assert len(messages) == 1, messages


# --- calling convention ------------------------------------------------------

# each entry point's arguments: both take (start, count, seed) at positions
# 4, 5 and 6, and read each of them by one rule
_ARGS = {
    "run_campaign": (1, UNIT_REP, EQ_H1, NO_CONFOUNDING, 0, 40, 7, 1e-10, 1000),
    "grid_tally": (1, UNIT_REP, EQ_H1, NO_CONFOUNDING, 0, 40, 7, 1000),
}
_START, _COUNT, _SEED = 4, 5, 6


def _with(args, position, value):
    return args[:position] + (value,) + args[position + 1 :]


def test_wrong_argument_count_raises_type_error(backends):
    for impl in backends.values():
        for name, args in _ARGS.items():
            for n in (0, len(args) - 1, len(args) + 1):
                with pytest.raises(TypeError):
                    getattr(impl, name)(*(args + args)[:n])
    # the compiled kernel reads its argument vector itself, with the
    # messages PyArg_ParseTuple gave
    compiled = backends["compiled"]
    with pytest.raises(TypeError, match=re.escape("run_campaign() takes exactly 9 arguments (8 given)")):
        compiled.run_campaign(*_ARGS["run_campaign"][:8])
    with pytest.raises(TypeError, match=re.escape("grid_tally() takes exactly 8 arguments (9 given)")):
        compiled.grid_tally(*_ARGS["grid_tally"], 0)


@pytest.mark.parametrize("value", [1.0, "1", None])
def test_non_integer_seed_start_or_count_raises_type_error(backends, value):
    # both backends convert with __index__, so both raise Python's own message
    message = f"'{type(value).__name__}' object cannot be interpreted as an integer"
    for impl in backends.values():
        for name, args in _ARGS.items():
            for position in (_START, _COUNT, _SEED):
                with pytest.raises(TypeError, match=re.escape(message)):
                    getattr(impl, name)(*_with(args, position, value))


def test_negative_count_raises_in_both_entry_points(backends):
    # run_campaign once returned a zero tally for a negative count, which
    # reads as a pass
    for impl in backends.values():
        for name, args in _ARGS.items():
            for count in (-1, -5, -(2**63)):
                with pytest.raises(ValueError, match="count must be non-negative"):
                    getattr(impl, name)(*_with(args, _COUNT, count))


@pytest.mark.parametrize("value", [2**64, 2**64 + 5, 2**100 + 3, -1, -(2**63), -(2**64) - 9])
def test_seeds_and_starts_wrap_modulo_2_64(backends, value):
    # a seed and a start of any size are reduced modulo 2**64 in both entry
    # points.  Sample i of a seed is sample i - value of the seed shifted by
    # value gammas, so the campaign from start value is the campaign from 0
    # of the shifted seed.
    pure, wrapped = backends["pure"], value % 2**64
    for name, args in _ARGS.items():
        expected = getattr(pure, name)
        shifted = _with(args, _SEED, (args[_SEED] + value * _GOLDEN) % 2**64)
        for impl in backends.values():
            run = getattr(impl, name)
            for position in (_START, _SEED):
                assert run(*_with(args, position, value)) == expected(*_with(args, position, wrapped)), (name, position)
            assert run(*_with(args, _START, value)) == expected(*shifted), name


class _Index:
    """An integer that is no int: it has __index__ alone."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize(
    "name, position, value, expected",
    [
        # a start of any size wraps modulo 2**64; a count outside the signed
        # 64-bit range raises OverflowError in both kernels (the pure kernel
        # once ran a count of 2**63 for ever)
        ("run_campaign", 4, 2**63, -(2**63)),
        ("run_campaign", 4, -(2**63) - 1, 2**63 - 1),
        ("run_campaign", 5, 2**63, OverflowError),
        ("run_campaign", 5, -(2**63) - 1, OverflowError),
        ("grid_tally", 5, 2**63, OverflowError),
        ("grid_tally", 5, -(2**63) - 1, OverflowError),
        # every start, count, seed, code and slot index takes an __index__
        # object as its int, where the pure kernel once raised TypeError or,
        # for eq and conclusion, ran another code
        ("run_campaign", 0, _Index(2), 2),
        ("run_campaign", 1, tuple(map(_Index, UNIT_REP)), UNIT_REP),
        ("run_campaign", 2, _Index(EQ_H5), EQ_H5),
        ("run_campaign", 3, _Index(IRRELEVANT), IRRELEVANT),
        ("run_campaign", 4, _Index(3), 3),
        ("run_campaign", 5, _Index(30), 30),
        ("run_campaign", 6, _Index(9), 9),
        ("run_campaign", 8, _Index(5), 5),
        ("grid_tally", 0, _Index(3), 3),
        ("grid_tally", 1, tuple(map(_Index, UNIT_REP)), UNIT_REP),
        ("grid_tally", 4, _Index(3), 3),
        ("grid_tally", 5, _Index(30), 30),
        ("grid_tally", 7, _Index(5), 5),
        # the tolerance is a real number, read as a double
        ("run_campaign", 7, _Index(0), 0.0),
        ("run_campaign", 7, Fraction(1, 10**12), 1e-12),
        ("run_campaign", 7, "0.1", TypeError),
        ("run_campaign", 1, None, TypeError),
        ("run_campaign", 1, (0, 1, 2, 3, 4, 5, 6.0), TypeError),
        ("grid_tally", 6, _Index(9), 9),
        ("grid_tally", 4, 2**63, -(2**63)),
        ("grid_tally", 4, -(2**63) - 1, 2**63 - 1),
    ],
)
def test_backends_read_their_arguments_alike(backends, name, position, value, expected):
    args = _ARGS[name]
    outcomes = []
    for impl in backends.values():
        try:
            outcomes.append(getattr(impl, name)(*_with(args, position, value)))
        except (TypeError, ValueError, OverflowError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[1:] == outcomes[:-1], outcomes
    if isinstance(expected, type):
        assert outcomes[0][0] is expected
    else:
        # what the plain number gives
        assert outcomes[0] == getattr(backends["pure"], name)(*_with(args, position, expected))


def test_large_budgets_agree_in_both_backends(backends):
    # no sample spends anywhere near 2**31 redraws, so every large budget
    # gives the budget-1000 result, also past the C kernel's integer types
    for model, eq in ((1, EQ_H1), (2, EQ_H5)):
        expected = backends["pure"].run_campaign(model, UNIT_REP, eq, NO_CONFOUNDING, 0, 200, 5, 1e-10, 1000)
        for budget in (2**31 - 1, 2**31, 2**63 - 1, 2**63, 2**100):
            for impl in backends.values():
                assert impl.run_campaign(model, UNIT_REP, eq, NO_CONFOUNDING, 0, 200, 5, 1e-10, budget) == expected, budget


def test_kernel_ab_prints_one_row_per_clause(default_clone):
    # a smoke run of the A/B script with one build on both sides, on float
    # campaigns and on exact ones (--exact): it loads the file twice under
    # two package names, finds the results equal and prints a row for every
    # catalog clause; its timings are not checked.  The script runs any
    # build alike, so one build is enough.
    path = default_clone.__file__
    script = Path(__file__).resolve().parent.parent / "tools" / "kernel_ab.py"
    for mode in ((), ("--exact",)):
        proc = subprocess.run(
            [sys.executable, str(script), path, path, "--rounds", "2", "--count", "100", *mode],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert f"-sample {'exact' if mode else 'float'} campaigns" in proc.stdout, lines
        header = next(i for i, line in enumerate(lines) if line.startswith("clause"))
        rows = [line.split() for line in lines[header + 1 :]]
        assert [row[0] for row in rows] == [c.theorem + c.clause for c in CLAUSES]
        assert all(len(row) == 7 and row[6].endswith("/2") for row in rows), rows


def test_chunks_merge_to_whole():
    # a campaign split at any point must reproduce the unsplit campaign
    rep = (0, 1, 2, 3, 4, 5, 6)
    whole = run_campaign(1, rep, EQ_H1, NO_CONFOUNDING, 0, 400, 99, 1e-10, 1000)
    for split in (1, 123, 200, 399):
        left = run_campaign(1, rep, EQ_H1, NO_CONFOUNDING, 0, split, 99, 1e-10, 1000)
        right = run_campaign(1, rep, EQ_H1, NO_CONFOUNDING, split, 400 - split, 99, 1e-10, 1000)
        assert max(left[0], right[0]) == whole[0]
        assert left[1] + right[1] == whole[1]
        assert left[2] + right[2] == whole[2]


def test_seed_wraps_at_64_bits():
    rep = (0, 1, 2, 3, 4, 5, 6)
    a = run_campaign(3, rep, EQ_NONE, IRRELEVANT, 0, 50, 7, 1e-10, 1000)
    b = run_campaign(3, rep, EQ_NONE, IRRELEVANT, 0, 50, 7 + (1 << 64), 1e-10, 1000)
    assert a == b


def test_campaign_returns_triple():
    rep = (0, 1, 2, 3, 4, 5, 6)
    result = run_campaign(3, rep, EQ_NONE, IRRELEVANT, 0, 10, 0, 1e-10, 1000)
    max_violation, failures, exhausted = result
    assert isinstance(max_violation, float)
    assert isinstance(failures, int)
    assert isinstance(exhausted, int)
    assert failures == 0 and exhausted == 0

"""Tests for the clause catalog, verification campaigns, and converse search."""

import copy
import json
import os
import pickle
import re
import threading
from decimal import Decimal
from fractions import Fraction

import pytest

import algebra_oracle as oracle
from confound_kit import (
    CLAUSES,
    Conclusion,
    ConfoundKitError,
    ConstraintError,
    DegenerateEventError,
    Hypothesis,
    Model1Params,
    Model3Params,
    ParameterError,
    build_joint,
    classify_covariate,
    clause_lookup,
    confounding_bias,
    falsify_converse,
    holds_algebraic,
    holds_numeric,
    impose,
    model_number,
    observed_proportion,
    random_params,
    standardized_proportion,
    summary_from_joint,
    verify_clause,
)
from confound_kit import kernel, theorems
from confound_kit.hypotheses import hypothesis_set
from confound_kit.theorems import TheoremClause, VerificationReport, _campaign_codes
from confound_kit._rng import SplitMix64, sample_stream

H = Hypothesis

# The full catalog: (theorem, clause, model, conclusion, conditions).
EXPECTED_CATALOG = {
    ("T1", "a"): (1, "irrelevant_factor", {"H4"}),
    ("T1", "b"): (1, "irrelevant_factor", {"H6"}),
    ("T1", "c"): (1, "irrelevant_factor", {"H7", "H2", "H3"}),
    ("T2", "a"): (1, "no_confounding", {"H1"}),
    ("T2", "b"): (1, "no_confounding", {"H6", "H2", "H3"}),
    ("T2", "c"): (1, "no_confounding", {"H2", "H6", "H7"}),
    ("T2", "d"): (1, "no_confounding", {"H3", "H6", "H7"}),
    ("T2", "e"): (1, "no_confounding", {"H2", "H3", "H4"}),
    ("T3", "a"): (2, "irrelevant_factor", {"H4"}),
    ("T3", "b"): (2, "irrelevant_factor", {"H6"}),
    ("T3", "c"): (2, "irrelevant_factor", {"H7", "H2", "H3"}),
    ("T4", "a"): (2, "no_confounding", {"H1"}),
    ("T4", "b"): (2, "no_confounding", {"H2", "H6", "H7"}),
    ("T4", "c"): (2, "no_confounding", {"H3", "H6", "H7"}),
    ("T4", "d"): (2, "no_confounding", {"H2", "H3", "H4"}),
    ("T5", "a"): (3, "no_confounding", {"H1"}),
    ("T5", "b"): (3, "no_confounding", {"H2", "H3"}),
    ("T5", "c"): (3, "no_confounding", {"H6", "H7", "H2"}),
    ("T5", "d"): (3, "no_confounding", {"H6", "H7", "H3"}),
}


def test_catalog_shape():
    assert len(CLAUSES) == 19
    seen = {}
    for clause in CLAUSES:
        key = (clause.theorem, clause.clause)
        assert key not in seen
        seen[key] = clause
        model, conclusion, names = EXPECTED_CATALOG[key]
        assert clause.model == model
        assert clause.conclusion.value == conclusion
        assert {h.value for h in clause.conditions} == names
    assert set(seen) == set(EXPECTED_CATALOG)


def test_clause_lookup_normalizes_case():
    clause = clause_lookup("t2", "E")
    assert clause.theorem == "T2"
    assert clause.clause == "e"
    with pytest.raises(ParameterError):
        clause_lookup("T6", "a")
    with pytest.raises(ParameterError):
        clause_lookup("T1", "d")
    with pytest.raises(ParameterError, match="no catalog entry 1 clause 'a'"):
        clause_lookup(1, "a")
    with pytest.raises(ParameterError, match="no catalog entry 'T1' clause 1"):
        clause_lookup("T1", 1)


def test_clause_to_dict_sorted_conditions():
    clause = clause_lookup("T2", "c")
    data = clause.to_dict()
    assert data == {
        "theorem": "T2",
        "clause": "c",
        "model": 1,
        "conditions": ["H2", "H6", "H7"],
        "conclusion": "no_confounding",
    }


# --- float campaigns ------------------------------------------------------


def test_all_clauses_pass_small_float_campaign():
    for clause in CLAUSES:
        report = verify_clause(clause, samples=300, seed=13)
        assert report.failures == 0, (clause.theorem, clause.clause)
        assert report.max_violation <= 1e-10
        assert report.samples == 300
        assert report.seed == 13
        assert report.passed


def test_pinned_campaign_bounds():
    # substitution-only condition sets leave no room for rounding drift
    assert verify_clause(clause_lookup("T1", "b"), samples=10_000, seed=5).max_violation <= 1e-12
    assert verify_clause(clause_lookup("T5", "b"), samples=10_000, seed=5).max_violation <= 1e-12
    # the equational clause accumulates a few ulps through the solve
    assert verify_clause(clause_lookup("T2", "a"), samples=10_000, seed=5).max_violation <= 1e-10


def test_default_float_tolerance_is_1e10():
    report = verify_clause(clause_lookup("T1", "a"), samples=100, seed=0)
    assert report.failures == 0
    strict = verify_clause(clause_lookup("T1", "a"), samples=100, seed=0, tol=0.0)
    # exact-zero tolerance in float mode counts rounding as failure
    assert strict.max_violation == report.max_violation


def test_campaign_reports_are_deterministic():
    a = verify_clause(clause_lookup("T2", "e"), samples=500, seed=99)
    b = verify_clause(clause_lookup("T2", "e"), samples=500, seed=99)
    assert a == b
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def _use_backend(monkeypatch, backends, name):
    monkeypatch.setattr(kernel, "_impl", backends[name])
    monkeypatch.setattr(kernel, "BACKEND", name)


def _record_chunks(monkeypatch):
    """(start, count, thread id) of every kernel call a campaign makes."""
    chunks = []
    run = kernel.run_campaign

    def recording(*args):
        chunks.append((*args[4:6], threading.get_ident()))
        return run(*args)

    monkeypatch.setattr(kernel, "run_campaign", recording)
    return chunks


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_thread_count_does_not_change_results(monkeypatch, backends):
    _usable_cpus(monkeypatch, 4)
    clause = clause_lookup("T4", "a")
    chunks = _record_chunks(monkeypatch)
    for backend in backends:
        _use_backend(monkeypatch, backends, backend)
        chunks.clear()
        one = verify_clause(clause, samples=2003, seed=21, threads=1)
        four = verify_clause(clause, samples=2003, seed=21, threads=4)
        assert one == four, backend
        # every campaign is one kernel call on the calling thread
        assert chunks == [(0, 2003, threading.get_ident())] * 2, backend


def test_thread_count_clamped_to_cpu_count(monkeypatch, backends):
    # a count far above the usable CPUs is accepted, and no thread starts
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a campaign started a thread"))
    _use_backend(monkeypatch, backends, "compiled")
    _usable_cpus(monkeypatch, 3)
    clause = clause_lookup("T4", "a")
    chunks = _record_chunks(monkeypatch)
    many = verify_clause(clause, samples=1000, seed=21, threads=10**6)
    assert verify_clause(clause, samples=1000, seed=21, threads=1) == many
    assert chunks == [(0, 1000, threading.get_ident())] * 2


def test_campaign_splits_only_when_chunks_repay_a_thread(monkeypatch, backends):
    # none does: the CLI default size and both sides of the old split
    # threshold of 2 x 131,072 samples run whole (the stub samples nothing)
    calls = []
    monkeypatch.setattr(kernel, "run_campaign", lambda *args: calls.append(args[4:6]) or (0.0, 0, 0))
    _use_backend(monkeypatch, backends, "compiled")
    _usable_cpus(monkeypatch, 2)
    clause = clause_lookup("T2", "e")
    sizes = (10_000, 2 * 131_072 - 1, 2 * 131_072)
    for samples in sizes:
        verify_clause(clause, samples=samples, seed=7, threads=2)
    assert calls == [(0, samples) for samples in sizes]


def test_float_campaign_is_one_kernel_call(monkeypatch):
    # a campaign large enough to fill two chunks of 131,072 samples, on four
    # usable CPUs: whatever the backend and thread count, the kernel runs it
    # whole in one call (the stub samples nothing)
    calls = []

    def recording(*args):
        calls.append(args[4:6])
        return 0.0, 0, 0

    monkeypatch.setattr(kernel, "run_campaign", recording)
    _usable_cpus(monkeypatch, 4)
    clause = clause_lookup("T2", "e")
    samples = 2 * 131_072 + 1
    for backend in ("compiled", "pure"):
        monkeypatch.setattr(kernel, "BACKEND", backend)
        for threads in ({}, {"threads": 1}, {"threads": 4}):
            calls.clear()
            report = verify_clause(clause, samples, seed=7, **threads)
            assert calls == [(0, samples)], (backend, threads)
            assert (report.samples, report.failures) == (samples, 0)


def _one_drop_mutants():
    """Each catalog clause with one of its conditions dropped."""
    return [
        TheoremClause(c.theorem, f"{c.clause}-{h.value}", c.model, c.conditions - {h}, c.conclusion)
        for c in CLAUSES
        for h in c.conditions
    ]


def test_every_one_drop_mutant_fails_a_small_campaign(monkeypatch, backends):
    # no catalog condition is redundant, and a false clause shows within
    # 100 samples in either mode on either kernel
    mutants = _one_drop_mutants()
    assert len(mutants) == 42
    for name, impl in backends.items():
        monkeypatch.setattr(kernel, "_impl", impl)
        for mutant in mutants:
            for exact in (False, True):
                assert not verify_clause(mutant, 100, seed=1, exact=exact).passed, (name, mutant, exact)


def test_single_sample_report():
    report = verify_clause(clause_lookup("T2", "e"), samples=1, seed=1)
    assert report.samples == 1
    assert report.failures == 0
    assert report.passed


def test_verify_rejects_bad_arguments():
    clause = clause_lookup("T1", "a")
    with pytest.raises(ParameterError):
        verify_clause(clause, samples=0)
    with pytest.raises(ParameterError):
        verify_clause(clause, samples=10, tol=-1.0)
    with pytest.raises(ParameterError):
        verify_clause(clause, samples=10, threads=0)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize(
    "threads, message",
    [(0, "thread count must be at least 1, got 0"), ("x", "thread count must be an integer, got 'x'")],
)
def test_verify_rejects_bad_thread_counts(exact, threads, message):
    with pytest.raises(ParameterError, match=message):
        verify_clause(clause_lookup("T1", "a"), 10, exact=exact, threads=threads)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize(
    "conditions, message",
    [
        # string conditions would otherwise run an unconstrained campaign
        (frozenset({"H4"}), "'H4' is not a Hypothesis"),
        *(
            (bad, f"hypotheses must be an iterable of Hypothesis members, got {bad!r}")
            for bad in (None, 4, [[H.H4]])
        ),
    ],
    ids=["names", "none", "int", "unhashable"],
)
def test_verify_rejects_conditions_that_are_not_hypotheses(exact, conditions, message):
    clause = TheoremClause("X", "bad", 1, conditions, Conclusion.IRRELEVANT_FACTOR)
    with pytest.raises(ParameterError, match=re.escape(message)):
        verify_clause(clause, 10, exact=exact)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("clause", ["T1a", None, ("T1", "a")])
def test_verify_rejects_what_is_not_a_clause(exact, clause):
    with pytest.raises(ParameterError, match=re.escape(f"{clause!r} is not a TheoremClause")):
        verify_clause(clause, 10, exact=exact)


class _Reached(Exception):
    pass


def _recording_backend(calls, impl=None):
    """A kernel backend that appends (name, args) of each call to ``calls``
    and forwards the call to ``impl``; with no ``impl`` it stops the call
    with _Reached, so a campaign that passes its checks fails fast."""

    def forward(name, args):
        calls.append((name, args))
        if impl is None:
            raise _Reached
        return getattr(impl, name)(*args)

    class Recording:
        def run_campaign(self, *args):
            return forward("run_campaign", args)

        def grid_tally(self, *args):
            return forward("grid_tally", args)

    return Recording()


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_verify_rejects_sample_counts_the_kernels_cannot_count(monkeypatch, exact, backend):
    # the compiled kernels count samples in a long long / Py_ssize_t, and
    # the pure kernel would start a campaign it never finishes; the check
    # comes before any kernel call, so no kernel call may be made
    calls = []
    monkeypatch.setattr(kernel, "_impl", _recording_backend(calls))
    monkeypatch.setattr(kernel, "BACKEND", backend)
    clause = clause_lookup("T1", "a")
    for samples in (2**63, 2**64 + 1, 99999999999999999999999):
        with pytest.raises(ParameterError, match=re.escape(f"samples must be below 2**63, got {samples}")):
            verify_clause(clause, samples, exact=exact, threads=1)
    assert calls == []
    # the largest count the kernels take reaches the kernel whole
    with pytest.raises(_Reached):
        verify_clause(clause, 2**63 - 1, exact=exact, threads=1)
    ((name, args),) = calls
    assert name == ("grid_tally" if exact else "run_campaign")
    assert 2**63 - 1 in args


# --- campaign set-up kept on the clause -------------------------------------


def _fresh(clause):
    """An equal clause no campaign has run on."""
    return TheoremClause(*(getattr(clause, name) for name in TheoremClause._fields))


def _seen_from_outside(clause):
    return (
        repr(clause),
        hash(clause),
        json.dumps(clause.to_dict()),
        pickle.dumps(clause),
        pickle.dumps(copy.copy(clause)),
        pickle.dumps(copy.deepcopy(clause)),
    )


@pytest.mark.parametrize("exact", [False, True])
def test_kept_campaign_codes_are_invisible(exact):
    for catalog_clause in CLAUSES:
        clause = _fresh(catalog_clause)
        before = _seen_from_outside(clause)
        assert clause._codes is None
        verify_clause(clause, 3, exact=exact)
        assert clause._codes == _campaign_codes(_fresh(clause))  # kept
        assert _seen_from_outside(clause) == before
        never_ran = _fresh(clause)
        assert clause == never_ran and never_ran == clause
        assert hash(clause) == hash(never_ran)
        for other in (copy.copy(clause), copy.deepcopy(clause), pickle.loads(pickle.dumps(clause))):
            assert other == clause and other._codes is None


@pytest.mark.parametrize(
    "clause, error",
    [
        (TheoremClause("X", "bogus", 1, hypothesis_set(H.H4), "bogus"), ParameterError),
        (TheoremClause("X", "model4", 4, hypothesis_set(H.H4), Conclusion.IRRELEVANT_FACTOR), ParameterError),
        (TheoremClause("X", "tied", 1, hypothesis_set(H.H1, H.H3), Conclusion.NO_CONFOUNDING), ConstraintError),
        (TheoremClause("X", "h1h5", 2, hypothesis_set(H.H1, H.H5), Conclusion.NO_CONFOUNDING), ConstraintError),
    ],
)
def test_a_clause_that_raises_keeps_nothing(clause, error):
    messages = set()
    for exact in (False, True, False, True):
        with pytest.raises(error) as raised:
            verify_clause(clause, 5, exact=exact)
        messages.add(str(raised.value))
        assert clause._codes is None and "_codes" not in vars(clause)
    assert len(messages) == 1


@pytest.mark.parametrize("exact", [False, True])
def test_a_clause_on_a_mutable_set_follows_its_set(exact):
    conditions = set()
    clause = TheoremClause("X", "mutable", 1, conditions, Conclusion.IRRELEVANT_FACTOR)
    # no conditions: standardizing changes the observed risk, so it fails
    assert verify_clause(clause, 50, 3, exact=exact).failures == 50
    conditions.add(H.H4)  # H4 gives irrelevance in model 1
    assert verify_clause(clause, 50, 3, exact=exact).failures == 0
    assert _campaign_codes(clause) == _campaign_codes(clause_lookup("T1", "a"))
    conditions.add(H.H1)
    assert _campaign_codes(clause)[2] == kernel.EQ_H1
    assert clause._codes is None


def _count_derivations(monkeypatch):
    derived = []
    derive = theorems._derive_codes

    def counting(clause):
        derived.append(clause)
        return derive(clause)

    monkeypatch.setattr(theorems, "_derive_codes", counting)
    return derived


def test_each_clause_is_set_up_once(monkeypatch):
    # two float and two exact sweeps over clauses no campaign has run on
    derived = _count_derivations(monkeypatch)
    clauses = [_fresh(c) for c in CLAUSES]
    for exact in (False, False, True, True):
        for clause in clauses:
            verify_clause(clause, 2, 9, exact=exact)
    assert len(derived) == 19
    assert [id(c) for c in derived] == [id(c) for c in clauses]


def test_kept_codes_hold_no_backend(monkeypatch, backends):
    # codes are kept under one backend; switching backends afterwards runs
    # the new one, with the same reports
    clauses = [_fresh(clause_lookup(*key)) for key in (("T1", "c"), ("T2", "a"), ("T4", "d"), ("T5", "a"))]
    derived = _count_derivations(monkeypatch)
    reports = {}
    for name in ("compiled", "pure", "compiled"):
        calls = []
        monkeypatch.setattr(kernel, "_impl", _recording_backend(calls, backends[name]))
        monkeypatch.setattr(kernel, "BACKEND", name)
        runs = [verify_clause(c, 40, 17, exact=exact) for c in clauses for exact in (False, True)]
        assert [call for call, _ in calls] == ["run_campaign", "grid_tally"] * len(clauses), name
        assert reports.setdefault(name, runs) == runs
    assert reports["pure"] == reports["compiled"]
    assert len(derived) == len(clauses)
    for clause in clauses:
        model, rep, eq, conclusion = clause._codes
        assert all(type(code) is int for code in (model, *rep, eq, conclusion))


@pytest.mark.parametrize("exact", [False, True])
def test_verify_rejects_non_integer_counts(exact):
    clause = clause_lookup("T1", "a")
    with pytest.raises(ParameterError, match="samples must be an integer, got 2.5"):
        verify_clause(clause, 2.5, exact=exact)
    with pytest.raises(ParameterError, match="seed must be an integer, got 'x'"):
        verify_clause(clause, 3, "x", exact=exact)
    if not exact:
        with pytest.raises(ParameterError, match="thread count must be an integer, got '2'"):
            verify_clause(clause, 3, threads="2")


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: verify_clause(clause_lookup("T1", "a"), True), "samples"),
        (lambda: verify_clause(clause_lookup("T1", "a"), True, exact=True), "samples"),
        (lambda: verify_clause(clause_lookup("T1", "a"), 3, seed=True), "seed"),
        (lambda: verify_clause(clause_lookup("T1", "a"), 3, threads=True), "thread count"),
        (
            lambda: impose(random_params(1, SplitMix64(0)), hypothesis_set(H.H1), SplitMix64(1), budget=True),
            "budget",
        ),
    ],
    ids=["verify-samples", "exact-samples", "seed", "threads", "impose-budget"],
)
def test_bool_counts_rejected(call, name):
    # operator.index(True) succeeds, so a bool would pass as the integer 1
    with pytest.raises(ParameterError, match=f"{name} must be an integer, got True"):
        call()


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
    # no conditions at all: standardizing changes the observed risk on
    # practically every draw, so every sample must fail at 1e-10
    false_clause = TheoremClause("T0", "z", 1, frozenset(), Conclusion.IRRELEVANT_FACTOR)
    assert verify_clause(false_clause, samples=1000, seed=1).failures == 1000
    with pytest.raises(ParameterError, match="finite"):
        verify_clause(false_clause, samples=1000, seed=1, tol=tol)


def test_bool_tolerance_rejected():
    # a positional True meant for exact once landed in tol as a tolerance of
    # 1, and this clause, which fails on every sample, reported passed
    false_clause = TheoremClause("X", "false", 1, frozenset(), Conclusion.IRRELEVANT_FACTOR)
    assert verify_clause(false_clause, 200, 0).failures == 200
    for tol in (True, False):
        with pytest.raises(ParameterError, match=f"tolerance must be a real number, got {tol}"):
            verify_clause(false_clause, 200, 0, tol)
        with pytest.raises(ParameterError, match=f"tolerance must be a real number, got {tol}"):
            verify_clause(false_clause, 20, 0, tol, exact=True)


# --- exact campaigns ------------------------------------------------------


def test_exact_campaigns_have_zero_violation():
    for key in (("T1", "a"), ("T2", "a"), ("T3", "c"), ("T4", "d"), ("T5", "b")):
        report = verify_clause(clause_lookup(*key), samples=20, seed=8, exact=True)
        assert report.failures == 0
        assert report.max_violation == 0
        assert isinstance(report.max_violation, (int, Fraction))


def _violation(clause, params):
    # the joint from the plain products and the conclusion as plain
    # quotients, not the library's expansion and proportions that the
    # campaign shares
    no_confounding = clause.conclusion is Conclusion.NO_CONFOUNDING
    return abs(oracle.conclusion_gap(oracle.build_joint(params), no_confounding))


def _fraction_campaign(clause, samples, seed):
    """The exact campaign on the joint -> measures route, in Fractions.

    The reference the integer campaign in ``theorems`` must reproduce.  It
    shares neither the solve, the cells nor the conclusion with the
    campaign: parameters are imposed through ``algebra_oracle``'s plain
    H1/H5 quotients, joints come from its products and violations from its
    ``conclusion_gap``."""
    max_violation = 0
    failures = 0
    for i in range(samples):
        rng = sample_stream(seed, i)
        base = random_params(clause.model, rng, exact=True)
        params = oracle.impose(base, clause.conditions, rng, budget=theorems._REDRAW_BUDGET)
        violation = _violation(clause, params)
        if violation > 0:
            failures += 1
        if violation > max_violation:
            max_violation = violation
    return max_violation, failures


def _false_clauses():
    # condition sets outside the catalog; apart from irrelevance in model 3,
    # which holds by structure, none implies its conclusion in general
    clauses = []
    for model in (1, 2, 3):
        for conclusion in Conclusion:
            clauses.append(TheoremClause("X", "none", model, frozenset(), conclusion))
            clauses.append(TheoremClause("X", "h5", model, hypothesis_set(H.H5), conclusion))
        clauses.append(TheoremClause("X", "h1", model, hypothesis_set(H.H1), Conclusion.IRRELEVANT_FACTOR))
    return clauses


@pytest.mark.parametrize("seed", [0, 7, -3, 2**64 + 3])
def test_exact_campaign_matches_fraction_route(monkeypatch, backends, seed):
    # the campaign draws on the selected kernel backend; run it on each
    for clause in CLAUSES + tuple(_false_clauses()):
        expected, failures = _fraction_campaign(clause, 30, seed)
        oracle = VerificationReport(clause, 30, expected, failures, seed)
        for name, impl in backends.items():
            monkeypatch.setattr(kernel, "_impl", impl)
            report = verify_clause(clause, samples=30, seed=seed, exact=True)
            assert (report.max_violation, report.failures) == (expected, failures), (name, clause)
            assert type(report.max_violation) is type(expected), (name, clause)
            assert json.dumps(report.to_dict()) == json.dumps(oracle.to_dict())
        if not clause.conditions and (clause.model, clause.conclusion) != (3, Conclusion.IRRELEVANT_FACTOR):
            # no conditions (and no structural irrelevance, as in model 3):
            # the campaign must see nonzero Fraction violations
            assert failures > 0 and isinstance(report.max_violation, Fraction), clause


def test_exact_h1_campaign_chunks_join_to_the_fraction_route(backends):
    # grid_tally over [0, k) and [k, 30) merges to the whole campaign, and
    # the whole is the Fraction route's.  Both clauses redraw H1 solves
    # inside chunks; at seed 24 the false one fails on 29 of the 30 samples,
    # its maximum on sample 19, so draws taken from the wrong sample, or a
    # merge that lost a chunk, change the report.
    false_clause = TheoremClause("X", "h1", 1, hypothesis_set(H.H1), Conclusion.IRRELEVANT_FACTOR)
    for clause in (clause_lookup("T2", "a"), false_clause):
        expected = _fraction_campaign(clause, 30, 24)
        codes = _campaign_codes(clause)
        for name, impl in backends.items():
            whole = impl.grid_tally(*codes, 24, 0, 30, theorems._REDRAW_BUDGET)
            assert ((Fraction(*whole[1:3]) if whole[1] else 0), whole[0], whole[3]) == (*expected, 0), (name, clause)
            for k in (0, 1, 7, 19, 20, 29, 30):
                left = impl.grid_tally(*codes, 24, 0, k, theorems._REDRAW_BUDGET)
                right = impl.grid_tally(*codes, 24, k, 30 - k, theorems._REDRAW_BUDGET)
                larger = right if Fraction(*right[1:3]) > Fraction(*left[1:3]) else left
                assert (left[0] + right[0], *larger[1:3], left[3] + right[3]) == whole, (name, clause, k)
    assert expected[1] == 29 and isinstance(expected[0], Fraction)


def test_exact_campaign_redraw_exhaustion_matches_impose(monkeypatch, backends):
    monkeypatch.setattr(theorems, "_REDRAW_BUDGET", 0)
    clause = clause_lookup("T2", "a")
    for seed in range(100):
        try:
            _fraction_campaign(clause, 1, seed)
        except ConstraintError as exc:
            expected = str(exc)
            break
    else:
        pytest.fail("no seed in 0..99 rejects the first H1 draw")
    assert expected == "no parameters satisfying H1 found within 0 redraws"
    for impl in backends.values():
        monkeypatch.setattr(kernel, "_impl", impl)
        with pytest.raises(ConstraintError) as raised:
            verify_clause(clause, samples=1, seed=seed, exact=True)
        assert str(raised.value) == expected


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_float_campaign_redraw_exhaustion_is_reported(monkeypatch, backends, backend):
    # with no redraws, each sample whose first H1 solve leaves [0, 1] runs
    # out of budget; impose on the same stream counts which
    monkeypatch.setattr(theorems, "_REDRAW_BUDGET", 0)
    _use_backend(monkeypatch, backends, backend)
    exhausted = 0
    for i in range(200):
        rng = sample_stream(5, i)
        try:
            impose(random_params(1, rng), hypothesis_set(H.H1), rng, budget=0)
        except ConstraintError:
            exhausted += 1
    assert 0 < exhausted < 200
    with pytest.raises(ConstraintError) as raised:
        verify_clause(clause_lookup("T2", "a"), samples=200, seed=5)
    assert str(raised.value) == f"{exhausted} samples exhausted the redraw budget solving H1 for T2(a)"


@pytest.mark.parametrize(
    "clause",
    [
        TheoremClause("X", "model4", 4, hypothesis_set(H.H4), Conclusion.IRRELEVANT_FACTOR),
        # True == 1 and 2.0 == 2, yet neither is a model number; the compiled
        # kernel would raise TypeError for 2.0 where the pure one ran model 2
        TheoremClause("X", "bool", True, hypothesis_set(H.H4), Conclusion.IRRELEVANT_FACTOR),
        TheoremClause("X", "float", 2.0, hypothesis_set(H.H4), Conclusion.IRRELEVANT_FACTOR),
        # H3 ties u1 to b1, so H1 cannot be solved for u1
        TheoremClause("X", "tied", 1, hypothesis_set(H.H1, H.H3), Conclusion.NO_CONFOUNDING),
        # H7 ties u1 to u0: u0 stays its class's representative, yet is tied
        TheoremClause("X", "h5h7", 1, hypothesis_set(H.H5, H.H7), Conclusion.NO_CONFOUNDING),
        TheoremClause("X", "h1h5", 2, hypothesis_set(H.H1, H.H5), Conclusion.NO_CONFOUNDING),
        # a conclusion's name is not a Conclusion: H4 does not give no
        # confounding, so a campaign that ran would report a false PASS
        TheoremClause("X", "name", 1, hypothesis_set(H.H4), "no_confounding"),
        TheoremClause("X", "bogus", 1, hypothesis_set(H.H4), "bogus"),
    ],
)
def test_float_and_exact_reject_the_same_clauses(clause):
    with pytest.raises(ConfoundKitError) as exact:
        verify_clause(clause, samples=100, exact=True)
    with pytest.raises(ConfoundKitError) as floating:
        verify_clause(clause, samples=100)
    assert type(floating.value) is type(exact.value)
    assert str(floating.value) == str(exact.value)
    rejected_input = clause.clause in ("model4", "bool", "float") or not isinstance(
        clause.conclusion, Conclusion
    )
    assert isinstance(exact.value, ParameterError if rejected_input else ConstraintError)


def test_exact_campaign_rejects_tied_solved_slot():
    # H3 ties u1 to b1, so H1 cannot be solved for u1
    clause = TheoremClause("X", "tied", 1, hypothesis_set(H.H1, H.H3), Conclusion.NO_CONFOUNDING)
    with pytest.raises(ConstraintError) as expected:
        _fraction_campaign(clause, 1, 0)
    with pytest.raises(ConstraintError) as raised:
        verify_clause(clause, samples=1, exact=True)
    assert str(raised.value) == str(expected.value)


# H1/H5 sets outside the catalog: the H5 solve in every model, and model 1's
# H1 solve with an equality substituted, each under both conclusions
_SOLVE_CLAUSES = tuple(
    TheoremClause("X", "solve", model, conditions, conclusion)
    for model, conditions in (
        *((m, hypothesis_set(H.H5)) for m in (1, 2, 3)),
        *((m, hypothesis_set(H.H5, H.H6)) for m in (1, 2, 3)),
        (1, hypothesis_set(H.H1, H.H4)),
    )
    for conclusion in Conclusion
)


@pytest.mark.parametrize("seed", [11, -1])
def test_float_kernel_replays_library_route(backends, seed):
    # sample i of a campaign on either kernel equals, bit for bit, the same
    # stream run through random_params -> impose -> the oracle's products ->
    # the oracle's conclusion
    for clause in CLAUSES + _SOLVE_CLAUSES:
        codes = _campaign_codes(clause)
        for i in (*range(40), 1000):
            rng = sample_stream(seed, i)
            base = random_params(clause.model, rng)
            params = impose(base, clause.conditions, rng, budget=theorems._REDRAW_BUDGET)
            expected = _violation(clause, params)
            for name, impl in backends.items():
                violation = impl.run_campaign(
                    *codes, i, 1, seed, theorems.CAMPAIGN_FLOAT_TOL, theorems._REDRAW_BUDGET
                )[0]
                assert violation == expected, (name, clause, i)


def test_exact_mode_rejects_nonzero_tolerance():
    with pytest.raises(ParameterError):
        verify_clause(clause_lookup("T1", "a"), samples=10, exact=True, tol=1e-9)


def test_report_to_dict_shape():
    report = verify_clause(clause_lookup("T5", "d"), samples=50, seed=3)
    data = report.to_dict()
    assert set(data) == {"clause", "samples", "max_violation", "failures", "seed"}
    assert data["clause"]["conditions"] == ["H3", "H6", "H7"]
    json.dumps(data)


# --- theorem 1 core identity ----------------------------------------------


def test_t1_conditions_zero_the_product():
    # under H4 or H6 the quantity (b0-b1)*(a0-a1) vanishes identically
    rng = SplitMix64(40)
    for key in (("T1", "a"), ("T1", "b")):
        clause = clause_lookup(*key)
        for _ in range(50):
            params = impose(random_params(1, rng), clause.conditions, rng)
            assert (params.b0 - params.b1) * (params.a0 - params.a1) == 0.0


# --- boundary fixtures -----------------------------------------------------


def test_boundary_params_satisfy_conclusions():
    # outcome probabilities at the extreme points 0 and 1
    base = Model1Params(t=0.5, a0=0.3, a1=0.8, b0=0.0, b1=1.0, u0=1.0, u1=0.0)
    out = impose(base, clause_lookup("T1", "b").conditions, SplitMix64(0))
    joint = build_joint(out)
    assert standardized_proportion(joint) == observed_proportion(joint)

    m3 = Model3Params(a=0.5, t=0.5, b0=0.0, b1=1.0, u0=0.0, u1=1.0)
    out3 = impose(m3, clause_lookup("T5", "b").conditions, SplitMix64(0))
    assert confounding_bias(build_joint(out3)) == 0.0


def test_catalog_holds_on_the_boundary_where_every_stratum_has_mass(boundary_grid):
    # the catalog's scope: at every grid point where all four (E, C) strata
    # have mass, a clause whose conditions hold numerically at tol 0 has its
    # exact conclusion hold.  A hypothesis whose slice is empty does not
    # hold.  The counterexamples at points with an empty stratum are pinned,
    # so a change to either reading shows.
    counterexamples = {}
    for model, params, joint in boundary_grid:
        held = set()
        for h in Hypothesis:
            try:
                if holds_numeric(joint, h):
                    held.add(h)
            except DegenerateEventError:
                pass
        c = joint.p
        all_strata = all((c[0] + c[1], c[2] + c[3], c[4] + c[5], c[6] + c[7]))
        try:
            report = classify_covariate(joint)
        except DegenerateEventError:  # P(E=ebar, C=j) = 0 < P(E=e, C=j)
            assert not all_strata, params
            continue
        concluded = {
            Conclusion.IRRELEVANT_FACTOR: report.standardized == report.observed,
            Conclusion.NO_CONFOUNDING: report.bias == 0,
        }
        for clause in CLAUSES:
            if clause.model == model and clause.conditions <= held and not concluded[clause.conclusion]:
                name = clause.theorem + clause.clause
                assert not all_strata, (name, params)
                counterexamples[name] = counterexamples.get(name, 0) + 1
    # the counts the theorems module docstring gives; every other clause has none
    assert counterexamples == {"T1c": 384, "T3c": 384, "T2c": 192, "T2d": 192, "T4b": 192, "T4c": 192}


# --- converse search -------------------------------------------------------


def _catalog_sets(model, conclusion):
    # {H1} restates bias zero, so it is no condition set for the converse
    return [
        c.conditions
        for c in theorems.CLAUSES
        if c.model == model
        and c.conclusion is conclusion
        and not (conclusion is Conclusion.NO_CONFOUNDING and c.conditions == hypothesis_set(H.H1))
    ]


def _assert_witness(witness, model, conclusion):
    """The conclusion holds exactly at ``witness`` and no catalog set does."""
    assert witness.is_exact and model_number(witness) == model
    assert all(type(getattr(witness, f)) is Fraction for f in witness._fields)
    # the joint from the plain Fraction products, not the library's expansion
    summary = summary_from_joint(oracle.build_joint(witness))
    if conclusion is Conclusion.NO_CONFOUNDING:
        assert summary.bias == 0
    else:
        assert summary.standardized == summary.observed
    for conditions in _catalog_sets(model, conclusion):
        assert not all(holds_algebraic(witness, h) for h in conditions), sorted(conditions, key=str)


@pytest.mark.parametrize(
    "model, conclusion",
    [
        (1, Conclusion.NO_CONFOUNDING),
        (2, Conclusion.NO_CONFOUNDING),
        (3, Conclusion.NO_CONFOUNDING),
        (3, Conclusion.IRRELEVANT_FACTOR),
    ],
)
def test_falsify_converse_builds_exact_witnesses(model, conclusion):
    witness = falsify_converse(model, conclusion)
    _assert_witness(witness, model, conclusion)
    assert falsify_converse(model, conclusion) == witness  # a fixed stream


def test_falsify_converse_no_confounding_witness_cancels():
    witness = falsify_converse(1, Conclusion.NO_CONFOUNDING)
    assert holds_algebraic(witness, H.H1)
    # bias vanishes by cancellation, not through H4 or H6
    assert (witness.b0 - witness.b1) * (witness.a0 - witness.a1) != 0


@pytest.mark.parametrize("model", [1, 2])
def test_falsify_converse_irrelevance_has_no_witness(model):
    # irrelevance holds exactly where H4 or H6 does, and both are catalog sets
    assert falsify_converse(model, Conclusion.IRRELEVANT_FACTOR) is None


@pytest.mark.parametrize(
    "dropped, model, tied",
    [(("T1", "b"), 1, ("b0", "b1")), (("T3", "a"), 2, ("c0", "c1"))],
)
def test_falsify_converse_finds_the_surface_a_catalog_misses(monkeypatch, dropped, model, tied):
    catalog = tuple(c for c in CLAUSES if (c.theorem, c.clause) != dropped)
    monkeypatch.setattr(theorems, "CLAUSES", catalog)
    witness = falsify_converse(model, Conclusion.IRRELEVANT_FACTOR)
    assert witness is not None
    assert getattr(witness, tied[0]) == getattr(witness, tied[1])
    _assert_witness(witness, model, Conclusion.IRRELEVANT_FACTOR)


def test_falsify_converse_returns_none_when_a_catalog_set_is_the_surface(monkeypatch):
    # model 3 irrelevance holds everywhere; a catalog set with no conditions
    # holds everywhere too, so it leaves no witness
    always = TheoremClause("X", "all", 3, frozenset(), Conclusion.IRRELEVANT_FACTOR)
    monkeypatch.setattr(theorems, "CLAUSES", CLAUSES + (always,))
    assert falsify_converse(3, Conclusion.IRRELEVANT_FACTOR) is None


def test_falsify_converse_coerces_conclusion():
    by_value = falsify_converse(1, "no_confounding")
    assert by_value is not None
    assert by_value == falsify_converse(1, Conclusion.NO_CONFOUNDING)
    for conclusion in ("no confounding", 1, None):
        with pytest.raises(ParameterError, match="unknown conclusion"):
            falsify_converse(1, conclusion)


@pytest.mark.parametrize("model", [4, True, 2.0])
def test_falsify_converse_rejects_unknown_model(model):
    with pytest.raises(ParameterError, match=f"unknown model number {model}"):
        falsify_converse(model, Conclusion.NO_CONFOUNDING)

"""Tests for the clause catalog, verification campaigns, and converse search."""

import concurrent.futures
import json
from fractions import Fraction

import pytest

import algebra_oracle as oracle
from confound_kit import (
    CLAUSES,
    Conclusion,
    ConfoundKitError,
    ConstraintError,
    Hypothesis,
    Model1Params,
    Model3Params,
    ParameterError,
    build_joint,
    clause_lookup,
    confounding_bias,
    falsify_converse,
    holds_algebraic,
    impose,
    observed_proportion,
    random_params,
    standardized_proportion,
    summary_from_joint,
    verify_clause,
)
from confound_kit import kernel, theorems
from confound_kit.hypotheses import hypothesis_set
from confound_kit.theorems import THREADS_ENV, TheoremClause, VerificationReport, _campaign_codes
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
    """(start, count) of every kernel call a campaign makes."""
    chunks = []
    run = kernel.run_campaign

    def recording(*args):
        chunks.append(args[4:6])
        return run(*args)

    monkeypatch.setattr(kernel, "run_campaign", recording)
    return chunks


def _recording_executor(created):
    """Stands in for ThreadPoolExecutor: records max_workers, maps serially."""

    class Recorder:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return Recorder


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(theorems.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_thread_count_does_not_change_results(monkeypatch, backends):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    _usable_cpus(monkeypatch, 4)
    monkeypatch.setattr(theorems, "_MIN_CHUNK", 500)
    clause = clause_lookup("T4", "a")
    expected_chunks = {
        # four real threads, the remainder on the last chunk
        "compiled": [(0, 500), (500, 500), (1000, 500), (1500, 503)],
        # the pure kernel holds the GIL, so it never splits
        "pure": [(0, 2003)],
    }
    chunks = _record_chunks(monkeypatch)
    for backend, expected in expected_chunks.items():
        _use_backend(monkeypatch, backends, backend)
        one = verify_clause(clause, samples=2003, seed=21, threads=1)
        chunks.clear()
        four = verify_clause(clause, samples=2003, seed=21, threads=4)
        assert one.max_violation == four.max_violation, backend
        assert one.failures == four.failures, backend
        assert sorted(chunks) == expected, backend


def test_thread_count_clamped_to_cpu_count(monkeypatch, backends):
    # no thread starts: the executor is replaced by a serial recorder
    created = []
    monkeypatch.delenv(THREADS_ENV, raising=False)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _recording_executor(created))
    monkeypatch.setattr(theorems, "_MIN_CHUNK", 100)
    _use_backend(monkeypatch, backends, "compiled")
    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 64)  # affinity wins, as under taskset
    clause = clause_lookup("T4", "a")
    many = verify_clause(clause, samples=1000, seed=21, threads=10**6)
    assert created == [3]
    monkeypatch.delattr(theorems.os, "sched_getaffinity", raising=False)  # no affinity call
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 3)
    assert verify_clause(clause, samples=1000, seed=21, threads=10**6) == many
    assert created == [3, 3]
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: None)  # unknown: one thread
    assert verify_clause(clause, samples=1000, seed=21, threads=10**6) == many
    assert created == [3, 3]
    assert verify_clause(clause, samples=1000, seed=21, threads=1) == many


def test_campaign_splits_only_when_chunks_repay_a_thread(monkeypatch, backends):
    created = []
    monkeypatch.delenv(THREADS_ENV, raising=False)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _recording_executor(created))
    _use_backend(monkeypatch, backends, "compiled")
    _usable_cpus(monkeypatch, 2)
    clause = clause_lookup("T2", "e")
    verify_clause(clause, samples=10_000, seed=7, threads=2)  # the CLI default size
    verify_clause(clause, samples=2 * theorems._MIN_CHUNK - 1, seed=7, threads=2)
    assert created == []
    verify_clause(clause, samples=2 * theorems._MIN_CHUNK, seed=7, threads=2)
    assert created == [2]


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
def test_verify_rejects_conditions_that_are_not_hypotheses(exact):
    # string conditions would otherwise run an unconstrained campaign
    clause = TheoremClause("X", "names", 1, frozenset({"H4"}), Conclusion.IRRELEVANT_FACTOR)
    with pytest.raises(ParameterError, match="'H4' is not a Hypothesis"):
        verify_clause(clause, 10, exact=exact)


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
    with pytest.raises(ParameterError, match="samples must be an integer"):
        falsify_converse(1, Conclusion.NO_CONFOUNDING, "3")


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_tolerance_rejected(tol):
    # no conditions at all: standardizing changes the observed risk on
    # practically every draw, so every sample must fail at 1e-10
    false_clause = TheoremClause("T0", "z", 1, frozenset(), Conclusion.IRRELEVANT_FACTOR)
    assert verify_clause(false_clause, samples=1000, seed=1).failures == 1000
    with pytest.raises(ParameterError, match="finite"):
        verify_clause(false_clause, samples=1000, seed=1, tol=tol)


# --- exact campaigns ------------------------------------------------------


def test_exact_campaigns_have_zero_violation():
    for key in (("T1", "a"), ("T2", "a"), ("T3", "c"), ("T4", "d"), ("T5", "b")):
        report = verify_clause(clause_lookup(*key), samples=20, seed=8, exact=True)
        assert report.failures == 0
        assert report.max_violation == 0
        assert isinstance(report.max_violation, (int, Fraction))


def _violation(clause, params):
    # the joint from the plain Fraction products, not the library's expansion
    # that the campaign shares
    summary = summary_from_joint(oracle.build_joint(params))
    if clause.conclusion is Conclusion.NO_CONFOUNDING:
        return abs(summary.bias)
    return abs(summary.standardized - summary.observed)


def _fraction_campaign(clause, samples, seed):
    """The exact campaign on the joint -> measures route, in Fractions.

    The reference the integer campaign in ``theorems`` must reproduce.  It
    shares neither the solve nor the cells with the campaign: parameters are
    imposed through ``algebra_oracle``'s plain H1/H5 quotients and joints
    come from its products."""
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
def test_exact_campaign_matches_fraction_route(seed):
    for clause in CLAUSES + tuple(_false_clauses()):
        expected, failures = _fraction_campaign(clause, 30, seed)
        report = verify_clause(clause, samples=30, seed=seed, exact=True)
        assert (report.max_violation, report.failures) == (expected, failures), clause
        assert type(report.max_violation) is type(expected), clause
        oracle = VerificationReport(clause, 30, expected, failures, seed)
        assert json.dumps(report.to_dict()) == json.dumps(oracle.to_dict())
        if not clause.conditions and (clause.model, clause.conclusion) != (3, Conclusion.IRRELEVANT_FACTOR):
            # no conditions (and no structural irrelevance, as in model 3):
            # the campaign must see nonzero Fraction violations
            assert failures > 0 and isinstance(report.max_violation, Fraction), clause


def test_exact_campaign_redraw_exhaustion_matches_impose(monkeypatch):
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
    with pytest.raises(ConstraintError) as raised:
        verify_clause(clause, samples=1, seed=seed, exact=True)
    assert str(raised.value) == expected


@pytest.mark.parametrize(
    "clause",
    [
        TheoremClause("X", "model4", 4, hypothesis_set(H.H4), Conclusion.IRRELEVANT_FACTOR),
        # H3 ties u1 to b1, so H1 cannot be solved for u1
        TheoremClause("X", "tied", 1, hypothesis_set(H.H1, H.H3), Conclusion.NO_CONFOUNDING),
        TheoremClause("X", "h1h5", 2, hypothesis_set(H.H1, H.H5), Conclusion.NO_CONFOUNDING),
    ],
)
def test_float_and_exact_reject_the_same_clauses(clause):
    with pytest.raises(ConfoundKitError) as exact:
        verify_clause(clause, samples=100, exact=True)
    with pytest.raises(ConfoundKitError) as floating:
        verify_clause(clause, samples=100)
    assert type(floating.value) is type(exact.value)
    assert str(floating.value) == str(exact.value)
    assert isinstance(exact.value, ParameterError if clause.model == 4 else ConstraintError)


def test_exact_campaign_rejects_tied_solved_slot():
    # H3 ties u1 to b1, so H1 cannot be solved for u1
    clause = TheoremClause("X", "tied", 1, hypothesis_set(H.H1, H.H3), Conclusion.NO_CONFOUNDING)
    with pytest.raises(ConstraintError) as expected:
        _fraction_campaign(clause, 1, 0)
    with pytest.raises(ConstraintError) as raised:
        verify_clause(clause, samples=1, exact=True)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("seed", [11, -1])
def test_float_kernel_replays_library_route(seed):
    # sample i of a kernel campaign against the same stream run through
    # random_params -> impose -> the oracle's products -> summary_from_joint
    for clause in CLAUSES:
        codes = _campaign_codes(clause)
        for i in (0, 1, 57, 1000):
            violation = kernel.run_campaign(
                *codes, i, 1, seed, theorems.CAMPAIGN_FLOAT_TOL, theorems._REDRAW_BUDGET
            )[0]
            rng = sample_stream(seed, i)
            base = random_params(clause.model, rng)
            params = impose(base, clause.conditions, rng, budget=theorems._REDRAW_BUDGET)
            assert abs(violation - _violation(clause, params)) <= 1e-12, (clause, i)


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


# --- converse search -------------------------------------------------------


def test_falsify_converse_model1_no_confounding():
    witness = falsify_converse(1, Conclusion.NO_CONFOUNDING, samples=200, seed=6)
    assert witness is not None
    joint = build_joint(witness)
    assert abs(confounding_bias(joint)) <= 1e-12
    # bias vanishes by cancellation, not through any catalog condition set
    assert (witness.b0 - witness.b1) * (witness.a0 - witness.a1) != 0.0
    for clause in CLAUSES:
        if clause.model == 1 and clause.conclusion is Conclusion.NO_CONFOUNDING:
            if clause.conditions == hypothesis_set(H.H1):
                continue  # definitionally satisfied whenever bias is zero
            assert not all(holds_algebraic(witness, h, tol=1e-9) for h in clause.conditions)


def test_falsify_converse_model3_irrelevance_is_universal():
    witness = falsify_converse(3, Conclusion.IRRELEVANT_FACTOR, samples=5, seed=0)
    assert witness is not None
    joint = build_joint(witness)
    assert abs(standardized_proportion(joint) - observed_proportion(joint)) <= 1e-12


def test_falsify_converse_model1_irrelevance_has_no_witness():
    # for this structure irrelevance occurs only through a catalog condition
    assert falsify_converse(1, Conclusion.IRRELEVANT_FACTOR, samples=300, seed=4) is None


def test_falsify_converse_coerces_conclusion():
    by_value = falsify_converse(1, "no_confounding", samples=200, seed=6)
    assert by_value is not None
    assert by_value == falsify_converse(1, Conclusion.NO_CONFOUNDING, samples=200, seed=6)
    for conclusion in ("no confounding", 1, None):
        with pytest.raises(ParameterError, match="unknown conclusion"):
            falsify_converse(1, conclusion, samples=10)


def test_falsify_converse_determinism():
    a = falsify_converse(2, Conclusion.NO_CONFOUNDING, samples=100, seed=12)
    b = falsify_converse(2, Conclusion.NO_CONFOUNDING, samples=100, seed=12)
    assert a == b

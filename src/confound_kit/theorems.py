"""Sufficient-condition catalog for irrelevance and no-confounding.

Five catalog entries (T1..T5) bundle, per model structure, the hypothesis
sets that each guarantee one of two conclusions:

* irrelevant_factor: the standardized proportion equals the observed one;
* no_confounding: the bias is zero.

Every entry is checked by brute force rather than symbolically: a campaign
draws interior parameters, imposes the clause's hypothesis set exactly (see
``hypotheses.impose``), expands the joint, and evaluates the conclusion's
defining quantity, whose magnitude is the sample's violation.  Float
campaigns run on the selected kernel backend and are reproducible bit for
bit from (seed, samples) alone, independent of chunking or thread count.
Exact campaigns rerun the same algorithm on the thousandths grid in integer
arithmetic over a common denominator, where a sound clause yields
violations of exactly zero.  Their H1/H5 solve is ``hypotheses._solve`` and
their cells are ``joint._cells``, the code ``impose`` and ``build_joint``
run, so the tests check them against a Fraction route that shares neither:
parameters imposed through the plain H1/H5 quotients and joints from the
plain ``Fraction`` products, both kept in the tests' oracle module, then
``summary_from_joint``.

``falsify_converse`` probes the other direction, searching for parameters
where a conclusion holds but none of the catalog's condition sets for it
does.  For the no-confounding conclusion the single-hypothesis set {H1} is
skipped there: H1 restates bias zero, so counting it would make the search
vacuously impossible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

from . import kernel
from ._rng import sample_stream
from .errors import ConstraintError, ParameterError
from .hypotheses import (
    Hypothesis,
    HypothesisSet,
    _U0,
    _U1,
    _exhausted,
    _solve,
    _solved_slot,
    equational_member,
    holds_algebraic,
    impose,
    random_params,
    substitution_reps,
)
from .joint import (
    ModelParams,
    _cells,
    _check_integer,
    _check_tolerance,
    _num_to_json,
    build_joint,
    params_type,
)
from .measures import summary_from_joint

THREADS_ENV = "CONFOUND_KIT_THREADS"
CAMPAIGN_FLOAT_TOL = 1e-10
_REDRAW_BUDGET = 1000
# Fewest samples a thread must get before a float campaign splits: with the
# compiled kernel, two threads broke even with one at 2 x 65,536 samples and
# gained 1.2-1.5x at 2 x 131,072 (2-vCPU VM); a 10,000-sample campaign ran
# 0.6x as fast on two.
_MIN_CHUNK = 65_536
_CONCLUSION_TOL = 1e-12


class Conclusion(Enum):
    IRRELEVANT_FACTOR = "irrelevant_factor"
    NO_CONFOUNDING = "no_confounding"


@dataclass(frozen=True)
class TheoremClause:
    theorem: str
    clause: str
    model: int
    conditions: HypothesisSet
    conclusion: Conclusion

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "clause": self.clause,
            "model": self.model,
            "conditions": sorted(h.value for h in self.conditions),
            "conclusion": self.conclusion.value,
        }


def _clause(theorem, clause, model, conclusion, *names):
    return TheoremClause(
        theorem=theorem,
        clause=clause,
        model=model,
        conditions=frozenset(Hypothesis(n) for n in names),
        conclusion=conclusion,
    )


_IRR = Conclusion.IRRELEVANT_FACTOR
_NOC = Conclusion.NO_CONFOUNDING

CLAUSES: Tuple[TheoremClause, ...] = (
    _clause("T1", "a", 1, _IRR, "H4"),
    _clause("T1", "b", 1, _IRR, "H6"),
    _clause("T1", "c", 1, _IRR, "H7", "H2", "H3"),
    _clause("T2", "a", 1, _NOC, "H1"),
    _clause("T2", "b", 1, _NOC, "H6", "H2", "H3"),
    _clause("T2", "c", 1, _NOC, "H2", "H6", "H7"),
    _clause("T2", "d", 1, _NOC, "H3", "H6", "H7"),
    _clause("T2", "e", 1, _NOC, "H2", "H3", "H4"),
    _clause("T3", "a", 2, _IRR, "H4"),
    _clause("T3", "b", 2, _IRR, "H6"),
    _clause("T3", "c", 2, _IRR, "H7", "H2", "H3"),
    _clause("T4", "a", 2, _NOC, "H1"),
    _clause("T4", "b", 2, _NOC, "H2", "H6", "H7"),
    _clause("T4", "c", 2, _NOC, "H3", "H6", "H7"),
    _clause("T4", "d", 2, _NOC, "H2", "H3", "H4"),
    _clause("T5", "a", 3, _NOC, "H1"),
    _clause("T5", "b", 3, _NOC, "H2", "H3"),
    _clause("T5", "c", 3, _NOC, "H6", "H7", "H2"),
    _clause("T5", "d", 3, _NOC, "H6", "H7", "H3"),
)

_BY_ID = {(c.theorem, c.clause): c for c in CLAUSES}


def clause_lookup(theorem: str, clause: str) -> TheoremClause:
    try:
        return _BY_ID[(theorem.upper(), clause.lower())]
    except (AttributeError, KeyError):
        raise ParameterError(
            f"no catalog entry {theorem!r} clause {clause!r}; "
            f"theorems are T1..T5 with clauses a..e"
        ) from None


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one clause campaign."""

    clause: TheoremClause
    samples: int
    max_violation: object
    failures: int
    seed: int

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "clause": self.clause.to_dict(),
            "samples": self.samples,
            "max_violation": _num_to_json(self.max_violation),
            "failures": self.failures,
            "seed": self.seed,
        }


def _thread_count(requested: Optional[int]) -> int:
    env = os.environ.get(THREADS_ENV)
    cap = None
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ParameterError(f"{THREADS_ENV}={env!r} is not an integer") from None
        if cap < 1:
            raise ParameterError(f"{THREADS_ENV} must be at least 1, got {cap}")
    threads = requested if requested is not None else (cap or 1)
    if cap is not None:
        threads = min(threads, cap)
    # more threads than usable CPUs cannot speed up the GIL-free kernel (under
    # taskset or a cpuset they would time-slice the CPUs allowed), and each
    # one is a real OS thread; reports do not depend on the count
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(threads, cpus)


def _campaign_codes(clause: TheoremClause) -> tuple:
    """(model, rep, eq, conclusion) kernel arguments for one clause.

    Raises what ``random_params`` and ``impose`` raise for a clause no
    campaign can run: an unknown model, H1 together with H5, or an H1/H5
    solve for a slot an equality already ties.
    """
    params_type(clause.model)
    rep = substitution_reps(clause.model, clause.conditions)
    eq_member = equational_member(clause.conditions)
    eq = kernel.EQ_NONE
    if eq_member is not None:
        _solved_slot(clause.model, rep, eq_member)
        eq = kernel.EQ_H1 if eq_member is Hypothesis.H1 else kernel.EQ_H5
    conclusion = (
        kernel.NO_CONFOUNDING
        if clause.conclusion is Conclusion.NO_CONFOUNDING
        else kernel.IRRELEVANT
    )
    return clause.model, rep, eq, conclusion


def _float_campaign(clause: TheoremClause, samples, seed, tol, threads):
    model, rep, eq, conclusion = _campaign_codes(clause)

    def chunk(start, count):
        return kernel.run_campaign(
            model, rep, eq, conclusion, start, count, seed, tol, _REDRAW_BUDGET
        )

    # the pure kernel holds the GIL, so threads there only add overhead
    chunks = 1 if kernel.BACKEND == "pure" else max(1, min(threads, samples // _MIN_CHUNK))
    if chunks == 1:
        results = [chunk(0, samples)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only here: it loads logging

        size = samples // chunks
        bounds = [
            (t * size, size + (samples - chunks * size if t == chunks - 1 else 0))
            for t in range(chunks)
        ]
        with ThreadPoolExecutor(max_workers=chunks) as pool:
            results = list(pool.map(lambda se: chunk(*se), bounds))
    max_violation = max(r[0] for r in results)
    failures = sum(r[1] for r in results)
    exhausted = sum(r[2] for r in results)
    return max_violation, failures, exhausted


_GRID = 1000  # exact draws are numerators over this denominator


def _exact_campaign(clause: TheoremClause, samples, seed):
    """(max_violation, failures) of an exact campaign, in integer arithmetic.

    Draws match ``random_params(exact=True)`` and ``impose`` draw for draw,
    and the solve and the cells are theirs (``hypotheses._solve``,
    ``joint._cells``).  Slot values are numerators over _GRID; an H1/H5
    solve gives its slot as num/den, and every slot is then scaled to the
    common denominator q = _GRID * den.  Joint cells are integers over q**3
    and each violation is an unreduced pair |num|/den, so the only Fraction
    built is the reported maximum (int 0 when every violation is zero).
    """
    model, rep, eq, conclusion = _campaign_codes(clause)
    eq_member, solved = (Hypothesis.H1, _U1) if eq == kernel.EQ_H1 else (Hypothesis.H5, _U0)
    draw_slots = (0, 1, 3, 4, 5, 6) if model == 3 else (0, 1, 2, 3, 4, 5, 6)
    irrelevant = conclusion == kernel.IRRELEVANT
    n = [0] * 7
    max_num, max_den = 0, 1
    failures = 0
    for i in range(samples):
        rng = sample_stream(seed, i)
        for _ in range(_REDRAW_BUDGET + 1):
            for j in draw_slots:
                n[j] = 10 + rng.next_u64() % 981
            x = [n[r] for r in rep]
            if eq == kernel.EQ_NONE:
                q = _GRID
                break
            num, den = _solve(model, eq_member, x, _GRID)
            if den and 0 <= num <= den:
                x = [v * den for v in x]
                x[solved] = num * _GRID
                q = _GRID * den
                break
        else:
            raise _exhausted(eq_member, _REDRAW_BUDGET)
        p0, p1, p2, p3, p4, p5, p6, p7 = _cells(model, x, q)
        pe = p0 + p1 + p2 + p3
        pu = p4 + p5 + p6 + p7
        if pe + pu != q * q * q:
            raise ParameterError(f"exact cell weights sum to {Fraction(pe + pu, q**3)}, not 1")
        # Every drawn slot lies strictly inside (0, 1) and the solved slot
        # enters no margin, so P(E=e), P(E=ebar) and all four (E, C) strata
        # are positive: no measure is undefined and no stratum is skipped.
        if irrelevant:
            stratum0, stratum1 = p4 + p5, p6 + p7
            num = (p5 * (p0 + p1) * stratum1 + p7 * (p2 + p3) * stratum0) * pu - (
                p5 + p7
            ) * pe * stratum0 * stratum1
            den = pe * pu * stratum0 * stratum1
        else:
            num = (p1 + p3) * pu - (p5 + p7) * pe
            den = pe * pu
        if num:
            failures += 1  # exact mode compares at tol = 0
            if num < 0:
                num = -num
            if num * max_den > max_num * den:
                max_num, max_den = num, den
    return (Fraction(max_num, max_den) if max_num else 0), failures


def verify_clause(
    clause: TheoremClause,
    samples: int,
    seed: int = 0,
    tol=None,
    *,
    exact: bool = False,
    threads: Optional[int] = None,
) -> VerificationReport:
    """Campaign-check one clause: impose its conditions, measure its conclusion.

    ``tol`` defaults to 1e-10 in float mode and must be 0 in exact mode; a
    sample fails when its violation exceeds it.  Float campaigns may be chunked
    over up to ``threads`` workers without changing the report.  The count is
    an upper bound: the CONFOUND_KIT_THREADS environment variable supplies the
    default and caps it, as does the number of CPUs this process may run on.
    A campaign splits only into chunks of at least ``_MIN_CHUNK`` samples, so
    smaller ones, and every campaign on the pure kernel, run on the calling
    thread.
    """
    if type(samples) is not int or type(seed) is not int:
        _check_integer("samples", samples)
        _check_integer("seed", seed)
    if samples < 1:
        raise ParameterError(f"samples must be positive, got {samples!r}")
    if tol is None:
        tol = 0 if exact else CAMPAIGN_FLOAT_TOL
    _check_tolerance(tol)
    if exact and tol != 0:
        raise ParameterError("exact campaigns compare exactly; tol must be 0")
    if threads is not None:
        _check_integer("thread count", threads)
        if threads < 1:
            raise ParameterError(f"thread count must be at least 1, got {threads}")
    if exact:
        max_violation, failures = _exact_campaign(clause, samples, seed)
    else:
        threads = _thread_count(threads)
        max_violation, failures, exhausted = _float_campaign(
            clause, samples, seed, float(tol), threads
        )
        if exhausted:
            eq_member = equational_member(clause.conditions)
            raise ConstraintError(
                f"{exhausted} samples exhausted the redraw budget solving "
                f"{eq_member.value if eq_member else 'the constraints'} "
                f"for {clause.theorem}({clause.clause})"
            )
    return VerificationReport(
        clause=clause,
        samples=samples,
        max_violation=max_violation,
        failures=failures,
        seed=seed,
    )


def falsify_converse(
    model: int,
    conclusion: Conclusion,
    samples: int,
    seed: int = 0,
    tol: float = 1e-9,
) -> Optional[ModelParams]:
    """Search for parameters where ``conclusion`` holds but no catalog
    condition set for (model, conclusion) does.

    Returns the first witness found, or None after ``samples`` draws; both
    are meaningful results (a None under a large budget is evidence the
    conditions are close to necessary).  Condition sets are tested
    algebraically within ``tol``.  For no_confounding the {H1} set is
    excluded as a restatement of the conclusion itself, and witnesses are
    constructed on the bias-zero surface directly; for irrelevant_factor
    unconstrained draws are screened for the conclusion instead.
    """
    _check_integer("samples", samples)
    _check_integer("seed", seed)
    if samples < 1:
        raise ParameterError(f"samples must be positive, got {samples!r}")
    try:
        conclusion = Conclusion(conclusion)
    except ValueError:
        raise ParameterError(
            f"unknown conclusion {conclusion!r}; expected 'irrelevant_factor' or 'no_confounding'"
        ) from None
    condition_sets = [
        c.conditions
        for c in CLAUSES
        if c.model == model
        and c.conclusion is conclusion
        and not (
            conclusion is Conclusion.NO_CONFOUNDING
            and c.conditions == frozenset({Hypothesis.H1})
        )
    ]
    for i in range(samples):
        rng = sample_stream(seed, i)
        if conclusion is Conclusion.NO_CONFOUNDING:
            base = random_params(model, rng)
            try:
                params = impose(base, frozenset({Hypothesis.H1}), rng)
            except ConstraintError:
                continue
        else:
            params = random_params(model, rng)
        summary = summary_from_joint(build_joint(params))
        if conclusion is Conclusion.NO_CONFOUNDING:
            achieved = abs(summary.bias) <= _CONCLUSION_TOL
        else:
            achieved = abs(summary.standardized - summary.observed) <= _CONCLUSION_TOL
        if not achieved:
            continue
        if any(
            all(holds_algebraic(params, h, tol) for h in conditions)
            for conditions in condition_sets
        ):
            continue
        return params
    return None

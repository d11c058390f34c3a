"""Sufficient-condition catalog for irrelevance and no-confounding.

Five catalog entries (T1..T5) bundle, per model structure, the hypothesis
sets that each guarantee one of two conclusions:

* irrelevant_factor: the standardized proportion equals the observed one;
* no_confounding: the bias is zero.

Every entry is checked by brute force rather than symbolically: a campaign
draws interior parameters, imposes the clause's hypothesis set exactly (see
``hypotheses.impose``), expands the joint, and evaluates the conclusion's
defining quantity, whose magnitude is the sample's violation.  Float
campaigns are reproducible bit for bit from (seed, samples) alone.  Exact
campaigns rerun the same algorithm on the thousandths grid, where a sound
clause yields violations of exactly zero, in integer arithmetic over a
common denominator; their draws are the stream ``random_params(exact=True)``
reads.  Every campaign runs whole, on the calling thread, in one call to the
selected backend, ``kernel._impl``: ``run_campaign`` in float mode,
``grid_tally`` in exact mode, both called the same way.  ``verify_clause``
passes the clause's kept codes (``_campaign_codes``) straight to it, with no
Python frame between them, then (start, count, seed) = (0, samples, seed)
and the redraw budget.  It raises one ``ConstraintError`` for samples that
exhausted the budget, in either mode, and turns an exact campaign's
unreduced maximum into the report's ``Fraction`` (int 0 when every
violation is zero).  The pure kernel tallies in Python integers, the
compiled one in fixed-width integers.  The pure kernel's H1/H5 solve is
``hypotheses._solve``, its cells are ``joint._cells`` and its conclusions
the proportions of ``joint._float_proportions`` and ``joint._exact_pairs``,
the code ``impose``, ``build_joint`` and ``classify_covariate`` run, so
the tests check campaigns against a route that shares none of this code:
draws from ``sample_stream``, parameters imposed through the plain H1/H5
quotients, joints from the plain products and the conclusion as plain
quotients, all kept in the tests' oracle module.

A clause, and a campaign's PASS, speak about the open box, where all four
(E, C) strata have positive mass; campaigns draw strictly inside it.  On
its boundary the reading matters.  Read a hypothesis on the joint
(``holds_numeric`` at tol 0, where an empty slice holds nothing): on the
grid of every exact parameter set with slots in {0, 1/3, 1/2, 1}, each
clause's conclusion holds wherever its conditions do and the four strata
have mass, but six clauses fail at points with an empty stratum: T1c and
T3c at 384 points each, T2c, T2d, T4b and T4c at 192 each.  Read through
``holds_algebraic``, no clause fails on that grid.

The catalog gives sufficient conditions only.  On the open unit box the
conclusions are decided exactly (``_VANISHING_FACTORS``): irrelevance holds
where H4 or H6 does in models 1 and 2 and everywhere in model 3, no
confounding where H1 does.  ``falsify_converse`` builds from that an exact
point where a conclusion holds but none of the catalog's condition sets for
it does, or returns None.  For no_confounding the set {H1} is skipped there:
it restates bias zero, so counting it would leave no witness anywhere.

Importing this module loads ``hypotheses``, ``joint`` and ``kernel`` with
the kernel backend it selects.  ``measures`` loads on the first
``falsify_converse`` call, its only user here, so a campaign never loads it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

from . import kernel
from ._rng import SplitMix64
from .errors import ConstraintError, ParameterError
from .hypotheses import (
    Hypothesis,
    _REDRAW_BUDGET,
    _frozen,
    _solved_slot,
    equational_member,
    holds_algebraic,
    impose,
    random_params,
    substitution_reps,
)
from .joint import (
    ModelParams,
    _Frozen,
    _check_integer,
    _check_tolerance,
    _num_to_json,
    build_joint,
    params_type,
)

CAMPAIGN_FLOAT_TOL = 1e-10
# Samples a campaign may have: both kernels take a count in [0, 2**63), a
# signed 64-bit value.
_SAMPLES_LIMIT = 2**63


class Conclusion(Enum):
    IRRELEVANT_FACTOR = "irrelevant_factor"
    NO_CONFOUNDING = "no_confounding"


class TheoremClause(_Frozen):
    """One catalog clause: a hypothesis set that guarantees a conclusion in a model.

    ``_codes`` keeps the clause's campaign set-up, the kernel arguments
    ``_campaign_codes`` derives, once they are derived; it is None until
    then.  Like ``_unit`` on parameter sets it is a plain attribute, not a
    field, so equality, hashing, ``repr`` and ``to_dict`` see the fields
    alone; copies and pickles are rebuilt by the constructor without it.
    """

    _fields = ("theorem", "clause", "model", "conditions", "conclusion")
    _codes = None

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


class VerificationReport(_Frozen):
    """Outcome of one clause campaign."""

    _fields = ("clause", "samples", "max_violation", "failures", "seed")

    def __init__(
        self,
        clause: TheoremClause,
        samples: int,
        max_violation: object,
        failures: int,
        seed: int,
    ) -> None:
        fields = self.__dict__
        fields["clause"] = clause
        fields["samples"] = samples
        fields["max_violation"] = max_violation
        fields["failures"] = failures
        fields["seed"] = seed

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


def _campaign_codes(clause: TheoremClause) -> tuple:
    """(model, rep, eq, conclusion) kernel arguments for one clause.

    A clause's campaign set-up is computed once and kept on it: the first
    call that succeeds on a clause whose conditions are a ``frozenset``
    stores the result in its ``_codes``, and later calls return it.  A
    clause built on a mutable set keeps nothing, so its codes follow its
    set, and a clause that raises keeps nothing either, so it raises on
    every call.  See ``_derive_codes`` for what it raises.
    """
    try:
        codes = clause._codes
    except AttributeError:
        raise ParameterError(
            f"{clause!r} is not a TheoremClause; clause_lookup(theorem, clause) returns one"
        ) from None
    if codes is None:
        codes = _derive_codes(clause)
        if clause.conditions.__class__ is frozenset:
            clause.__dict__["_codes"] = codes
    return codes


def _derive_codes(clause: TheoremClause) -> tuple:
    """The kernel arguments of ``_campaign_codes``, derived afresh.

    Raises what ``random_params`` and ``impose`` raise for a clause no
    campaign can run: an unknown model, H1 together with H5, or an H1/H5
    solve for a slot an equality already ties; and ``ParameterError`` for a
    conclusion that is not a ``Conclusion`` or conditions that are not an
    iterable of hypotheses.
    """
    if not isinstance(clause.conclusion, Conclusion):
        raise ParameterError(
            f"{clause.conclusion!r} is not a Conclusion; Conclusion(name) turns a name into one"
        )
    params_type(clause.model)
    conditions = _frozen(clause.conditions)
    rep = substitution_reps(clause.model, conditions)
    eq_member = equational_member(conditions)
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
    sample fails when its violation exceeds it.  ``threads`` is accepted and
    checked; every campaign runs on the calling thread.

    A clause's campaign set-up, its kernel arguments, is computed once and
    kept on it (see ``_campaign_codes``), so repeated campaigns on one
    clause go straight to the kernel.  A bad argument, the clause included,
    raises ``ParameterError`` before any kernel call; so does a sample
    count of 2**63 or more, which the kernels cannot count.  A sample whose
    H1/H5 solve never lands in [0, 1] within the redraw budget raises
    ``ConstraintError``.
    """
    if type(samples) is not int or type(seed) is not int:
        _check_integer("samples", samples)
        _check_integer("seed", seed)
    if not 0 < samples < _SAMPLES_LIMIT:
        if samples < 1:
            raise ParameterError(f"samples must be positive, got {samples!r}")
        raise ParameterError(f"samples must be below 2**63, got {samples!r}")
    if tol is None:
        tol = 0 if exact else CAMPAIGN_FLOAT_TOL
    else:
        _check_tolerance(tol)
        if exact and tol != 0:
            raise ParameterError("exact campaigns compare exactly; tol must be 0")
    if threads is not None:
        _check_integer("thread count", threads)
        if threads < 1:
            raise ParameterError(f"thread count must be at least 1, got {threads}")
    # the kept codes go straight to the kernel (module docstring)
    model, rep, eq, conclusion = getattr(clause, "_codes", None) or _campaign_codes(clause)
    if exact:
        failures, max_num, max_den, exhausted = kernel._impl.grid_tally(
            model, rep, eq, conclusion, 0, samples, seed, _REDRAW_BUDGET
        )
        max_violation = Fraction(max_num, max_den) if max_num else 0
    else:
        max_violation, failures, exhausted = kernel._impl.run_campaign(
            model, rep, eq, conclusion, 0, samples, seed, float(tol), _REDRAW_BUDGET
        )
    if exhausted:  # only a clause with an H1/H5 member redraws
        raise ConstraintError(
            f"{exhausted} samples exhausted the redraw budget solving "
            f"{equational_member(clause.conditions).value} "
            f"for {clause.theorem}({clause.clause})"
        )
    return VerificationReport(clause, samples, max_violation, failures, seed)


# The factors of each conclusion's cleared numerator (the difference
# classify_covariate tests exactly: standardized - observed, or the bias,
# over joint._cells) that can vanish in the open unit box, each named by the
# hypothesis whose _algebraic_sides residual it is.  Every other factor is a
# slot or a slot minus 1, and an empty entry means the numerator is
# identically zero.  So in the open box a conclusion holds exactly where a
# listed hypothesis does, or everywhere for an empty entry.  The tests prove
# the table against joint._cells with sympy.
_VANISHING_FACTORS = {
    (1, _IRR): (Hypothesis.H4, Hypothesis.H6),
    (2, _IRR): (Hypothesis.H4, Hypothesis.H6),
    (3, _IRR): (),
    (1, _NOC): (Hypothesis.H1,),
    (2, _NOC): (Hypothesis.H1,),
    (3, _NOC): (Hypothesis.H1,),
}


def falsify_converse(model: int, conclusion: Conclusion) -> Optional[ModelParams]:
    """Exact parameters where ``conclusion`` holds but no catalog condition
    set for (model, conclusion) does, or None when the open unit box has none.

    The conclusion holds in the open box exactly on the surfaces {h} of its
    ``_VANISHING_FACTORS`` (on the whole box for an empty entry).  Each
    surface that is not itself a catalog set is imposed on up to
    ``_REDRAW_BUDGET`` thousandths-grid draws of a fixed stream, and the
    first point is returned where the exact ``classify_covariate`` confirms
    the conclusion and ``holds_algebraic`` at tol 0 rejects a member of
    every catalog set.  The {H1} set of no_confounding is not counted.
    """
    from .measures import Verdict, classify_covariate

    try:
        conclusion = Conclusion(conclusion)
    except ValueError:
        raise ParameterError(
            f"unknown conclusion {conclusion!r}; expected 'irrelevant_factor' or 'no_confounding'"
        ) from None
    params_type(model)  # an unknown model raises ParameterError
    condition_sets = [
        c.conditions
        for c in CLAUSES
        if c.model == model
        and c.conclusion is conclusion
        and not (conclusion is _NOC and c.conditions == frozenset({Hypothesis.H1}))
    ]
    surfaces = [frozenset({h}) for h in _VANISHING_FACTORS[model, conclusion]] or [frozenset()]
    rng = SplitMix64(0)
    for surface in surfaces:
        if surface in condition_sets:
            continue
        for _ in range(_REDRAW_BUDGET):
            params = impose(random_params(model, rng, exact=True), surface, rng)
            report = classify_covariate(build_joint(params))
            holds = report.bias == 0 if conclusion is _NOC else report.verdict is Verdict.IRRELEVANT
            if holds and not any(
                all(holds_algebraic(params, h) for h in conditions) for conditions in condition_sets
            ):
                return params
    return None

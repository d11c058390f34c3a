"""Confounding measures and covariate classification.

For a joint distribution over (E, C, D_ebar):

* hypothetical   P(D_ebar=1 | E=e), the unexposed risk the exposed group
                 would have had.
* observed       P(D_ebar=1 | E=ebar), the unexposed risk actually seen.
* bias           hypothetical - observed.  Signed; no confounding means
                 bias == 0, and comparisons of magnitude use |bias|.
* standardized   sum_k P(D_ebar=1 | E=ebar, C=k) * P(C=k | E=e), the
                 observed risk re-weighted to the exposed group's covariate
                 mix.
* adjusted_gap   |hypothetical - standardized|, the residual error after
                 standardizing over C.

Classification of the covariate, given a tolerance:

* irrelevant  if |standardized - observed| <= tol (standardizing changed
              nothing);
* confounder  if adjusted_gap < |bias| - tol (standardizing moved the
              estimate strictly closer to the hypothetical value);
* neither     otherwise.

Irrelevance is tested first.  The two positive verdicts are mutually
exclusive: irrelevance forces adjusted_gap == |bias|, so a strict
improvement is impossible, while a strict improvement forces
standardized != observed.  ``check_lemma1`` asserts that exclusivity on any
given joint.  The converse does not hold: a covariate can be neither
irrelevant nor a confounder (standardizing moves the estimate without
strictly helping).

All quantities follow the joint's arithmetic: rational joints give exact
rational answers, and in that mode the classification tolerance must be 0.
On a rational joint the three proportions are integer ratios of the
joint's cell numerators (``joint._exact_pairs``); the verdict and Lemma 1
compare them by integer cross-multiplication.  An exact report keeps those
ratios and builds its five ``Fraction``s the first time a caller reads one
of them.  Each joint computes its proportions, float or exact, once and
keeps them (``_proportions``).  The proportions come from
``joint._float_proportions`` and ``joint._exact_pairs``, the helpers the
pure campaign kernel evaluates each conclusion with, so a campaign and a
verdict decide a conclusion by the same code.
"""

from __future__ import annotations

from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import DegenerateEventError, ParameterError
from .joint import (
    DEFAULT_FLOAT_TOL,
    JointDistribution,
    ModelParams,
    Numeric,
    _Frozen,
    _check_tolerance,
    _exact_pairs,
    _float_proportions,
    _masses,
    _not_a_joint,
    _num_to_json,
    _num_to_text,
    _render_columns,
    _standardized,
    _unit_values,
)


class Verdict(Enum):
    IRRELEVANT = "irrelevant"
    CONFOUNDER = "confounder"
    NEITHER = "neither"


# the verdicts as plain module names, which the verdict path looks up
# several times faster than an enum attribute
_IRRELEVANT, _CONFOUNDER, _NEITHER = Verdict


class MeasureSummary(NamedTuple):
    """The four scalar measures of one joint distribution."""

    hypothetical: Numeric
    observed: Numeric
    standardized: Numeric
    bias: Numeric


class _Pending:
    """A number field of an exact report, which its first read builds with
    the other four from ``_pending`` and stores on the report, shadowing
    this descriptor.  ``_pending`` stays, so a thread reading meanwhile
    builds equal values rather than miss them."""

    def __init__(self, index: int) -> None:
        self.index = index

    def __get__(self, report, owner=None):
        if report is None:
            return self
        pairs, gap = report._pending
        values = (*_pairs_summary(*pairs), Fraction(gap, pairs[1] * pairs[5]))
        report.__dict__.update(zip(ClassificationReport._fields, values))
        return values[self.index]


class ClassificationReport(_Frozen):
    """Measures plus verdict for one joint distribution.

    An exact ``classify_covariate`` call builds its report with
    ``_from_pairs``: the report holds the verdict and, in ``_pending``, the
    integer ratios and gap its other five fields come from, and builds all
    five ``Fraction``s the first time any one of them is read (``_Pending``).
    ``_pending`` is a plain attribute, not a field: equality, hashing,
    ``repr`` and ``to_dict`` see the six fields alone, whether or not they
    were read before, and copies and pickles are rebuilt by the constructor
    from the six fields, so they hold no ``_pending``.
    """

    _fields = ("hypothetical", "observed", "standardized", "bias", "adjusted_gap", "verdict")
    hypothetical, observed, standardized, bias, adjusted_gap = map(_Pending, range(5))

    def __init__(
        self,
        hypothetical: Numeric,
        observed: Numeric,
        standardized: Numeric,
        bias: Numeric,
        adjusted_gap: Numeric,
        verdict: Verdict,
    ) -> None:
        fields = self.__dict__
        fields["hypothetical"] = hypothetical
        fields["observed"] = observed
        fields["standardized"] = standardized
        fields["bias"] = bias
        fields["adjusted_gap"] = adjusted_gap
        fields["verdict"] = verdict

    @classmethod
    def _from_pairs(cls, pairs: tuple, gap: int, verdict: Verdict) -> "ClassificationReport":
        """The report of the integer ratios ``pairs`` = (h, hd, o, od, s, sd),
        with adjusted gap ``gap``/(hd·sd): the fields ``_pairs_summary`` and
        that gap give, built on first read."""
        report = object.__new__(cls)
        fields = report.__dict__
        fields["verdict"] = verdict
        fields["_pending"] = (pairs, gap)
        return report

    def to_dict(self) -> dict:
        return {
            "hypothetical": _num_to_json(self.hypothetical),
            "observed": _num_to_json(self.observed),
            "standardized": _num_to_json(self.standardized),
            "bias": _num_to_json(self.bias),
            "adjusted_gap": _num_to_json(self.adjusted_gap),
            "verdict": self.verdict.value,
        }

    def render_text(self) -> str:
        """Fixed-width table of the six fields."""
        rows = [("quantity", "value", "exact")]
        for name in ("hypothetical", "observed", "standardized", "bias", "adjusted_gap"):
            value = getattr(self, name)
            rows.append((name, f"{float(value):.6f}", _num_to_text(value)))
        rows.append(("verdict", self.verdict.value, ""))
        return _render_columns(rows)


def hypothetical_proportion(joint: JointDistribution) -> Numeric:
    """P(D_ebar=1 | E=e)."""
    try:
        p = joint.p
    except AttributeError:
        raise _not_a_joint(joint) from None
    exposed = p[0] + p[1] + p[2] + p[3]
    if exposed == 0:
        raise DegenerateEventError("P(E=e) = 0; the hypothetical proportion is undefined")
    return (p[1] + p[3]) / exposed


def observed_proportion(joint: JointDistribution) -> Numeric:
    """P(D_ebar=1 | E=ebar)."""
    try:
        p = joint.p
    except AttributeError:
        raise _not_a_joint(joint) from None
    unexposed = p[4] + p[5] + p[6] + p[7]
    if unexposed == 0:
        raise DegenerateEventError("P(E=ebar) = 0; the observed proportion is undefined")
    return (p[5] + p[7]) / unexposed


def standardized_proportion(joint: JointDistribution) -> Numeric:
    """Observed risk re-weighted by the exposed group's covariate mix.

    Strata with P(C=k | E=e) = 0 carry no weight and are skipped; any other
    stratum with P(E=ebar, C=k) = 0 leaves the sum undefined and raises
    DegenerateEventError naming the stratum.
    """
    try:
        p = joint.p
    except AttributeError:
        raise _not_a_joint(joint) from None
    exposed = p[0] + p[1] + p[2] + p[3]
    if exposed == 0:
        raise DegenerateEventError("P(E=e) = 0; the standardized proportion is undefined")
    return _standardized(p, exposed)


def confounding_bias(joint: JointDistribution) -> Numeric:
    """hypothetical - observed; zero exactly when there is no confounding."""
    return hypothetical_proportion(joint) - observed_proportion(joint)


def summary_from_joint(joint: JointDistribution) -> MeasureSummary:
    """All four measures by summation over the joint's cells.

    A float joint adds its cells as the per-measure functions above do, on
    one read of them (``_float_proportions``).  A rational
    joint adds its integer numerators instead (see ``JointDistribution``)
    into one integer numerator and denominator per proportion
    (``_exact_pairs``), and each measure is one ``Fraction`` of those, with
    the bias cross-multiplied; degenerate events raise the same errors in
    the same order as the per-measure functions.  Either is computed once
    per joint and kept on it (``_proportions``).
    """
    try:
        n = joint._numerators
    except AttributeError:
        raise _not_a_joint(joint) from None
    if n is not None:
        return _pairs_summary(*_proportions(joint))
    return _proportions(joint)


def _proportions(joint: JointDistribution):
    """The float ``MeasureSummary`` of a float joint, the three proportions
    of ``_float_proportions`` and their bias, or the integer pairs of
    ``_exact_pairs`` of a rational one, kept on the joint once computed.

    ``summary_from_joint``, ``classify_covariate`` and ``check_lemma1`` on
    one joint share them.  A degenerate joint keeps nothing, so it raises
    on every call.
    """
    kept = joint._proportions
    if kept is None:
        n = joint._numerators
        if n is None:
            hypothetical, observed, standardized = _float_proportions(joint.p)
            kept = MeasureSummary(hypothetical, observed, standardized, hypothetical - observed)
        else:
            kept = _exact_pairs(n)
        joint.__dict__["_proportions"] = kept
    return kept


def _pairs_summary(h: int, hd: int, o: int, od: int, s: int, sd: int) -> MeasureSummary:
    """The four measures of integer ratios h/hd, o/od and s/sd."""
    return MeasureSummary(
        Fraction(h, hd), Fraction(o, od), Fraction(s, sd), Fraction(h * od - o * hd, hd * od)
    )


def closed_form_summary(params: ModelParams) -> MeasureSummary:
    """The same four measures straight from model parameters.

    Independent of the cell expansion; used to cross-check the joint route.
    Wherever ``summary_from_joint(build_joint(params))`` returns, the two are
    equal (exactly on rational parameters).  The closed form is also defined
    where the joint route raises because P(E=ebar, C=j) = 0 while
    P(C=j | E=e) > 0: it reads the stratum's rate b_j from the parameters,
    which the joint cannot recover.
    Each measure is a ratio of sums over the model's masses (see
    ``joint._masses``).  Float and mixed parameters divide their own values.
    Rational parameters take the masses over their integer numerators and
    build one ``Fraction`` per measure, with the bias cross-multiplied.  The
    tests hold the plain ``Fraction`` ratios as the oracle.
    """
    model, one, v, exact = _unit_values(params)
    exposed0, exposed1, unexposed0, unexposed1 = _masses(model, v, one)
    b0, b1, u0, u1 = v[-4:]
    exposed = exposed0 + exposed1
    unexposed = unexposed0 + unexposed1
    exposed_cases = u0 * exposed0 + u1 * exposed1
    unexposed_cases = b0 * unexposed0 + b1 * unexposed1
    standardized_cases = b0 * exposed0 + b1 * exposed1
    if exact:
        exposed *= one
        unexposed *= one
        return _pairs_summary(
            exposed_cases, exposed, unexposed_cases, unexposed, standardized_cases, exposed
        )
    hypothetical = exposed_cases / exposed
    observed = unexposed_cases / unexposed
    return MeasureSummary(hypothetical, observed, standardized_cases / exposed, hypothetical - observed)


def _classify(summary: MeasureSummary, tol) -> ClassificationReport:
    hypothetical, observed, standardized, bias = summary
    adjusted_gap = abs(hypothetical - standardized)
    if abs(standardized - observed) <= tol:
        verdict = _IRRELEVANT
    elif adjusted_gap < abs(bias) - tol:
        verdict = _CONFOUNDER
    else:
        verdict = _NEITHER
    return ClassificationReport(hypothetical, observed, standardized, bias, adjusted_gap, verdict)


def classify_covariate(
    joint: JointDistribution, tol: Optional[Union[int, float, Fraction]] = None
) -> ClassificationReport:
    """Classify the covariate of a joint as irrelevant, confounder, or neither.

    ``tol`` defaults to 0 for exact-rational joints and 1e-9 otherwise.  In
    exact mode a nonzero tolerance is rejected: comparisons there are exact
    by construction and a loosened equality would silently change verdicts.

    A float joint compares its four measures as ``_classify`` does.  A
    rational joint decides the verdict on the integer ratios h/hd, o/od and
    s/sd of ``_exact_pairs`` by cross-multiplication, with no ``Fraction``:
    irrelevant when s·od = o·sd, confounder when
    |h·sd − s·hd|·od < |h·od − o·hd|·sd.  The report keeps those ratios
    and builds its five ``Fraction``s the first time any one is read, so a
    caller that reads only the verdict never builds them.  The tests hold
    ``_classify`` on the ``Fraction`` measures as the oracle.
    """
    try:
        n = joint._numerators
    except AttributeError:
        raise _not_a_joint(joint) from None
    if tol is None:
        tol = 0 if n is not None else DEFAULT_FLOAT_TOL
    _check_tolerance(tol)
    if n is None:
        return _classify(_proportions(joint), _float_tolerance(tol))
    _check_exact_tolerance(tol)
    pairs = h, hd, o, od, s, sd = _proportions(joint)
    gap = abs(h * sd - s * hd)
    if s * od == o * sd:
        verdict = _IRRELEVANT
    elif gap * od < abs(h * od - o * hd) * sd:
        verdict = _CONFOUNDER
    else:
        verdict = _NEITHER
    return ClassificationReport._from_pairs(pairs, gap, verdict)


def check_lemma1(joint: JointDistribution, tol: Union[int, float, Fraction] = 0) -> bool:
    """True when the two positive verdicts are mutually exclusive on ``joint``.

    Evaluates the irrelevance and confounder conditions independently (not
    through verdict precedence) and checks they do not both hold.  A float
    joint compares its four measures within ``tol``.  A rational joint
    requires tol = 0, as ``classify_covariate`` does, and evaluates both
    conditions on the integer ratios of ``_exact_pairs`` by
    cross-multiplication.
    """
    _check_tolerance(tol)
    try:
        n = joint._numerators
    except AttributeError:
        raise _not_a_joint(joint) from None
    if n is None:
        summary = _proportions(joint)
        tol = _float_tolerance(tol)
        irrelevant = abs(summary.standardized - summary.observed) <= tol
        confounder = abs(summary.hypothetical - summary.standardized) < abs(summary.bias) - tol
    else:
        _check_exact_tolerance(tol)
        h, hd, o, od, s, sd = _proportions(joint)
        irrelevant = s * od == o * sd
        confounder = abs(h * sd - s * hd) * od < abs(h * od - o * hd) * sd
    return not (irrelevant and confounder)


def _float_tolerance(tol):
    """``tol`` as a float joint's conditions take it: a ``Decimal`` as the
    equal ``Fraction``.  Float arithmetic refuses a Decimal, so
    ``abs(bias) - tol`` would raise TypeError; a Fraction compares exactly,
    as the Decimal does in ``holds_numeric``, and enters the subtraction as
    its nearest float, as an int or a Fraction tolerance does."""
    return Fraction(tol) if isinstance(tol, Decimal) else tol


def _check_exact_tolerance(tol) -> None:
    if tol != 0:
        raise ParameterError("exact-rational classification requires tol = 0")

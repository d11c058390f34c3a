"""The seven independence hypotheses and their imposition on parameters.

Each hypothesis is a conditional-independence statement about (E, C, D_ebar),
numbered uniformly across the three model structures:

    H1  E indep D_ebar
    H2  E indep D_ebar | C=0
    H3  E indep D_ebar | C=1
    H4  E indep C
    H5  D_ebar indep C
    H6  D_ebar indep C | E=ebar
    H7  D_ebar indep C | E=e

One registration loop below gives each ``Hypothesis`` member its whole
definition: its statement, its product test, the slot pair its equality ties
(H2, H3, H4, H6, H7) and the slot its equation is solved for (H1, H5).

A hypothesis can be evaluated two ways:

* numerically on a joint distribution, as a within-slice product test
  |P(X=1,Y=1|S) - P(X=1|S) P(Y=1|S)| <= tol, which raises
  DegenerateEventError when the slice S has probability zero;
* algebraically on model parameters, as the per-model closed-form equality
  (for example H2 is u0 = b0 in every model, while H4 is a0 = a1 in Model 1,
  c0 = c1 in Model 2, and vacuous in Model 3).

The algebraic forms read the parameters directly, so on the boundary they
can compare conditionals of zero mass, where the two can differ (Model 1
with a0 = 0 reads H2 and H7 false algebraically, true numerically).  They
agree wherever every conditional the algebraic form reads has positive mass:
P(E=e, C=0) and P(E=ebar, C=0) for H2, the same at C=1 for H3, P(E=ebar,
C=j) for H6 and P(E=e, C=j) for H7 at both j, and P(C=0) and P(C=1) for H4
in Model 1 and H5 in Models 1 and 3.  The rest need nothing, but Model 2's
algebraic H5 raises DegenerateEventError where a C stratum is empty.

``impose`` rewrites a parameter set so that a whole hypothesis set holds:
equality constraints are substituted through their equivalence classes, and
an equational constraint (H1 or H5) is solved for one designated parameter
(u1 for H1, u0 for H5), redrawing the remaining parameters when the solution
leaves [0, 1].  The solve is one (num, den) pair over a unit (``_solve``),
which exact campaigns run on their integer grid.
"""

from __future__ import annotations

from enum import Enum, EnumMeta
from fractions import Fraction
from functools import lru_cache
from typing import FrozenSet, Iterable, Optional

from ._rng import SplitMix64
from .errors import ConstraintError, DegenerateEventError, ParameterError
from .joint import (
    JointDistribution,
    Model1Params,
    Model2Params,
    Model3Params,
    ModelParams,
    _check_integer,
    _check_tolerance,
    _masses,
    _not_a_joint,
    _unit_values,
    model_number,
    params_type,
)


class _InOrder(EnumMeta):
    """``EnumMeta`` iterating over a tuple of the members in definition order.

    ``EnumMeta.__iter__`` is a generator that looks each member up by name;
    the verdict path iterates ``Hypothesis`` twice per point, and a tuple's
    iterator yields the same members for about a quarter of the cost.  Everything
    else (``len``, ``reversed``, ``in``, lookup by value and by name,
    pickling) is ``EnumMeta``'s own.
    """

    def __new__(metacls, *args, **kwargs):
        cls = super().__new__(metacls, *args, **kwargs)
        cls._in_order = tuple(EnumMeta.__iter__(cls))
        return cls

    def __iter__(cls):
        return iter(cls._in_order)


class Hypothesis(Enum, metaclass=_InOrder):
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"
    H4 = "H4"
    H5 = "H5"
    H6 = "H6"
    H7 = "H7"


# the members as plain module names: the per-call checks below compare a
# hypothesis against several members, and a global name is several times
# cheaper to look up than an enum attribute
_H1, _H2, _H3, _H4, _H5, _H6, _H7 = Hypothesis

HypothesisSet = FrozenSet[Hypothesis]


def hypothesis_set(*hypotheses: Hypothesis) -> HypothesisSet:
    return _frozen(hypotheses)


def parse_hypothesis(name: str) -> Hypothesis:
    try:
        return Hypothesis(name.upper())
    except (AttributeError, ValueError):
        raise ParameterError(f"unknown hypothesis {name!r}; expected H1..H7") from None


# The numeric product test of each hypothesis as ready-made cell sums: a
# function of the eight cells (weights or integer numerators, in canonical
# order: E=e in 0-3, C in bit 1, D_ebar in bit 0) giving the masses of the
# slice S and of X∧Y, X and Y within it.  Every sum adds its cells in
# ascending order from 0, as JointDistribution.prob adds them, so float sums
# round identically (builtin sum() may compensate float rounding).
def _sums_h1(c):  # E ⊥ D_ebar
    return (
        0 + c[0] + c[1] + c[2] + c[3] + c[4] + c[5] + c[6] + c[7],
        0 + c[1] + c[3],
        0 + c[0] + c[1] + c[2] + c[3],
        0 + c[1] + c[3] + c[5] + c[7],
    )


def _sums_h2(c):  # E ⊥ D_ebar | C=0
    return 0 + c[0] + c[1] + c[4] + c[5], 0 + c[1], 0 + c[0] + c[1], 0 + c[1] + c[5]


def _sums_h3(c):  # E ⊥ D_ebar | C=1
    return 0 + c[2] + c[3] + c[6] + c[7], 0 + c[3], 0 + c[2] + c[3], 0 + c[3] + c[7]


def _sums_h4(c):  # E ⊥ C
    return (
        0 + c[0] + c[1] + c[2] + c[3] + c[4] + c[5] + c[6] + c[7],
        0 + c[2] + c[3],
        0 + c[0] + c[1] + c[2] + c[3],
        0 + c[2] + c[3] + c[6] + c[7],
    )


def _sums_h5(c):  # D_ebar ⊥ C
    return (
        0 + c[0] + c[1] + c[2] + c[3] + c[4] + c[5] + c[6] + c[7],
        0 + c[3] + c[7],
        0 + c[1] + c[3] + c[5] + c[7],
        0 + c[2] + c[3] + c[6] + c[7],
    )


def _sums_h6(c):  # D_ebar ⊥ C | E=ebar
    return 0 + c[4] + c[5] + c[6] + c[7], 0 + c[7], 0 + c[5] + c[7], 0 + c[6] + c[7]


def _sums_h7(c):  # D_ebar ⊥ C | E=e
    return 0 + c[0] + c[1] + c[2] + c[3], 0 + c[3], 0 + c[1] + c[3], 0 + c[2] + c[3]


# Parameter slots, uniform across models so constraint bookkeeping is shared:
# slot 0 is the structural mixing weight (t or a), slots 1..2 the exposure or
# covariate response pair (a0/a1, c0/c1; slot 2 unused in Model 3, where
# slot 1 is t), slots 3..6 the outcome parameters b0, b1, u0, u1.  The names
# are the parameter classes' fields in order.
_SLOT_FIELDS = {
    1: Model1Params._fields,
    2: Model2Params._fields,
    3: Model3Params._fields[:2] + (None,) + Model3Params._fields[2:],
}
_B0, _B1, _U0, _U1 = 3, 4, 5, 6

# Each hypothesis's whole definition, kept on its member (a dict lookup would
# hash it through Enum.__hash__, a Python-level call): its statement, its cell
# sums with the message for a slice of zero mass, the slot pair its equality
# ties (H4's is vacuous in Model 3) and the slot its equation is solved for.
for _h, _statement, _sums, _given, _pair, _solves in (
    (_H1, "E ⊥ D_ebar", _sums_h1, {}, None, _U1),
    (_H2, "E ⊥ D_ebar | C=0", _sums_h2, {"C": 0}, (_B0, _U0), None),
    (_H3, "E ⊥ D_ebar | C=1", _sums_h3, {"C": 1}, (_B1, _U1), None),
    (_H4, "E ⊥ C", _sums_h4, {}, (1, 2), None),
    (_H5, "D_ebar ⊥ C", _sums_h5, {}, None, _U0),
    (_H6, "D_ebar ⊥ C | E=ebar", _sums_h6, {"E": "ebar"}, (_B0, _B1), None),
    (_H7, "D_ebar ⊥ C | E=e", _sums_h7, {"E": "e"}, (_U0, _U1), None),
):
    _h.statement = _statement
    _h._product_test = _sums, f"{_h.value} conditions on {_given!r}, which has probability zero"
    _h._pair = _pair
    _h._solves = _solves
del _h, _statement, _sums, _given, _pair, _solves

# redraws allowed for a sample whose H1/H5 solve leaves [0, 1]
_REDRAW_BUDGET = 1000


def _not_a_hypothesis(value) -> ParameterError:
    return ParameterError(f"{value!r} is not a Hypothesis; parse_hypothesis turns a name into one")


def _frozen(hypotheses) -> HypothesisSet:
    """``hypotheses`` as a frozenset; ParameterError unless it is an iterable
    of hashable values (its members are checked where they are read)."""
    try:
        return frozenset(hypotheses)
    except TypeError:
        raise ParameterError(
            f"hypotheses must be an iterable of Hypothesis members, got {hypotheses!r}"
        ) from None


def holds_numeric(joint: JointDistribution, hypothesis: Hypothesis, tol=0) -> bool:
    """Product test for a hypothesis on a joint, within ``tol``.

    The slice S and the events X∧Y, X, Y within it are fixed sets of cells,
    added by the hypothesis's ready-made sums.  On a rational joint the test
    runs on the joint's integer numerators N as
    |N_xy·N_s − N_x·N_y| <= tol·N_s², which is the product test multiplied
    through by P(S)²; one ``Fraction`` is built only to compare a nonzero
    difference with a nonzero tolerance.  On any other joint the cells are
    added in ascending order as ``JointDistribution.prob`` adds them, so the
    result is the same bit for bit.

    Raises DegenerateEventError when the conditioning slice has zero mass,
    and ParameterError for a hypothesis that is not a ``Hypothesis`` or a
    joint that is not a ``JointDistribution``.
    """
    _check_tolerance(tol)
    try:
        sums, degenerate = hypothesis._product_test
    except AttributeError:
        raise _not_a_hypothesis(hypothesis) from None
    try:
        numerators = joint._numerators
    except AttributeError:
        raise _not_a_joint(joint) from None
    if numerators is not None:
        n_s, n_xy, n_x, n_y = sums(numerators)
        if n_s == 0:
            raise DegenerateEventError(degenerate)
        diff = abs(n_xy * n_s - n_x * n_y)
        if diff == 0:
            return True
        return tol != 0 and Fraction(diff, n_s * n_s) <= tol
    slice_mass, xy, x, y = sums(joint.p)
    if slice_mass == 0:
        raise DegenerateEventError(degenerate)
    q_xy = xy / slice_mass
    q_x = x / slice_mass
    q_y = y / slice_mass
    return abs(q_xy - q_x * q_y) <= tol


def holds_algebraic(params: ModelParams, hypothesis: Hypothesis, tol=0) -> bool:
    """Closed-form test for a hypothesis on model parameters, within ``tol``.

    Float and mixed parameters evaluate both sides of the defining equality
    on their own values and compare |lhs − rhs| <= tol.  Rational parameters
    evaluate the same expressions on their integer numerators over L (see
    ``joint._unit_values``) and compare the sides by cross-multiplication;
    one ``Fraction`` is built only to compare a nonzero difference with a
    nonzero tolerance.  The tests hold the plain ``Fraction`` sides as the
    oracle.

    Raises DegenerateEventError for H5 in Model 2 when a covariate stratum
    has zero mass, and ParameterError for a hypothesis that is not a
    ``Hypothesis``.
    """
    _check_tolerance(tol)
    model, one, values, exact = _unit_values(params)
    lhs, lhs_den, rhs, rhs_den = _algebraic_sides(model, values, one, hypothesis)
    if not exact:
        if lhs_den is not None:
            lhs, rhs = lhs / lhs_den, rhs / rhs_den
        return abs(lhs - rhs) <= tol
    if lhs_den is None:
        diff, den = lhs - rhs, one * one
    else:
        diff, den = lhs * rhs_den - rhs * lhs_den, one * lhs_den * rhs_den
    if diff == 0:
        return True
    return tol != 0 and Fraction(abs(diff), den) <= tol


def _algebraic_sides(model: int, v, one, hypothesis: Hypothesis) -> tuple:
    """(lhs, lhs_den, rhs, rhs_den) of the defining equality, over ``one``.

    ``v`` and ``one`` are as for ``joint._masses``.  Where the dens are None
    each side is a polynomial over one**2; otherwise a side is the
    conditional side / (one * side_den), a ratio of sums over the masses.
    Vacuous cases give (0, None, 0, None).  With one = 1 every float side
    and quotient is computed in the parameters' own operand order, and
    ``x * 1`` is ``x`` bit for bit.
    """
    try:
        pair = hypothesis._pair
    except AttributeError:
        raise _not_a_hypothesis(hypothesis) from None
    if pair is not None:
        if hypothesis is _H4 and model == 3:
            return 0, None, 0, None  # independent by structure
        # slot s is v[s - 7]: Models 1 and 2 have seven values, Model 3 has no slot 2
        i, j = pair
        return v[i - 7] * one, None, v[j - 7] * one, None

    b0, b1, u0, u1 = v[-4:]
    if model == 1:
        if hypothesis is _H1:
            exposed0, exposed1, unexposed0, unexposed1 = _masses(1, v, one)
            return (
                u0 * exposed0 + u1 * exposed1,
                exposed0 + exposed1,
                b0 * unexposed0 + b1 * unexposed1,
                unexposed0 + unexposed1,
            )
        # H5: P(D_ebar=1 | C=j) in parameter form; defined whatever t is.
        a0, a1 = v[1], v[2]
        return u0 * a0 + b0 * (one - a0), None, u1 * a1 + b1 * (one - a1), None
    if model == 2:
        a, c0, c1 = v[0], v[1], v[2]
        if hypothesis is _H1:
            return u0 * (one - c1) + u1 * c1, None, b0 * (one - c0) + b1 * c0, None
        mass0 = (one - c1) * a + (one - c0) * (one - a)
        mass1 = c1 * a + c0 * (one - a)
        if mass0 == 0 or mass1 == 0:
            k = 0 if mass0 == 0 else 1
            raise DegenerateEventError(
                f"H5 compares P(D_ebar=1 | C=k) across strata, but P(C={k}) = 0"
            )
        return (
            u0 * (one - c1) * a + b0 * (one - c0) * (one - a),
            mass0,
            u1 * c1 * a + b1 * c0 * (one - a),
            mass1,
        )
    if hypothesis is _H1:
        t = v[1]
        return u0 * (one - t) + u1 * t, None, b0 * (one - t) + b1 * t, None
    a = v[0]
    return b0 * (one - a) + u0 * a, None, b1 * (one - a) + u1 * a, None


def substitution_reps(model: int, hypotheses: Iterable[Hypothesis]) -> tuple:
    """rep[j] = slot whose value slot j must copy under the equality constraints.

    Identity for unconstrained slots.  Classes among the outcome slots take
    the lowest member as representative; the exposure/covariate pair (1, 2)
    keeps slot 2 as representative, so H4 rewrites the C=0 side.
    """
    return _substitution_reps(model, _frozen(hypotheses))


@lru_cache(maxsize=None)
def _substitution_reps(model: int, hypotheses: HypothesisSet) -> tuple:
    # memoised: theorems._derive_codes calls this once per clause, but impose
    # on every call (falsify_converse's redraws, the traced impose layer),
    # where the memo saves about a tenth of its time; there are only
    # 3 models x 2**7 hypothesis sets
    # rep[j] labels slot j's class by its lowest slot; each pair merges two
    # classes by relabeling the higher label to the lower, so the order of
    # the merges does not matter
    rep = list(range(7))
    for h in hypotheses:
        try:
            pair = h._pair
        except AttributeError:
            raise _not_a_hypothesis(h) from None
        if pair is not None and not (h is _H4 and model == 3):
            low, high = sorted((rep[pair[0]], rep[pair[1]]))
            rep = [low if r == high else r for r in rep]
    # No constraint ties slots 1..2 to the outcome slots, so the class
    # {1, 2} stands alone; it is rewritten toward slot 2, the C=1 side.
    if rep[2] == 1:
        rep[1] = rep[2] = 2
    return tuple(rep)


def equational_member(hypotheses: HypothesisSet) -> Optional[Hypothesis]:
    """The single H1/H5 member of a set, if any.

    Raises ConstraintError when both are present: solving one for its
    designated parameter would in general break the other.
    """
    # identity tests over the members: a set lookup would hash H1 and H5
    # through Enum.__hash__, a Python-level call, on every impose call
    eq = None
    for h in hypotheses:
        if h is _H1 or h is _H5:
            if eq is not None:
                raise ConstraintError("H1 and H5 cannot be imposed together")
            eq = h
    return eq


def _solve(model: int, eq: Hypothesis, v, one) -> tuple:
    """(num, den) of the H1 solve for u1 or the H5 solve for u0, given the rest.

    ``v`` holds the seven slot values over the unit ``one``, as for
    ``joint._masses``: the values themselves with one = 1, or integer
    numerators over one = L.  The solved value is num / den; the quotients
    of the defining equality are cleared into den, so den is zero exactly
    where the plain solve divides by zero.  It is a product of slot values
    and their complements, so it is never negative.
    """
    if eq is _H1:
        if model == 1:
            b0, b1, u0 = v[3], v[4], v[5]
            exposed0, exposed1, unexposed0, unexposed1 = _masses(1, v, one)
            unexposed = unexposed0 + unexposed1
            return (
                (b0 * unexposed0 + b1 * unexposed1) * (exposed0 + exposed1)
                - u0 * exposed0 * unexposed,
                one * unexposed * exposed1,
            )
        if model == 2:
            c0, c1, b0, b1, u0 = v[1], v[2], v[3], v[4], v[5]
            return b0 * (one - c0) + b1 * c0 - u0 * (one - c1), one * c1
        t, b0, b1, u0 = v[1], v[3], v[4], v[5]
        return b0 * (one - t) + b1 * t - u0 * (one - t), one * t
    if model == 1:
        a0, a1, b0, b1, u1 = v[1], v[2], v[3], v[4], v[6]
        return u1 * a1 + b1 * (one - a1) - b0 * (one - a0), one * a0
    if model == 2:
        a, c0, c1, b0, b1, u1 = v[0], v[1], v[2], v[3], v[4], v[6]
        target = u1 * c1 * a + b1 * c0 * (one - a)
        mass1 = c1 * a + c0 * (one - a)
        mass0 = (one - c1) * a + (one - c0) * (one - a)
        return (
            target * mass0 - b0 * (one - c0) * (one - a) * mass1,
            one * mass1 * (one - c1) * a,
        )
    a, b0, b1, u1 = v[0], v[3], v[4], v[6]
    return u1 * a + (b1 - b0) * (one - a), one * a


def random_params(model: int, rng: SplitMix64, *, exact: bool = False) -> ModelParams:
    """Draw interior parameters for a model from a deterministic stream.

    Float mode draws each parameter uniformly from [0.01, 0.99]; exact mode
    draws numerators uniformly on the thousandths grid 10/1000 .. 990/1000.
    One variate per parameter, slots ascending, matching the campaign
    kernels' streams draw for draw.
    """
    cls = params_type(model)
    try:
        draw = rng.next_u64 if exact else rng.next_float
    except AttributeError:
        raise ParameterError(f"rng must be a SplitMix64, got {type(rng).__name__}") from None
    if exact:
        return cls(*[Fraction(10 + draw() % 981, 1000) for _ in cls._fields])
    return cls(*[0.01 + draw() * 0.98 for _ in cls._fields])


def _slot_values(params: ModelParams) -> list:
    fields = _SLOT_FIELDS[model_number(params)]
    return [getattr(params, name) if name else 0 for name in fields]


def _params_from_slots(model: int, values) -> ModelParams:
    return params_type(model)(*[v for v, name in zip(values, _SLOT_FIELDS[model]) if name])


def impose(
    base: ModelParams,
    hypotheses: HypothesisSet,
    rng: SplitMix64,
    *,
    budget: int = _REDRAW_BUDGET,
) -> ModelParams:
    """A parameter set of ``base``'s model on which every hypothesis holds.

    Equality constraints are substituted exactly, leaving unconstrained
    parameters untouched.  An H1/H5 member is then solved for its designated
    parameter; when the solution leaves [0, 1] (or a required divisor
    vanishes) all parameters are redrawn from ``rng``, at most ``budget``
    times, after which ConstraintError is raised.  Exactness follows
    ``base``: rational parameters are redrawn on the rational grid and
    solved exactly.  Every parameter type solves through ``_solve`` as the
    single quotient num / den.

    Raises ParameterError for hypotheses that are not an iterable of
    ``Hypothesis`` members and for a budget that is not a nonnegative
    integer.
    """
    model = model_number(base)
    _check_integer("budget", budget)
    if budget < 0:
        raise ParameterError(f"budget must be nonnegative, got {budget!r}")
    hypotheses = _frozen(hypotheses)
    rep = substitution_reps(model, hypotheses)
    eq = equational_member(hypotheses)
    if eq is not None:
        solved_slot = _solved_slot(model, rep, eq)
    exact = base.is_exact
    values = _slot_values(base)
    for attempt in range(budget + 1):
        if attempt:
            values = _slot_values(random_params(model, rng, exact=exact))
        candidate = [values[rep[j]] for j in range(7)]
        if eq is None:
            return _params_from_slots(model, candidate)
        num, den = _solve(model, eq, candidate, 1)
        if den == 0:
            continue
        solved = num / den
        if 0 <= solved <= 1:
            candidate[solved_slot] = solved
            return _params_from_slots(model, candidate)
    raise _exhausted(eq, budget)


def _solved_slot(model: int, rep: tuple, eq: Hypothesis) -> int:
    """The slot ``eq`` is solved for (its ``_solves``).

    Raises ConstraintError when an equality constraint already ties that slot.
    """
    slot = eq._solves
    if rep[slot] != slot or rep.count(slot) > 1:
        raise ConstraintError(
            f"cannot solve {eq.value} for slot "
            f"{_SLOT_FIELDS[model][slot]}: an equality constraint already ties it"
        )
    return slot


def _exhausted(eq: Hypothesis, budget: int) -> ConstraintError:
    return ConstraintError(f"no parameters satisfying {eq.value} found within {budget} redraws")

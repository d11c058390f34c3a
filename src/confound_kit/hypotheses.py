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

A hypothesis can be evaluated two ways, and the two agree wherever both are
defined:

* numerically on a joint distribution, as a within-slice product test
  |P(X=1,Y=1|S) - P(X=1|S) P(Y=1|S)| <= tol, which raises
  DegenerateEventError when the slice S has probability zero;
* algebraically on model parameters, as the per-model closed-form equality
  (for example H2 is u0 = b0 in every model, while H4 is a0 = a1 in Model 1,
  c0 = c1 in Model 2, and vacuous in Model 3).

The algebraic forms read the parameters directly, so on boundary parameter
sets they can express a conditional the joint gives zero mass (for instance
H5 in Model 1 with t = 0); interior parameters never hit that split.

``impose`` rewrites a parameter set so that a whole hypothesis set holds:
equality constraints are substituted through their equivalence classes, and
an equational constraint (H1 or H5) is solved for one designated parameter
(u1 for H1, u0 for H5), redrawing the remaining parameters when the solution
leaves [0, 1].  The solve is one (num, den) pair over a unit (``_solve``),
which exact campaigns run on their integer grid.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import FrozenSet, Iterable, Optional

from ._rng import SplitMix64
from .errors import ConstraintError, DegenerateEventError, ParameterError
from .joint import (
    JointDistribution,
    ModelParams,
    _check_integer,
    _check_tolerance,
    _masses,
    _unit_values,
    model_number,
    params_type,
)


class Hypothesis(Enum):
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"
    H4 = "H4"
    H5 = "H5"
    H6 = "H6"
    H7 = "H7"

    @property
    def statement(self) -> str:
        return _STATEMENTS[self]


_STATEMENTS = {
    Hypothesis.H1: "E ⊥ D_ebar",
    Hypothesis.H2: "E ⊥ D_ebar | C=0",
    Hypothesis.H3: "E ⊥ D_ebar | C=1",
    Hypothesis.H4: "E ⊥ C",
    Hypothesis.H5: "D_ebar ⊥ C",
    Hypothesis.H6: "D_ebar ⊥ C | E=ebar",
    Hypothesis.H7: "D_ebar ⊥ C | E=e",
}

HypothesisSet = FrozenSet[Hypothesis]


def hypothesis_set(*hypotheses: Hypothesis) -> HypothesisSet:
    return frozenset(hypotheses)


def parse_hypothesis(name: str) -> Hypothesis:
    try:
        return Hypothesis(name.upper())
    except (AttributeError, ValueError):
        raise ParameterError(f"unknown hypothesis {name!r}; expected H1..H7") from None


# (X, Y, slice) for the numeric product test; variables use the joint's
# assignment names and "1" means E=e for the exposure.
_NUMERIC_FORM = {
    Hypothesis.H1: ("E", "D", None),
    Hypothesis.H2: ("E", "D", ("C", 0)),
    Hypothesis.H3: ("E", "D", ("C", 1)),
    Hypothesis.H4: ("E", "C", None),
    Hypothesis.H5: ("D", "C", None),
    Hypothesis.H6: ("D", "C", ("E", "ebar")),
    Hypothesis.H7: ("D", "C", ("E", "e")),
}

_POSITIVE = {"E": "e", "C": 1, "D": 1}

# The eight cells as assignments, in the joint's canonical order.
_CELL_ASSIGNMENTS = tuple(
    {"E": e, "C": c, "D": d} for e in ("e", "ebar") for c in (0, 1) for d in (0, 1)
)


def _cell_indices(assignment: dict) -> tuple:
    """Ascending indices of the cells an assignment selects."""
    return tuple(
        i
        for i, cell in enumerate(_CELL_ASSIGNMENTS)
        if all(cell[var] == value for var, value in assignment.items())
    )


def _numeric_cells(hypothesis: Hypothesis) -> tuple:
    """Cell indices of (S, X∧Y∧S, X∧S, Y∧S) and the degenerate-slice message."""
    x, y, cond = _NUMERIC_FORM[hypothesis]
    given = {} if cond is None else {cond[0]: cond[1]}
    return (
        _cell_indices(given),
        _cell_indices({**given, x: _POSITIVE[x], y: _POSITIVE[y]}),
        _cell_indices({**given, x: _POSITIVE[x]}),
        _cell_indices({**given, y: _POSITIVE[y]}),
        f"{hypothesis.value} conditions on {given!r}, which has probability zero",
    )


_NUMERIC_CELLS = {h: _numeric_cells(h) for h in Hypothesis}


def _cell_sum(values, indices):
    # left to right from 0, as JointDistribution.prob adds, so float sums
    # round identically (builtin sum() may compensate float rounding)
    total = 0
    for i in indices:
        total = total + values[i]
    return total


def holds_numeric(joint: JointDistribution, hypothesis: Hypothesis, tol=0) -> bool:
    """Product test for a hypothesis on a joint, within ``tol``.

    The slice S and the events X∧Y, X, Y within it are fixed sets of cell
    indices.  On a rational joint the test runs on the joint's integer
    numerators N as |N_xy·N_s − N_x·N_y| <= tol·N_s², which is the product
    test multiplied through by P(S)²; one ``Fraction`` is built only to
    compare a nonzero difference with a nonzero tolerance.  On any other
    joint the cells are added in ascending order as ``JointDistribution.prob``
    adds them, so the result is the same bit for bit.

    Raises DegenerateEventError when the conditioning slice has zero mass.
    """
    _check_tolerance(tol)
    s, xy, x, y, degenerate = _NUMERIC_CELLS[hypothesis]
    numerators = joint._numerators
    if numerators is not None:
        n_s = _cell_sum(numerators, s)
        if n_s == 0:
            raise DegenerateEventError(degenerate)
        diff = abs(
            _cell_sum(numerators, xy) * n_s
            - _cell_sum(numerators, x) * _cell_sum(numerators, y)
        )
        if diff == 0:
            return True
        return tol != 0 and Fraction(diff, n_s * n_s) <= tol
    p = joint.p
    slice_mass = _cell_sum(p, s)
    if slice_mass == 0:
        raise DegenerateEventError(degenerate)
    q_xy = _cell_sum(p, xy) / slice_mass
    q_x = _cell_sum(p, x) / slice_mass
    q_y = _cell_sum(p, y) / slice_mass
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
    has zero mass.
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
    H = Hypothesis
    b0, b1, u0, u1 = v[-4:]
    if hypothesis is H.H2:
        return u0 * one, None, b0 * one, None
    if hypothesis is H.H3:
        return u1 * one, None, b1 * one, None
    if hypothesis is H.H6:
        return b0 * one, None, b1 * one, None
    if hypothesis is H.H7:
        return u0 * one, None, u1 * one, None

    if model == 1:
        a0, a1 = v[1], v[2]
        if hypothesis is H.H4:
            return a0 * one, None, a1 * one, None
        if hypothesis is H.H1:
            exposed0, exposed1, unexposed0, unexposed1 = _masses(1, v, one)
            return (
                u0 * exposed0 + u1 * exposed1,
                exposed0 + exposed1,
                b0 * unexposed0 + b1 * unexposed1,
                unexposed0 + unexposed1,
            )
        if hypothesis is H.H5:
            # P(D_ebar=1 | C=j) in parameter form; defined whatever t is.
            return u0 * a0 + b0 * (one - a0), None, u1 * a1 + b1 * (one - a1), None
    elif model == 2:
        a, c0, c1 = v[0], v[1], v[2]
        if hypothesis is H.H4:
            return c0 * one, None, c1 * one, None
        if hypothesis is H.H1:
            return u0 * (one - c1) + u1 * c1, None, b0 * (one - c0) + b1 * c0, None
        if hypothesis is H.H5:
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
    else:
        if hypothesis is H.H4:
            return 0, None, 0, None  # independent by structure
        t = v[1]
        if hypothesis is H.H1:
            return u0 * (one - t) + u1 * t, None, b0 * (one - t) + b1 * t, None
        a = v[0]
        if hypothesis is H.H5:
            return b0 * (one - a) + u0 * a, None, b1 * (one - a) + u1 * a, None
    raise ParameterError(f"unknown hypothesis {hypothesis!r}")


# Parameter slots, uniform across models so constraint bookkeeping is shared:
# slot 0 is the structural mixing weight (t or a), slots 1..2 the exposure or
# covariate response pair (a0/a1, c0/c1; unused in Model 3), slots 3..6 the
# outcome parameters b0, b1, u0, u1.
_SLOT_FIELDS = {
    1: ("t", "a0", "a1", "b0", "b1", "u0", "u1"),
    2: ("a", "c0", "c1", "b0", "b1", "u0", "u1"),
    3: ("a", "t", None, "b0", "b1", "u0", "u1"),
}

# Equality constraints as slot pairs, per model number.  H4 ties the pair
# (1, 2) where that pair exists and is vacuous for Model 3.
_B0, _B1, _U0, _U1 = 3, 4, 5, 6


def _equality_pairs(model: int, hypotheses: Iterable[Hypothesis]):
    pairs = []
    for h in hypotheses:
        if h is Hypothesis.H2:
            pairs.append((_U0, _B0))
        elif h is Hypothesis.H3:
            pairs.append((_U1, _B1))
        elif h is Hypothesis.H6:
            pairs.append((_B0, _B1))
        elif h is Hypothesis.H7:
            pairs.append((_U0, _U1))
        elif h is Hypothesis.H4 and model != 3:
            pairs.append((1, 2))
    return pairs


def substitution_reps(model: int, hypotheses: Iterable[Hypothesis]) -> tuple:
    """rep[j] = slot whose value slot j must copy under the equality constraints.

    Identity for unconstrained slots.  Classes among the outcome slots take
    the lowest member as representative; the exposure/covariate pair (1, 2)
    keeps slot 2 as representative, so H4 rewrites the C=0 side.
    """
    return _substitution_reps(model, frozenset(hypotheses))


@lru_cache(maxsize=None)
def _substitution_reps(model: int, hypotheses: HypothesisSet) -> tuple:
    # memoised: impose calls this for every sample it constrains, and there are
    # only 3 models x 2**7 hypothesis sets
    for h in hypotheses:
        if not isinstance(h, Hypothesis):
            raise ParameterError(
                f"{h!r} is not a Hypothesis; parse_hypothesis turns a name into one"
            )
    parent = list(range(7))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in _equality_pairs(model, hypotheses):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    rep = [0] * 7
    for j in range(7):
        root = find(j)
        members = [k for k in range(7) if find(k) == root]
        # No constraint ties slots 1..2 to the outcome slots, so a nontrivial
        # class is either {1, 2} (rewritten toward slot 2, the C=1 side) or a
        # subset of {3..6} (rewritten toward its lowest slot).
        rep[j] = 2 if members == [1, 2] else min(members)
    return tuple(rep)


def equational_member(hypotheses: HypothesisSet) -> Optional[Hypothesis]:
    """The single H1/H5 member of a set, if any.

    Raises ConstraintError when both are present: solving one for its
    designated parameter would in general break the other.
    """
    eqs = [h for h in (Hypothesis.H1, Hypothesis.H5) if h in hypotheses]
    if len(eqs) == 2:
        raise ConstraintError("H1 and H5 cannot be imposed together")
    return eqs[0] if eqs else None


def _solve(model: int, eq: Hypothesis, v, one) -> tuple:
    """(num, den) of the H1 solve for u1 or the H5 solve for u0, given the rest.

    ``v`` holds the seven slot values over the unit ``one``, as for
    ``joint._masses``: the values themselves with one = 1, or integer
    numerators over one = L.  The solved value is num / den; the quotients
    of the defining equality are cleared into den, so den is zero exactly
    where the plain solve divides by zero.  It is a product of slot values
    and their complements, so it is never negative.
    """
    if eq is Hypothesis.H1:
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
    names = [name for name in _SLOT_FIELDS[model] if name]
    if exact:
        values = [Fraction(10 + rng.next_u64() % 981, 1000) for _ in names]
    else:
        values = [0.01 + rng.next_float() * 0.98 for _ in names]
    return cls(**dict(zip(names, values)))


def _slot_values(params: ModelParams) -> list:
    fields = _SLOT_FIELDS[model_number(params)]
    return [getattr(params, name) if name else 0 for name in fields]


def _params_from_slots(model: int, values) -> ModelParams:
    fields = _SLOT_FIELDS[model]
    return params_type(model)(**{name: values[j] for j, name in enumerate(fields) if name})


def impose(
    base: ModelParams,
    hypotheses: HypothesisSet,
    rng: SplitMix64,
    *,
    budget: int = 1000,
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

    Raises ParameterError for a member that is not a ``Hypothesis`` and for
    a budget that is not a nonnegative integer.
    """
    model = model_number(base)
    _check_integer("budget", budget)
    if budget < 0:
        raise ParameterError(f"budget must be nonnegative, got {budget!r}")
    hypotheses = frozenset(hypotheses)
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
    """The slot ``eq`` is solved for (u1 for H1, u0 for H5).

    Raises ConstraintError when an equality constraint already ties that slot.
    """
    slot = _U1 if eq is Hypothesis.H1 else _U0
    if rep[slot] != slot or any(j != slot and rep[j] == slot for j in range(7)):
        raise ConstraintError(
            f"cannot solve {eq.value} for slot "
            f"{_SLOT_FIELDS[model][slot]}: an equality constraint already ties it"
        )
    return slot


def _exhausted(eq: Hypothesis, budget: int) -> ConstraintError:
    return ConstraintError(f"no parameters satisfying {eq.value} found within {budget} redraws")

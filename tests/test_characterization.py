"""The factor table behind falsify_converse, proved with sympy.

Each conclusion's numerator is built from the library's own algebra on
symbols: ``joint._cells`` gives the eight cells as polynomials in the model's
parameters, and ``joint._exact_pairs`` the proportions that the exact
``classify_covariate`` compares and the pure kernel's exact campaigns
cross-multiply, so the numerator is what both compute.  Factored over the
rationals, every factor must be a slot, a slot minus 1 (both nonzero in the
open unit box), or ± the ``_algebraic_sides`` residual of a hypothesis the
table lists, and every listed residual must occur.

The H1/H5 solve that campaigns impose (``hypotheses._solve``) is proved
against the same sides: with its num/den in the solved slot, each residual
simplifies to 0.
"""

import pytest
import sympy

from confound_kit import Conclusion, Hypothesis as H, params_type
from confound_kit.hypotheses import _algebraic_sides, _solve
from confound_kit.joint import _cells, _exact_pairs
from confound_kit.theorems import _VANISHING_FACTORS


def _numerator(model, conclusion, slots):
    h, hd, o, od, s, sd = _exact_pairs(_cells(model, slots, 1))
    if conclusion is Conclusion.NO_CONFOUNDING:
        return sympy.expand(h * od - o * hd)  # the bias, cleared
    return sympy.expand(s * od - o * sd)  # standardized - observed, cleared


def _residual(model, slots, hypothesis):
    lhs, lhs_den, rhs, rhs_den = _algebraic_sides(model, slots, 1, hypothesis)
    if lhs_den is None:
        return sympy.expand(lhs - rhs)
    return sympy.expand(lhs * rhs_den - rhs * lhs_den)


def _named_factors(model, conclusion, listed):
    """{hypothesis: factor} for the numerator's factors that can vanish in the
    open box; fails on a factor that is no slot, slot minus 1 or listed residual."""
    slots = sympy.symbols(params_type(model)._fields)
    numerator = _numerator(model, conclusion, slots)
    if not listed:
        assert numerator == 0
        return {}
    residuals = {h: _residual(model, slots, h) for h in listed}
    named = {}
    for factor, _ in sympy.factor_list(numerator)[1]:
        if factor in slots or any(sympy.expand(factor - (x - 1)) == 0 for x in slots):
            continue
        matches = [h for h, r in residuals.items() if sympy.expand((factor - r) * (factor + r)) == 0]
        assert matches, f"factor {factor} is no slot, slot minus 1 or listed residual"
        named.update(dict.fromkeys(matches, factor))
    return named


@pytest.mark.parametrize("model, conclusion", sorted(_VANISHING_FACTORS, key=lambda k: (k[0], k[1].value)))
def test_vanishing_factors_are_the_listed_residuals(model, conclusion):
    listed = _VANISHING_FACTORS[model, conclusion]
    assert set(_named_factors(model, conclusion, listed)) == set(listed)


def test_a_changed_table_entry_fails():
    for model, conclusion, listed in [
        (1, Conclusion.IRRELEVANT_FACTOR, (H.H4, H.H7)),  # b0 - b1 is left unnamed
        (2, Conclusion.IRRELEVANT_FACTOR, (H.H4, H.H6, H.H7)),  # u0 - u1 is no factor
        (3, Conclusion.NO_CONFOUNDING, (H.H5,)),
        (3, Conclusion.IRRELEVANT_FACTOR, (H.H4,)),  # the numerator is 0
    ]:
        with pytest.raises(AssertionError):
            assert set(_named_factors(model, conclusion, listed)) == set(listed)


@pytest.mark.parametrize("model", [1, 2, 3])
@pytest.mark.parametrize("hypothesis", [H.H1, H.H5])
def test_solve_makes_the_sides_equal(model, hypothesis):
    # _solve reads seven slots (model 3 has no slot 2); the sides read the
    # model's own values, six in model 3
    fields = params_type(model)._fields
    slots = list(sympy.symbols(fields))
    if model == 3:
        slots.insert(2, 0)
    num, den = _solve(model, hypothesis, slots, 1)
    slots[hypothesis._solves] = num / den
    values = [x for j, x in enumerate(slots) if model != 3 or j != 2]
    assert len(values) == len(fields)
    assert sympy.cancel(_residual(model, values, hypothesis)) == 0

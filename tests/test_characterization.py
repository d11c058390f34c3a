"""The factor table behind falsify_converse, proved with sympy.

Each conclusion's numerator is built from the library's own algebra on
symbols: ``joint._cells`` gives the eight cells as polynomials in the model's
parameters, and ``measures._exact_pairs`` the proportions that the exact
``classify_covariate`` compares, so the numerator is what that comparison
cross-multiplies.  Factored over the rationals, every factor must be a slot,
a slot minus 1 (both nonzero in the open unit box), or ± the
``_algebraic_sides`` residual of a hypothesis the table lists, and every
listed residual must occur.
"""

import pytest
import sympy

from confound_kit import Conclusion, Hypothesis as H, params_type
from confound_kit.hypotheses import _algebraic_sides
from confound_kit.joint import _cells
from confound_kit.measures import _exact_pairs
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

"""Pure-Python campaign kernel: the reference sampler of both campaign modes.

``run_campaign`` runs float campaigns.  A sample is the library route in a
plain loop: the draws of ``random_params``, the substitution and the H1/H5
solve of ``impose`` (``hypotheses._solve``, divided once) and the cells of
``build_joint`` (``joint._cells``), so sample i equals that route bit for
bit.  The compiled kernel in _ckernel.c transliterates the same helpers, in
the same operand order, over batches of samples; ``_masses`` and ``_solve``
are one C definition over the unit ``one``, which both of its campaign modes
use.  Both kernels must produce bit-identical results, so a change to one of
those helpers has to be mirrored there; the extension is compiled with FMA
contraction disabled for the same reason.  This loop draws every slot of
every attempt; the compiled kernel skips the draws no position reads (slots
an equality ties to another, and the one the H1/H5 solve overwrites).  The
bits still match: a draw advances the stream by a fixed gamma, so each
slot's draw is the same function of the attempt's starting state whether or
not the slots before it were drawn.

``grid_tally`` runs exact campaigns, on the thousandths grid in Python
integers: the draws, the H1/H5 solve and its redraws, the cells of
``joint._cells`` and the conclusion pair of ``_exact_violation``.  A row
with a solve is scaled to the common denominator q = 1000 * den of its
solved slot, and the cells are divided by den**2, which every one of them
carries, so they stay over 1000**2 * q; without a solve den = 1.  The
compiled kernel runs the same tally in fixed-width integers (64 and 128
bits without a solve, 128-bit cells and 320-bit pairs with one), keeps the
maximum as a 320-bit pair either way and returns the same unreduced one.
"""

import fractions
import operator

from . import errors
from ._rng import _DOUBLE_SCALE, _GOLDEN, _MASK64, _mix
from .hypotheses import _H1, _H5, _SLOT_FIELDS, _solve
from .joint import _cells

# equational-constraint codes
EQ_NONE, EQ_H1, EQ_H5 = 0, 1, 2
# conclusion codes
IRRELEVANT, NO_CONFOUNDING = 0, 1
# exact draws are numerators over this denominator
_GRID = 1000
# each model's drawn slots in draw order: those with a field (model 3 has no slot 2)
_DRAW_SLOTS = {m: tuple(j for j, f in enumerate(fields) if f) for m, fields in _SLOT_FIELDS.items()}


def _check_codes(model, rep, eq, conclusion, budget):
    """The H1/H5 member of code eq, or None under EQ_NONE.

    Raises ValueError unless rep is 7 slot indices in 0..6, model is 1, 2 or
    3, eq and conclusion are codes of this module, budget is non-negative
    and no other position shares the solved slot's draw, and TypeError when
    a code or the budget is not an int (the checks of _ckernel.c's
    read_codes, in its order).
    """
    # operator.index takes what _ckernel.c's read_int takes: an int, not a float
    if len(rep) != 7 or not all(0 <= r <= 6 for r in rep):
        raise ValueError("rep must be 7 slot indices in 0..6")
    # True == 1, yet it is no model number
    if isinstance(model, bool) or operator.index(model) not in (1, 2, 3):
        raise ValueError("model must be 1, 2 or 3")
    if operator.index(eq) not in (EQ_NONE, EQ_H1, EQ_H5):
        raise ValueError("eq must be EQ_NONE, EQ_H1 or EQ_H5")
    if operator.index(conclusion) not in (IRRELEVANT, NO_CONFOUNDING):
        raise ValueError("conclusion must be IRRELEVANT or NO_CONFOUNDING")
    if operator.index(budget) < 0:
        raise ValueError("budget must be non-negative")
    member = {EQ_H1: _H1, EQ_H5: _H5}.get(eq)
    if member is not None:
        solved = member._solves
        if rep[solved] != solved or list(rep).count(solved) > 1:
            raise ValueError("rep must not tie the slot eq solves for")
    return member


def run_campaign(model, rep, eq, conclusion, start, count, seed, tol, budget):
    """Evaluate samples [start, start+count) of one constrained campaign.

    rep[j] is the slot whose drawn value slot j takes (identity when
    unconstrained); eq and conclusion use this module's integer codes.
    Returns (max_violation, failures, exhausted), where failures counts
    samples with violation > tol and exhausted counts samples whose
    equational solve never landed in [0, 1] within the redraw budget.
    Raises ValueError unless rep is 7 slot indices in 0..6, model is 1, 2
    or 3, eq and conclusion are codes of this module, budget is
    non-negative and, under H1 or H5, rep leaves the solved slot untied
    (rep[s] == s and no other position reads slot s); and TypeError when a
    code or the budget is not an int.
    """
    member = _check_codes(model, rep, eq, conclusion, budget)
    solved = None if member is None else member._solves
    draw_slots = _DRAW_SLOTS[model]
    q = [0.0] * 7
    max_violation = 0.0
    failures = 0
    exhausted = 0
    for i in range(start, start + count):
        state = _mix((seed + (i + 1) * _GOLDEN) & _MASK64)
        for _ in range(budget + 1):
            for j in draw_slots:
                state = (state + _GOLDEN) & _MASK64
                q[j] = 0.01 + ((_mix(state) >> 11) * _DOUBLE_SCALE) * 0.98
            v = [q[r] for r in rep]
            if member is None:
                break
            # every slot is drawn from [0.01, 0.99], so den > 0
            num, den = _solve(model, member, v, 1)
            v[solved] = num / den
            if 0.0 <= v[solved] <= 1.0:
                break
        else:
            exhausted += 1
            continue
        p0, p1, p2, p3, p4, p5, p6, p7 = _cells(model, v, 1)
        pe = p0 + p1 + p2 + p3
        pu = p4 + p5 + p6 + p7
        obs = (p5 + p7) / pu
        if conclusion == NO_CONFOUNDING:
            violation = (p1 + p3) / pe - obs
        else:
            violation = (
                (p5 / (p4 + p5)) * ((p0 + p1) / pe)
                + (p7 / (p6 + p7)) * ((p2 + p3) / pe)
                - obs
            )
        if violation < 0.0:
            violation = -violation
        if violation > tol:
            failures += 1
        if violation > max_violation:
            max_violation = violation
    return max_violation, failures, exhausted


def grid_tally(model, rep, eq, conclusion, seed, start, count, budget):
    """Tally the exact violations of samples [start, start+count) on the grid.

    A sample's row holds its draws as numerators over ``_GRID`` in
    [10, 990], each ``10 + u64 % 981`` of ``sample_stream(seed, index)``:
    attempt k is the k-th round of the model's draws (6 in model 3, which
    draws no slot 2, else 7), slot j takes the value drawn for slot rep[j],
    and model 3's slot 2 is 0.  Under H1 or H5 the ``hypotheses._solve``
    solve of the row gives the solved slot as num / den, and the sample
    redraws, at most ``budget`` times, while not (den and 0 <= num <= den).
    Every slot is then scaled to the common denominator q = _GRID * den
    (den = 1 without a solve), and the violation is ``_exact_violation`` on
    the row's ``joint._cells`` over q, divided by den**2.

    Returns (failures, max_num, max_den, exhausted): the samples with a
    nonzero violation, the first largest |violation| as the unreduced pair
    max_num / max_den, or (0, 1) when none fails, and the samples whose
    solve never landed in [0, 1].  Seed and sample index are reduced modulo
    2**64.  Raises what ``run_campaign`` raises for its rep, codes and
    budget, and ValueError for a negative count.
    """
    member = _check_codes(model, rep, eq, conclusion, budget)
    if count < 0:
        raise ValueError("count must be non-negative")
    solved = None if member is None else member._solves
    irrelevant = conclusion == IRRELEVANT
    draw_slots = _DRAW_SLOTS[model]
    n = [0] * 7
    failures, max_num, max_den, exhausted = 0, 0, 1, 0
    for i in range(start, start + count):
        state = _mix((seed + (i + 1) * _GOLDEN) & _MASK64)
        for _ in range(budget + 1):
            for j in draw_slots:
                # _mix inlined
                state = (state + _GOLDEN) & _MASK64
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                n[j] = 10 + (z ^ (z >> 31)) % 981
            x = [n[r] for r in rep]
            if member is None:
                scale = 1
                break
            num, scale = _solve(model, member, x, _GRID)
            if scale and 0 <= num <= scale:
                x = [v * scale for v in x]
                x[solved] = num * _GRID
                break
        else:
            exhausted += 1
            continue
        q = _GRID * scale
        num, den = _exact_violation(_cells(model, x, q), q, scale * scale, irrelevant)
        if num:
            failures += 1  # exact mode compares at tol = 0
            if num < 0:
                num = -num
            if num * max_den > max_num * den:
                max_num, max_den = num, den
    return failures, max_num, max_den, exhausted


def _exact_violation(cells, one, scale, irrelevant):
    """(num, den): the signed violation num / den of the conclusion (the
    standardized minus the observed proportion, else the bias) on the
    integer cells of ``joint._cells`` over ``one``**3, each divided by
    ``scale`` exactly, unreduced.

    Every drawn slot lies strictly inside (0, 1) and a solved slot enters no
    margin, so P(E=e), P(E=ebar) and all four (E, C) strata are positive:
    no measure is undefined and no stratum is skipped.  Raises
    ParameterError unless the cells sum to one**3 and each is a multiple of
    scale.
    """
    p0, p1, p2, p3, p4, p5, p6, p7 = cells
    pe = p0 + p1 + p2 + p3
    pu = p4 + p5 + p6 + p7
    if pe + pu != one * one * one or (scale != 1 and any(c % scale for c in cells)):
        total = fractions.Fraction(pe + pu, one**3)
        raise errors.ParameterError(
            f"exact cell weights sum to {total}, not 1, or are not all multiples of {scale}"
        )
    if scale != 1:
        p0, p1, p2, p3, p4, p5, p6, p7 = (c // scale for c in cells)
        pe //= scale
        pu //= scale
    if irrelevant:
        stratum0, stratum1 = p4 + p5, p6 + p7
        num = (p5 * (p0 + p1) * stratum1 + p7 * (p2 + p3) * stratum0) * pu - (
            p5 + p7
        ) * pe * stratum0 * stratum1
        return num, pe * pu * stratum0 * stratum1
    return (p1 + p3) * pu - (p5 + p7) * pe, pe * pu

"""Pure-Python campaign kernel: the reference sampler of both campaign modes.

``run_campaign`` runs float campaigns.  A sample is the library route in a
plain loop: the draws of ``random_params``, the substitution and the H1/H5
solve of ``impose`` (``hypotheses._solve``, divided once) and the cells of
``build_joint`` (``joint._cells``), so sample i equals that route bit for
bit.  The compiled kernel in _ckernel.c transliterates the same helpers, in
the same operand order, over batches of samples.  Both must produce
bit-identical results, so a change to one of those helpers has to be
mirrored there; the extension is compiled with FMA contraction disabled for
the same reason.  This loop draws every slot of every attempt; the compiled
kernel skips the draws no position reads (slots an equality ties to another,
and the one the H1/H5 solve overwrites).  The bits still match: a draw
advances the stream by a fixed gamma, so each slot's draw is the same
function of the attempt's starting state whether or not the slots before it
were drawn.

Exact campaigns run on the thousandths grid in Python integers.
``grid_rows`` gives them their draws, a block of samples per call;
``grid_tally`` runs a whole campaign of a clause without an H1/H5 member:
the draws, the cells of ``joint._cells`` and the conclusion pair of
``_exact_violation``, which ``theorems._exact_campaign`` also runs after
its H1/H5 solves.  The compiled kernel runs the same tally in 64- and
128-bit integers and returns the same unreduced maximum.
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


def _check_rep(rep):
    """Raise ValueError unless rep is 7 slot indices in 0..6 (read_rep in C)."""
    if len(rep) != 7 or not all(0 <= r <= 6 for r in rep):
        raise ValueError("rep must be 7 slot indices in 0..6")


def _check_model(model):
    # True == 1, yet it is no model number
    if isinstance(model, bool) or operator.index(model) not in (1, 2, 3):
        raise ValueError("model must be 1, 2 or 3")


def _check_conclusion(conclusion):
    if operator.index(conclusion) not in (IRRELEVANT, NO_CONFOUNDING):
        raise ValueError("conclusion must be IRRELEVANT or NO_CONFOUNDING")


def _check_count(count):
    if count < 0:
        raise ValueError("count must be non-negative")


def run_campaign(model, rep, eq, conclusion, start, count, seed, tol, budget):
    """Evaluate samples [start, start+count) of one constrained campaign.

    rep[j] is the slot whose drawn value slot j takes (identity when
    unconstrained); eq and conclusion use this module's integer codes.
    Returns (max_violation, failures, exhausted), where failures counts
    samples with violation > tol and exhausted counts samples whose
    equational solve never landed in [0, 1] within the redraw budget.
    Raises ValueError unless rep is 7 slot indices in 0..6, model is 1, 2
    or 3, eq and conclusion are codes of this module and budget is
    non-negative, and TypeError when a code or the budget is not an int.
    """
    # operator.index takes what _ckernel.c's read_int takes: an int, not a float
    _check_rep(rep)
    _check_model(model)
    if operator.index(eq) not in (EQ_NONE, EQ_H1, EQ_H5):
        raise ValueError("eq must be EQ_NONE, EQ_H1 or EQ_H5")
    _check_conclusion(conclusion)
    if operator.index(budget) < 0:
        raise ValueError("budget must be non-negative")
    member = {EQ_H1: _H1, EQ_H5: _H5}.get(eq)
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


def grid_rows(model, rep, seed, start, count, attempt):
    """Attempt ``attempt``'s draws of samples [start, start+count) as grid rows.

    Row k holds sample start+k's draws as numerators over 1000 in [10, 990],
    each ``10 + u64 % 981`` as ``sample_stream(seed, start+k).next_u64()``
    yields them after ``attempt`` rounds of the model's draws (6 in model 3,
    which draws no slot 2, else 7).  Slot j of a row holds the value drawn
    for slot rep[j], with 0 for model 3's slot 2.  A draw advances the state
    by the golden gamma, so the state after the skipped rounds is one
    multiply away and no draw is replayed.  Seed, start and attempt are
    reduced modulo 2**64.  Returns a list of ``count`` lists of 7 ints;
    raises ValueError for a negative count, unless rep is 7 slot indices
    in 0..6, or unless model is 1, 2 or 3.
    """
    _check_rep(rep)
    _check_model(model)
    _check_count(count)
    return list(_rows(model, rep, seed, start, count, attempt))


def _rows(model, rep, seed, start, count, attempt):
    """The rows of ``grid_rows``, one at a time."""
    draw_slots = _DRAW_SLOTS[model]
    skip = attempt * len(draw_slots) * _GOLDEN
    n = [0] * 7
    for i in range(start, start + count):
        state = _mix((seed + (i + 1) * _GOLDEN) & _MASK64) + skip
        for j in draw_slots:
            # _mix inlined
            state = (state + _GOLDEN) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            n[j] = 10 + (z ^ (z >> 31)) % 981
        yield [n[r] for r in rep]


def grid_tally(model, rep, conclusion, seed, start, count):
    """Tally the exact violations of samples [start, start+count) on the grid.

    Each sample is its ``grid_rows`` row of attempt 0, with no H1/H5 solve,
    as numerators over ``_GRID``; its violation is ``_exact_violation`` on
    the row's cells.  Returns (failures, max_num, max_den): the samples with
    a nonzero violation, and the first largest |violation| as the unreduced
    pair max_num / max_den, or (0, 1) when none fails.  Raises ValueError
    for a negative count, unless rep is 7 slot indices in 0..6, model is 1,
    2 or 3 and conclusion is a code of this module.
    """
    _check_rep(rep)
    _check_model(model)
    _check_conclusion(conclusion)
    _check_count(count)
    irrelevant = conclusion == IRRELEVANT
    failures, max_num, max_den = 0, 0, 1
    for x in _rows(model, rep, seed, start, count, 0):
        num, den = _exact_violation(_cells(model, x, _GRID), _GRID, irrelevant)
        if num:
            failures += 1  # exact mode compares at tol = 0
            if num < 0:
                num = -num
            if num * max_den > max_num * den:
                max_num, max_den = num, den
    return failures, max_num, max_den


def _exact_violation(cells, one, irrelevant):
    """(num, den): the signed violation num / den of the conclusion (the
    standardized minus the observed proportion, else the bias) on the
    integer cells of ``joint._cells`` over ``one``**3, unreduced.

    Every drawn slot lies strictly inside (0, 1) and a solved slot enters no
    margin, so P(E=e), P(E=ebar) and all four (E, C) strata are positive:
    no measure is undefined and no stratum is skipped.  Raises
    ParameterError unless the cells sum to one**3.
    """
    p0, p1, p2, p3, p4, p5, p6, p7 = cells
    pe = p0 + p1 + p2 + p3
    pu = p4 + p5 + p6 + p7
    if pe + pu != one * one * one:
        total = fractions.Fraction(pe + pu, one**3)
        raise errors.ParameterError(f"exact cell weights sum to {total}, not 1")
    if irrelevant:
        stratum0, stratum1 = p4 + p5, p6 + p7
        num = (p5 * (p0 + p1) * stratum1 + p7 * (p2 + p3) * stratum0) * pu - (
            p5 + p7
        ) * pe * stratum0 * stratum1
        return num, pe * pu * stratum0 * stratum1
    return (p1 + p3) * pu - (p5 + p7) * pe, pe * pu


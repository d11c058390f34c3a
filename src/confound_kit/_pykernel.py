"""Pure-Python campaign kernel: the reference sampler of both campaign modes.

``run_campaign`` runs float campaigns.  A sample is the library route in a
plain loop: the draws of ``random_params``, the substitution and the H1/H5
solve of ``impose`` (``hypotheses._solve``, divided once), the cells of
``build_joint`` (``joint._cells``) and the proportions the verdict path
compares (``joint._float_proportions``), so sample i equals that route bit
for bit.  The compiled kernel in _ckernel.c transliterates the same helpers,
in the same operand order, over batches of samples; ``_masses`` and
``_solve`` are one C definition over the unit ``one``, which both of its
campaign modes use.  Both kernels must produce bit-identical results, so a
change to one of those helpers has to be mirrored there; the extension is
compiled with FMA contraction disabled for the same reason.  This loop draws
every slot of every attempt; the compiled kernel skips the draws no
position reads (slots an equality ties to another, and the one the H1/H5
solve overwrites).  The bits still match: a draw advances the stream by a
fixed gamma, so each slot's draw is the same function of the attempt's
starting state whether or not the slots before it were drawn.

``grid_tally`` runs exact campaigns, on the thousandths grid in Python
integers: the draws, the H1/H5 solve and its redraws, the cells of
``joint._cells`` and the integer proportions of ``joint._exact_pairs`` that
the exact verdict cross-multiplies.  A row with a solve is scaled to the
common denominator q = 1000 * den of its solved slot, and the cells are
divided by den**2, which every one of them carries, so they stay over
1000**2 * q; without a solve den = 1.  The compiled kernel runs the same
tally in fixed-width integers (64 and 128 bits without a solve, 128-bit
cells and 320-bit pairs with one), keeps the maximum as a 320-bit pair
either way and returns the same unreduced one.
"""

import fractions
import operator

from . import errors
from ._rng import _DOUBLE_SCALE, _GOLDEN, _MASK64, _mix, _sample_state
from .hypotheses import _H1, _H5, _SLOT_FIELDS, _solve
from .joint import _cells, _exact_pairs, _float_proportions
from .kernel import EQ_H1, EQ_H5, EQ_NONE, IRRELEVANT, NO_CONFOUNDING

# exact draws are numerators over this denominator
_GRID = 1000
# each model's drawn slots in draw order: those with a field (model 3 has no slot 2)
_DRAW_SLOTS = {m: tuple(j for j, f in enumerate(fields) if f) for m, fields in _SLOT_FIELDS.items()}


# _ckernel.c's argument readers: each reader here takes and refuses what its
# C namesake does, with the same exception type, so no argument runs on one
# backend and fails on the other.  Where an argument has the wrong type, both
# raise the TypeError of Python's own conversion (operator.index here,
# __index__ in C), with the same message.

_REP_ERROR = "rep must be 7 slot indices in 0..6"
_MODEL_ERROR = "model must be 1, 2 or 3"


def _read_int(value, lo, hi, what):
    """read_int: an __index__ object in [lo, hi] (hi None: no upper bound),
    else ValueError(what); TypeError for any other object."""
    value = operator.index(value)
    if value < lo or (hi is not None and value > hi):
        raise ValueError(what)
    return value


def _read_samples(start, count, seed):
    """read_samples: (start, count, seed), start and seed any integer
    reduced modulo 2**64, count an integer in [0, 2**63); OverflowError for a
    count outside the signed 64-bit range, ValueError for a negative one."""
    start = operator.index(start) & _MASK64
    count = operator.index(count)
    if not -(1 << 63) <= count < 1 << 63:
        raise OverflowError("int too big to convert")
    if count < 0:
        raise ValueError("count must be non-negative")
    return start, count, operator.index(seed) & _MASK64


def _read_double(value):
    """read_double: a float, or an object with __float__ or __index__."""
    kind = type(value)
    if not (hasattr(kind, "__float__") or hasattr(kind, "__index__")):
        raise TypeError(f"must be real number, not {kind.__name__}")
    return float(value)


def _read_codes(model, rep, eq, conclusion, budget):
    """read_codes: (model, rep, eq, conclusion, budget, member) as ints, and
    the H1/H5 member of code eq, or None under EQ_NONE.

    Raises ValueError unless rep is 7 slot indices in 0..6, model is 1, 2 or
    3, eq and conclusion are codes of this module, budget is non-negative
    and no other position shares the solved slot's draw, and TypeError when
    rep is no sequence or a code, a slot index or the budget has no
    __index__, in _ckernel.c's order.
    """
    try:
        rep = tuple(rep)
    except TypeError:
        raise TypeError("rep must be a sequence") from None
    if len(rep) != 7:
        raise ValueError(_REP_ERROR)
    rep = tuple(_read_int(r, 0, 6, _REP_ERROR) for r in rep)
    # True == 1, yet it is no model number
    if isinstance(model, bool):
        raise ValueError(_MODEL_ERROR)
    model = _read_int(model, 1, 3, _MODEL_ERROR)
    eq = _read_int(eq, EQ_NONE, EQ_H5, "eq must be EQ_NONE, EQ_H1 or EQ_H5")
    conclusion = _read_int(
        conclusion, IRRELEVANT, NO_CONFOUNDING, "conclusion must be IRRELEVANT or NO_CONFOUNDING"
    )
    budget = _read_int(budget, 0, None, "budget must be non-negative")
    member = {EQ_H1: _H1, EQ_H5: _H5}.get(eq)
    if member is not None:
        solved = member._solves
        if rep[solved] != solved or rep.count(solved) > 1:
            raise ValueError("rep must not tie the slot eq solves for")
    return model, rep, eq, conclusion, budget, member


def run_campaign(model, rep, eq, conclusion, start, count, seed, tol, budget):
    """Evaluate samples [start, start+count) of one constrained campaign.

    rep[j] is the slot whose drawn value slot j takes (identity when
    unconstrained); eq and conclusion use this module's integer codes.
    Returns (max_violation, failures, exhausted), where failures counts
    samples with violation > tol and exhausted counts samples whose
    equational solve never landed in [0, 1] within the redraw budget.
    Takes start, count and seed as ``grid_tally`` does, at the same
    positions and by the same rules: start and seed are any integers,
    reduced modulo 2**64, and count an integer in [0, 2**63)
    (OverflowError outside the signed 64-bit range, ValueError below 0);
    tol is a real number.  Raises ValueError unless rep is 7 slot indices
    in 0..6, model is 1, 2 or 3, eq and conclusion are codes of this
    module, budget is non-negative and, under H1 or H5, rep leaves the
    solved slot untied (rep[s] == s and no other position reads slot s);
    and TypeError when an argument is of the wrong kind.
    """
    start, count, seed = _read_samples(start, count, seed)
    tol = _read_double(tol)
    model, rep, eq, conclusion, budget, member = _read_codes(model, rep, eq, conclusion, budget)
    solved = None if member is None else member._solves
    no_confounding = conclusion == NO_CONFOUNDING
    draw_slots = _DRAW_SLOTS[model]
    q = [0.0] * 7
    max_violation = 0.0
    failures = 0
    exhausted = 0
    for i in range(start, start + count):
        state = _sample_state(seed, i)
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
        hypothetical, observed, standardized = _float_proportions(_cells(model, v, 1))
        violation = (hypothetical if no_confounding else standardized) - observed
        if violation < 0.0:
            violation = -violation
        if violation > tol:
            failures += 1
        if violation > max_violation:
            max_violation = violation
    return max_violation, failures, exhausted


def grid_tally(model, rep, eq, conclusion, start, count, seed, budget):
    """Tally the exact violations of samples [start, start+count) on the grid.

    A sample's row holds its draws as numerators over ``_GRID`` in
    [10, 990], each ``10 + u64 % 981`` of ``sample_stream(seed, index)``:
    attempt k is the k-th round of the model's draws (6 in model 3, which
    draws no slot 2, else 7), slot j takes the value drawn for slot rep[j],
    and model 3's slot 2 is 0.  Under H1 or H5 the ``hypotheses._solve``
    solve of the row gives the solved slot as num / den, and the sample
    redraws, at most ``budget`` times, while not (den and 0 <= num <= den).
    Every slot is then scaled to the common denominator q = _GRID * den
    (den = 1 without a solve), and the row's ``joint._cells`` over q,
    divided by den**2, give the proportions h/hd, o/od and s/sd of
    ``joint._exact_pairs``; the violation is the unreduced difference
    (h·od − o·hd) / (hd·od) for no confounding, else (s·od − o·sd) / (sd·od).
    Every drawn slot lies strictly inside (0, 1) and a solved slot enters no
    margin, so every stratum has mass and no denominator is zero.

    Returns (failures, max_num, max_den, exhausted): the samples with a
    nonzero violation, the first largest |violation| as the unreduced pair
    max_num / max_den, or (0, 1) when none fails, and the samples whose
    solve never landed in [0, 1].  Takes and reads start, count, seed and
    its codes as ``run_campaign`` does, and raises what it raises for them,
    and ParameterError should the cells not sum to one or carry den**2.
    """
    start, count, seed = _read_samples(start, count, seed)
    model, rep, eq, conclusion, budget, member = _read_codes(model, rep, eq, conclusion, budget)
    solved = None if member is None else member._solves
    irrelevant = conclusion == IRRELEVANT
    draw_slots = _DRAW_SLOTS[model]
    n = [0] * 7
    failures, max_num, max_den, exhausted = 0, 0, 1, 0
    for i in range(start, start + count):
        state = _sample_state(seed, i)
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
        cells = _cells(model, x, q)
        scale *= scale
        # the division below is exact only on cells that pass this check
        if sum(cells) != q * q * q or (scale != 1 and any(c % scale for c in cells)):
            total = fractions.Fraction(sum(cells), q * q * q)
            raise errors.ParameterError(
                f"exact cell weights sum to {total}, not 1, or are not all multiples of {scale}"
            )
        if scale != 1:
            cells = [c // scale for c in cells]
        h, hd, o, od, s, sd = _exact_pairs(cells)
        if irrelevant:
            num, den = s * od - o * sd, sd * od
        else:
            num, den = h * od - o * hd, hd * od
        if num:
            failures += 1  # exact mode compares at tol = 0
            if num < 0:
                num = -num
            if num * max_den > max_num * den:
                max_num, max_den = num, den
    return failures, max_num, max_den, exhausted

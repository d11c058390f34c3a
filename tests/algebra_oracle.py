"""The model algebra as plain products and quotients: the test oracle.

``joint_from_model1/2/3``, ``build_joint``, ``_algebraic_sides`` and
``closed_form_summary`` below are the library's expressions before it ran
rational parameters on integer numerators, kept verbatim.  They multiply and
divide the parameters themselves (``Fraction``s, floats or ints), so they
share no code with the library's ``_masses`` expansion, and the property
tests compare the library against them value for value, type for type and
error for error.

``conclusion_gap`` is a campaign conclusion as the kernels once wrote it
out, in the cells' operand order: bit for bit the float kernels' violation,
and exact on ``Fraction`` cells, sharing no code with ``joint``'s
proportions, which the verdict path and the pure kernel both read.

``_solve_h1`` and ``_solve_h5`` are the H1/H5 solves as plain quotients,
kept verbatim from before the library cleared their divisions into one
(num, den) pair (``hypotheses._solve``), except model 3's H5 solve: its
int-only term divided to a float and made a Fraction solve a float, so it is
one quotient now.  ``impose`` is the library's imposition solving through
them.
"""

from confound_kit import (
    DegenerateEventError,
    Hypothesis,
    JointDistribution,
    MeasureSummary,
    Model1Params,
    Model2Params,
    Model3Params,
    ModelParams,
    ParameterError,
    model_number,
    random_params,
)
from confound_kit.hypotheses import (
    _exhausted,
    _params_from_slots,
    _slot_values,
    _solved_slot,
    equational_member,
    substitution_reps,
)


def holds_algebraic(params: ModelParams, hypothesis: Hypothesis, tol=0) -> bool:
    """The closed-form test on the sides below, for a valid tolerance."""
    lhs, rhs = _algebraic_sides(params, hypothesis)
    return abs(lhs - rhs) <= tol


def joint_from_model1(params: Model1Params) -> JointDistribution:
    """Expand covariate-influences-exposure parameters to the joint."""
    t, a0, a1 = params.t, params.a0, params.a1
    b0, b1, u0, u1 = params.b0, params.b1, params.u0, params.u1
    tb = 1 - t
    return JointDistribution(
        (
            tb * a0 * (1 - u0),
            tb * a0 * u0,
            t * a1 * (1 - u1),
            t * a1 * u1,
            tb * (1 - a0) * (1 - b0),
            tb * (1 - a0) * b0,
            t * (1 - a1) * (1 - b1),
            t * (1 - a1) * b1,
        )
    )


def joint_from_model2(params: Model2Params) -> JointDistribution:
    """Expand exposure-influences-covariate parameters to the joint."""
    a, c0, c1 = params.a, params.c0, params.c1
    b0, b1, u0, u1 = params.b0, params.b1, params.u0, params.u1
    ab = 1 - a
    return JointDistribution(
        (
            a * (1 - c1) * (1 - u0),
            a * (1 - c1) * u0,
            a * c1 * (1 - u1),
            a * c1 * u1,
            ab * (1 - c0) * (1 - b0),
            ab * (1 - c0) * b0,
            ab * c0 * (1 - b1),
            ab * c0 * b1,
        )
    )


def joint_from_model3(params: Model3Params) -> JointDistribution:
    """Expand independent exposure/covariate parameters to the joint."""
    a, t = params.a, params.t
    b0, b1, u0, u1 = params.b0, params.b1, params.u0, params.u1
    ab = 1 - a
    tb = 1 - t
    return JointDistribution(
        (
            a * tb * (1 - u0),
            a * tb * u0,
            a * t * (1 - u1),
            a * t * u1,
            ab * tb * (1 - b0),
            ab * tb * b0,
            ab * t * (1 - b1),
            ab * t * b1,
        )
    )


def build_joint(params: ModelParams) -> JointDistribution:
    """Expand any parameter set to its joint distribution."""
    if isinstance(params, Model1Params):
        return joint_from_model1(params)
    if isinstance(params, Model2Params):
        return joint_from_model2(params)
    if isinstance(params, Model3Params):
        return joint_from_model3(params)
    raise ParameterError(f"not a model parameter set: {params!r}")


def _algebraic_sides(params: ModelParams, hypothesis: Hypothesis):
    """(lhs, rhs) of the defining equality; (0, 0) for vacuous cases."""
    H = Hypothesis
    b0, b1, u0, u1 = params.b0, params.b1, params.u0, params.u1
    if hypothesis is H.H2:
        return u0, b0
    if hypothesis is H.H3:
        return u1, b1
    if hypothesis is H.H6:
        return b0, b1
    if hypothesis is H.H7:
        return u0, u1

    if isinstance(params, Model1Params):
        t, a0, a1 = params.t, params.a0, params.a1
        if hypothesis is H.H4:
            return a0, a1
        if hypothesis is H.H1:
            exposed0, exposed1 = a0 * (1 - t), a1 * t
            unexposed0, unexposed1 = (1 - a0) * (1 - t), (1 - a1) * t
            return (
                (u0 * exposed0 + u1 * exposed1) / (exposed0 + exposed1),
                (b0 * unexposed0 + b1 * unexposed1) / (unexposed0 + unexposed1),
            )
        if hypothesis is H.H5:
            # P(D_ebar=1 | C=j) in parameter form; defined whatever t is.
            return u0 * a0 + b0 * (1 - a0), u1 * a1 + b1 * (1 - a1)
    elif isinstance(params, Model2Params):
        a, c0, c1 = params.a, params.c0, params.c1
        if hypothesis is H.H4:
            return c0, c1
        if hypothesis is H.H1:
            return u0 * (1 - c1) + u1 * c1, b0 * (1 - c0) + b1 * c0
        if hypothesis is H.H5:
            mass0 = (1 - c1) * a + (1 - c0) * (1 - a)
            mass1 = c1 * a + c0 * (1 - a)
            if mass0 == 0 or mass1 == 0:
                k = 0 if mass0 == 0 else 1
                raise DegenerateEventError(
                    f"H5 compares P(D_ebar=1 | C=k) across strata, but P(C={k}) = 0"
                )
            return (
                (u0 * (1 - c1) * a + b0 * (1 - c0) * (1 - a)) / mass0,
                (u1 * c1 * a + b1 * c0 * (1 - a)) / mass1,
            )
    elif isinstance(params, Model3Params):
        a, t = params.a, params.t
        if hypothesis is H.H4:
            return 0, 0  # independent by structure
        if hypothesis is H.H1:
            return u0 * (1 - t) + u1 * t, b0 * (1 - t) + b1 * t
        if hypothesis is H.H5:
            return b0 * (1 - a) + u0 * a, b1 * (1 - a) + u1 * a
    else:
        raise ParameterError(f"not a model parameter set: {params!r}")
    raise ParameterError(f"unknown hypothesis {hypothesis!r}")


def closed_form_summary(params: ModelParams) -> MeasureSummary:
    """The same four measures straight from model parameters.

    Independent of the cell expansion; used to cross-check the joint route.
    """
    b0, b1, u0, u1 = params.b0, params.b1, params.u0, params.u1
    if isinstance(params, Model1Params):
        t, a0, a1 = params.t, params.a0, params.a1
        exposed0, exposed1 = a0 * (1 - t), a1 * t
        unexposed0, unexposed1 = (1 - a0) * (1 - t), (1 - a1) * t
    elif isinstance(params, Model2Params):
        a, c0, c1 = params.a, params.c0, params.c1
        exposed0, exposed1 = a * (1 - c1), a * c1
        unexposed0, unexposed1 = (1 - a) * (1 - c0), (1 - a) * c0
    elif isinstance(params, Model3Params):
        a, t = params.a, params.t
        exposed0, exposed1 = a * (1 - t), a * t
        unexposed0, unexposed1 = (1 - a) * (1 - t), (1 - a) * t
    else:
        raise ParameterError(f"not a model parameter set: {params!r}")
    exposed = exposed0 + exposed1
    unexposed = unexposed0 + unexposed1
    hypothetical = (u0 * exposed0 + u1 * exposed1) / exposed
    observed = (b0 * unexposed0 + b1 * unexposed1) / unexposed
    standardized = (b0 * exposed0 + b1 * exposed1) / exposed
    return MeasureSummary(
        hypothetical=hypothetical,
        observed=observed,
        standardized=standardized,
        bias=hypothetical - observed,
    )


def conclusion_gap(joint: JointDistribution, no_confounding: bool):
    """The signed violation of a campaign conclusion on ``joint``'s cells:
    the hypothetical minus the observed proportion for no confounding,
    else the standardized minus the observed one.  Every stratum must have
    mass, as in a campaign."""
    p0, p1, p2, p3, p4, p5, p6, p7 = joint.p
    pe = p0 + p1 + p2 + p3
    pu = p4 + p5 + p6 + p7
    observed = (p5 + p7) / pu
    if no_confounding:
        return (p1 + p3) / pe - observed
    return (p5 / (p4 + p5)) * ((p0 + p1) / pe) + (p7 / (p6 + p7)) * ((p2 + p3) / pe) - observed


def _solve_h1(model: int, v) -> object:
    """u1 making the exposed and unexposed risks equal, given the rest."""
    if model == 1:
        t, a0, a1, b0, b1, u0 = v[0], v[1], v[2], v[3], v[4], v[5]
        exposed0 = a0 * (1 - t)
        exposed1 = a1 * t
        unexposed0 = (1 - a0) * (1 - t)
        unexposed1 = (1 - a1) * t
        observed = (b0 * unexposed0 + b1 * unexposed1) / (unexposed0 + unexposed1)
        return (observed * (exposed0 + exposed1) - u0 * exposed0) / exposed1
    if model == 2:
        c0, c1, b0, b1, u0 = v[1], v[2], v[3], v[4], v[5]
        observed = b0 * (1 - c0) + b1 * c0
        return (observed - u0 * (1 - c1)) / c1
    t, b0, b1, u0 = v[1], v[3], v[4], v[5]
    observed = b0 * (1 - t) + b1 * t
    return (observed - u0 * (1 - t)) / t


def _solve_h5(model: int, v) -> object:
    """u0 making P(D_ebar=1 | C=0) equal P(D_ebar=1 | C=1), given the rest."""
    if model == 1:
        a0, a1, b0, b1, u1 = v[1], v[2], v[3], v[4], v[6]
        return (u1 * a1 + b1 * (1 - a1) - b0 * (1 - a0)) / a0
    if model == 2:
        a, c0, c1, b0, b1, u1 = v[0], v[1], v[2], v[3], v[4], v[6]
        target = (u1 * c1 * a + b1 * c0 * (1 - a)) / (c1 * a + c0 * (1 - a))
        mass0 = (1 - c1) * a + (1 - c0) * (1 - a)
        return (target * mass0 - b0 * (1 - c0) * (1 - a)) / ((1 - c1) * a)
    a, b0, b1, u1 = v[0], v[3], v[4], v[6]
    # one quotient: (b1 - b0) * (1 - a) / a alone would divide bare ints to a
    # float and turn a Fraction u1 into a float
    return (u1 * a + (b1 - b0) * (1 - a)) / a


def impose(base: ModelParams, hypotheses, rng, *, budget: int = 1000) -> ModelParams:
    """``hypotheses.impose`` solving through the plain quotients above.

    The same substitution and the same redraws from ``rng``, so a rational
    ``base`` gives the library's result exactly.
    """
    model = model_number(base)
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
        try:
            solved = (_solve_h1 if eq is Hypothesis.H1 else _solve_h5)(model, candidate)
        except ZeroDivisionError:
            continue
        if isinstance(solved, float) and solved != solved:
            continue
        if 0 <= solved <= 1:
            candidate[solved_slot] = solved
            return _params_from_slots(model, candidate)
    raise _exhausted(eq, budget)

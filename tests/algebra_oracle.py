"""The model algebra as plain products and quotients: the test oracle.

``joint_from_model1/2/3``, ``build_joint``, ``_algebraic_sides`` and
``closed_form_summary`` below are the library's expressions before it ran
rational parameters on integer numerators, kept verbatim.  They multiply and
divide the parameters themselves (``Fraction``s, floats or ints), so they
share no code with the library's ``_masses`` expansion, and the property
tests compare the library against them value for value, type for type and
error for error.
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

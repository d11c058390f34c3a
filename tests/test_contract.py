"""One walk over the public API: a bad argument raises a ConfoundKitError.

Every callable in ``confound_kit.__all__`` (and the alternate constructors
``from_dict`` and ``from_spec``) has one valid base call below.  The walk
puts one hostile value in one argument at a time.  A call may accept the
value, or raise a ``ConfoundKitError``; any other exception is a leak.  When
a constructor accepts a hostile value, its object is passed on to the
consumer that reads it (a parameter set to ``build_joint`` and then
``classify_covariate``, a joint to ``classify_covariate``, a table to
``analyze_counts``), under the same rule, so a value that is accepted and
breaks later shows too.  The enum constructors (``Hypothesis("H8")``) raise
``Enum``'s own ``ValueError``; that is part of the contract (README,
"Arithmetic modes").
"""

import io
import signal
from decimal import Decimal
from fractions import Fraction

import pytest

import confound_kit
from confound_kit import (
    CoarseningMap,
    ConfoundKitError,
    Conclusion,
    Exposure,
    Hypothesis,
    JointDistribution,
    Model1Params,
    Model2Params,
    Model3Params,
    ResponseType,
    SplitMix64,
    StratifiedCounts,
    TheoremClause,
    Verdict,
    analyze_counts,
    build_joint,
    classify_covariate,
    coarsen,
    fixture_path,
    load_counts,
)

_BIG = 10**400
HOSTILE = (
    None,
    True,
    float("nan"),
    float("inf"),
    float("-inf"),
    -1,
    _BIG,
    Decimal("NaN"),
    Decimal("1.5"),
    Decimal("0.5"),
    Fraction(1, 3),
    "x",
    b"x",
    [1],
    {"x": 1},
    object(),
)

# names of __all__ the walk does not call, each with the reason
SKIPPED = {
    **dict.fromkeys(
        ("ConfoundKitError", "ConstraintError", "DegenerateEventError", "ParameterError", "TableFormatError"),
        "an error class",
    ),
    "HypothesisSet": "a type alias",
    "ModelParams": "a type alias",
    "__version__": "a constant",
    "DEFAULT_FLOAT_TOL": "a constant",
    "CLAUSES": "a constant",
    "ClassificationReport": "a report record, built by classify_covariate; it checks nothing",
    "VerificationReport": "a report record, built by verify_clause; it checks nothing",
    "MeasureSummary": "a report record, built by the summaries; it checks nothing",
}

ENUMS = (Hypothesis, Exposure, Verdict, ResponseType, Conclusion)

_F = Fraction


def _m1():
    return Model1Params(_F(2, 5), _F(1, 5), _F(3, 5), _F(1, 10), _F(7, 10), _F(3, 10), _F(9, 10))


def _joint():
    return build_joint(Model3Params(0.5, 0.25, 0.125, 0.75, 0.375, 0.625))


def _table():
    return load_counts(fixture_path("table1_coarse.csv"))


def _fine_table():
    return load_counts(fixture_path("table1.csv"))


def _clause():
    return TheoremClause("T1", "a", 1, frozenset({Hypothesis.H4}), Conclusion.IRRELEVANT_FACTOR)


def _joint_of(params):
    classify_covariate(build_joint(params))


def _drawn(rng):
    confound_kit.random_params(1, rng)


def _coarsened(mapping):
    analyze_counts(coarsen(_fine_table(), mapping))


_COUNTS = {
    (ResponseType.DOOMED, Exposure.EXPOSED, "a"): 3,
    (ResponseType.IMMUNE, Exposure.EXPOSED, "b"): 2,
    (ResponseType.PREVENTIVE, Exposure.UNEXPOSED, "a"): 1,
    (ResponseType.CAUSATIVE, Exposure.UNEXPOSED, "b"): 4,
}
_FINE_MAP = {"1": 0, "2": 0, "3": 1, "4": 1}

# name: (callable, a function returning fresh base (args, kwargs), the
# consumer of an accepted result or None)
BASES = {
    "SplitMix64": (SplitMix64, lambda: ((1,), {}), _drawn),
    "sample_stream": (confound_kit.sample_stream, lambda: ((1, 0), {}), _drawn),
    "Hypothesis": (Hypothesis, lambda: (("H1",), {}), None),
    "hypothesis_set": (confound_kit.hypothesis_set, lambda: ((Hypothesis.H1, Hypothesis.H2), {}), None),
    "holds_algebraic": (confound_kit.holds_algebraic, lambda: ((_m1(), Hypothesis.H4, 0), {}), None),
    "holds_numeric": (confound_kit.holds_numeric, lambda: ((_joint(), Hypothesis.H4, 1e-9), {}), None),
    "impose": (
        confound_kit.impose,
        lambda: ((_m1(), frozenset({Hypothesis.H1}), SplitMix64(1)), {"budget": 10}),
        _joint_of,
    ),
    "parse_hypothesis": (confound_kit.parse_hypothesis, lambda: (("h1",), {}), None),
    "random_params": (confound_kit.random_params, lambda: ((2, SplitMix64(1)), {"exact": True}), _joint_of),
    "Exposure": (Exposure, lambda: (("e",), {}), None),
    "JointDistribution": (JointDistribution, lambda: (((_F(1, 8),) * 8,), {}), classify_covariate),
    # one cell at a time
    "JointDistribution(cells)": (
        lambda *p: JointDistribution(p),
        lambda: ((_F(1, 8),) * 8, {}),
        classify_covariate,
    ),
    "JointDistribution.from_dict": (
        JointDistribution.from_dict,
        lambda: (({"p": ["1/8"] * 8},), {}),
        classify_covariate,
    ),
    "Model1Params": (Model1Params, lambda: ((0.4, 0.2, 0.6, 0.1, 0.7, 0.3, 0.9), {}), _joint_of),
    "Model2Params": (Model2Params, lambda: ((_F(1, 2), 0.2, 0.6, 0.1, 0.7, 0.3, 0.9), {}), _joint_of),
    "Model3Params": (Model3Params, lambda: ((0.5, _F(1, 4), 0.1, 0.7, 0.3, 0.9), {}), _joint_of),
    "Model1Params.from_dict": (Model1Params.from_dict, lambda: ((_m1().to_dict(),), {}), _joint_of),
    "Model2Params.from_dict": (
        Model2Params.from_dict,
        lambda: (({"a": 0.5, "c0": 0.2, "c1": 0.6, "b0": 0.1, "b1": 0.7, "u0": 0.3, "u1": 0.9},), {}),
        _joint_of,
    ),
    "Model3Params.from_dict": (
        Model3Params.from_dict,
        lambda: (({"a": "1/2", "t": "1/4", "b0": 0.1, "b1": 0.7, "u0": 0.3, "u1": 0.9},), {}),
        _joint_of,
    ),
    "build_joint": (build_joint, lambda: ((_m1(),), {}), classify_covariate),
    "conditional_prob": (confound_kit.conditional_prob, lambda: ((_joint(), {"D": 1}, {"E": "e"}), {}), None),
    "model_number": (confound_kit.model_number, lambda: ((_m1(),), {}), None),
    "params_from_dict": (confound_kit.params_from_dict, lambda: ((_m1().to_dict(),), {}), _joint_of),
    "params_type": (confound_kit.params_type, lambda: ((3,), {}), None),
    "Verdict": (Verdict, lambda: (("irrelevant",), {}), None),
    "check_lemma1": (confound_kit.check_lemma1, lambda: ((_joint(), 1e-9), {}), None),
    "classify_covariate": (classify_covariate, lambda: ((_joint(), 1e-9), {}), None),
    "closed_form_summary": (confound_kit.closed_form_summary, lambda: ((_m1(),), {}), None),
    "confounding_bias": (confound_kit.confounding_bias, lambda: ((_joint(),), {}), None),
    "hypothetical_proportion": (confound_kit.hypothetical_proportion, lambda: ((_joint(),), {}), None),
    "observed_proportion": (confound_kit.observed_proportion, lambda: ((_joint(),), {}), None),
    "standardized_proportion": (confound_kit.standardized_proportion, lambda: ((_joint(),), {}), None),
    "summary_from_joint": (confound_kit.summary_from_joint, lambda: ((_joint(),), {}), None),
    "CoarseningMap": (CoarseningMap, lambda: ((dict(_FINE_MAP),), {}), _coarsened),
    "CoarseningMap.from_spec": (CoarseningMap.from_spec, lambda: (("0=1,2;1=3,4",), {}), _coarsened),
    "ResponseType": (ResponseType, lambda: ((1,), {}), None),
    "StratifiedCounts": (StratifiedCounts, lambda: ((("a", "b"), dict(_COUNTS)), {}), analyze_counts),
    "analyze_counts": (analyze_counts, lambda: ((_table(),), {}), None),
    "coarsen": (coarsen, lambda: ((_fine_table(), CoarseningMap(_FINE_MAP)), {}), analyze_counts),
    "counts_to_joint": (confound_kit.counts_to_joint, lambda: ((_table(),), {}), classify_covariate),
    "dump_counts": (confound_kit.dump_counts, lambda: ((_table(),), {}), None),
    "fixture_path": (fixture_path, lambda: (("table1_coarse.csv",), {}), None),
    "load_counts": (
        load_counts,
        lambda: ((io.StringIO("type,exposure,stratum,count\ndoomed,e,0,2\nimmune,ebar,1,3\n"),), {}),
        None,
    ),
    "Conclusion": (Conclusion, lambda: (("no_confounding",), {}), None),
    "clause_lookup": (confound_kit.clause_lookup, lambda: (("T2", "a"), {}), None),
    "falsify_converse": (
        confound_kit.falsify_converse,
        lambda: ((3, Conclusion.IRRELEVANT_FACTOR), {}),
        _joint_of,
    ),
    "verify_clause": (
        confound_kit.verify_clause,
        lambda: ((_clause(), 10, 0, None), {"exact": False, "threads": None}),
        None,
    ),
    "verify_clause(exact)": (
        confound_kit.verify_clause,
        lambda: ((_clause(), 10, 0, None), {"exact": True, "threads": 1}),
        None,
    ),
}


def _verify_fields(exact):
    """``TheoremClause``'s fields as arguments, walked through ``verify_clause``."""

    def run(theorem, clause, model, conditions, conclusion):
        return confound_kit.verify_clause(
            TheoremClause(theorem, clause, model, conditions, conclusion), 10, exact=exact
        )

    return (run, lambda: (tuple(_clause()._astuple()), {}), None)


BASES["TheoremClause"] = _verify_fields(False)
BASES["TheoremClause(exact)"] = _verify_fields(True)


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _outcome(call, enum=False):
    """None when ``call()`` returns within 5 s or raises a
    ``ConfoundKitError`` (or, for an ``enum`` constructor, a ``ValueError``);
    otherwise what it raised, or the timeout."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(5)
    try:
        call()
    except ConfoundKitError:
        pass
    except _Timeout:
        return "timeout after 5 s"
    except ValueError as exc:
        if not enum:
            return f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # any other exception is a leak
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return None


def _walk(name):
    fn, base, consumer = BASES[name]
    args, kwargs = base()
    result = fn(*args, **kwargs)  # the base call is valid
    if consumer is not None:
        consumer(result)
    slots = [(i, None) for i in range(len(args))] + [(None, key) for key in kwargs]
    leaks = []
    for position, key in slots:
        for value in HOSTILE:
            args, kwargs = base()
            args = list(args)
            if key is None:
                args[position] = value
                where = f"argument {position}"
            else:
                kwargs[key] = value
                where = f"{key}="
            accepted = []
            leak = _outcome(lambda: accepted.append(fn(*args, **kwargs)), fn in ENUMS)
            if leak is None and accepted and consumer is not None:
                leak = _outcome(lambda: consumer(accepted[0]))
                if leak is not None:
                    leak = f"accepted, then its consumer raised {leak}"
            if leak is not None:
                shown = "10**400" if value is _BIG else repr(value)
                leaks.append(f"{name} {where} {shown}: {leak}")
    return leaks


def test_every_public_name_is_walked_or_skipped():
    walked = {name.split(".")[0].split("(")[0] for name in BASES}
    missing = [name for name in confound_kit.__all__ if name not in walked and name not in SKIPPED]
    assert not missing, f"no base call and no reason to skip: {missing}"
    assert not set(SKIPPED) - set(confound_kit.__all__)


@pytest.mark.parametrize("name", sorted(BASES))
def test_bad_arguments_raise_library_errors(name):
    leaks = _walk(name)
    assert not leaks, "\n".join(leaks)

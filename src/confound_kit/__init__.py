"""Counterfactual confounding analysis for three binary-variable structures.

The package works with joint distributions over an exposure E, a binary
covariate C, and the potential unexposed outcome D_ebar.  It computes the
confounding bias and the standardized proportion, classifies the covariate
as irrelevant, a confounder, or neither, analyzes stratified response-type
count tables exactly, and verifies a catalog of sufficient conditions by
deterministic sampling campaigns in float or exact rational arithmetic.
"""

__version__ = "0.1.0"

from ._rng import SplitMix64, sample_stream
from .errors import (
    ConfoundKitError,
    ConstraintError,
    DegenerateEventError,
    ParameterError,
    TableFormatError,
)
from .hypotheses import (
    Hypothesis,
    HypothesisSet,
    holds_algebraic,
    holds_numeric,
    hypothesis_set,
    impose,
    parse_hypothesis,
    random_params,
)
from .joint import (
    Exposure,
    JointDistribution,
    Model1Params,
    Model2Params,
    Model3Params,
    ModelParams,
    build_joint,
    conditional_prob,
    model_number,
    params_from_dict,
    params_type,
)
from .measures import (
    DEFAULT_FLOAT_TOL,
    ClassificationReport,
    MeasureSummary,
    Verdict,
    check_lemma1,
    classify_covariate,
    closed_form_summary,
    confounding_bias,
    hypothetical_proportion,
    observed_proportion,
    standardized_proportion,
    summary_from_joint,
)
from .tables import (
    CoarseningMap,
    ResponseType,
    StratifiedCounts,
    analyze_counts,
    coarsen,
    counts_to_joint,
    dump_counts,
    fixture_path,
    load_counts,
)
from .theorems import (
    CLAUSES,
    Conclusion,
    TheoremClause,
    VerificationReport,
    clause_lookup,
    falsify_converse,
    verify_clause,
)

__all__ = [
    "__version__",
    "DEFAULT_FLOAT_TOL",
    "SplitMix64",
    "sample_stream",
    "ConfoundKitError",
    "ConstraintError",
    "DegenerateEventError",
    "ParameterError",
    "TableFormatError",
    "Hypothesis",
    "HypothesisSet",
    "holds_algebraic",
    "holds_numeric",
    "hypothesis_set",
    "impose",
    "parse_hypothesis",
    "random_params",
    "Exposure",
    "JointDistribution",
    "Model1Params",
    "Model2Params",
    "Model3Params",
    "ModelParams",
    "build_joint",
    "conditional_prob",
    "model_number",
    "params_from_dict",
    "params_type",
    "ClassificationReport",
    "MeasureSummary",
    "Verdict",
    "check_lemma1",
    "classify_covariate",
    "closed_form_summary",
    "confounding_bias",
    "hypothetical_proportion",
    "observed_proportion",
    "standardized_proportion",
    "summary_from_joint",
    "CoarseningMap",
    "ResponseType",
    "StratifiedCounts",
    "analyze_counts",
    "coarsen",
    "counts_to_joint",
    "dump_counts",
    "fixture_path",
    "load_counts",
    "CLAUSES",
    "Conclusion",
    "TheoremClause",
    "VerificationReport",
    "clause_lookup",
    "falsify_converse",
    "verify_clause",
]

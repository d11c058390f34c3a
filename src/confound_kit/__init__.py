"""Counterfactual confounding analysis for three binary-variable structures.

The package works with joint distributions over an exposure E, a binary
covariate C, and the potential unexposed outcome D_ebar.  It computes the
confounding bias and the standardized proportion, classifies the covariate
as irrelevant, a confounder, or neither, analyzes stratified response-type
count tables exactly, and verifies a catalog of sufficient conditions by
deterministic sampling campaigns in float or exact rational arithmetic.

Importing the package loads none of its modules: each exported name is
imported from its module on first access (PEP 562), so a command-line
request loads only the modules its verb runs.
"""

import importlib

__version__ = "0.1.0"

# each exported name, and the module that defines it
_EXPORTS = {
    "DEFAULT_FLOAT_TOL": "joint",
    "SplitMix64": "_rng",
    "sample_stream": "_rng",
    "ConfoundKitError": "errors",
    "ConstraintError": "errors",
    "DegenerateEventError": "errors",
    "ParameterError": "errors",
    "TableFormatError": "errors",
    "Hypothesis": "hypotheses",
    "HypothesisSet": "hypotheses",
    "holds_algebraic": "hypotheses",
    "holds_numeric": "hypotheses",
    "hypothesis_set": "hypotheses",
    "impose": "hypotheses",
    "parse_hypothesis": "hypotheses",
    "random_params": "hypotheses",
    "Exposure": "joint",
    "JointDistribution": "joint",
    "Model1Params": "joint",
    "Model2Params": "joint",
    "Model3Params": "joint",
    "ModelParams": "joint",
    "build_joint": "joint",
    "conditional_prob": "joint",
    "model_number": "joint",
    "params_from_dict": "joint",
    "params_type": "joint",
    "ClassificationReport": "measures",
    "MeasureSummary": "measures",
    "Verdict": "measures",
    "check_lemma1": "measures",
    "classify_covariate": "measures",
    "closed_form_summary": "measures",
    "confounding_bias": "measures",
    "hypothetical_proportion": "measures",
    "observed_proportion": "measures",
    "standardized_proportion": "measures",
    "summary_from_joint": "measures",
    "CoarseningMap": "tables",
    "ResponseType": "tables",
    "StratifiedCounts": "tables",
    "analyze_counts": "tables",
    "coarsen": "tables",
    "counts_to_joint": "tables",
    "dump_counts": "tables",
    "fixture_path": "tables",
    "load_counts": "tables",
    "CLAUSES": "theorems",
    "Conclusion": "theorems",
    "TheoremClause": "theorems",
    "VerificationReport": "theorems",
    "clause_lookup": "theorems",
    "falsify_converse": "theorems",
    "verify_clause": "theorems",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    """Import an exported name, or a submodule, on first access.

    The value is kept in the package namespace, so later lookups do not
    come here.  The eager package loaded every submodule, so
    ``confound_kit.theorems`` after ``import confound_kit`` still works.
    """
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
    elif name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        try:
            value = importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})

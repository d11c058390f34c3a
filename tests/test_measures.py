"""Tests for bias, standardized proportion, and the verdict rules."""

import shutil
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import confound_kit
from confound_kit import (
    DEFAULT_FLOAT_TOL,
    DegenerateEventError,
    JointDistribution,
    Model1Params,
    Model2Params,
    Model3Params,
    ParameterError,
    Verdict,
    build_joint,
    check_lemma1,
    classify_covariate,
    closed_form_summary,
    confounding_bias,
    hypothetical_proportion,
    observed_proportion,
    standardized_proportion,
    summary_from_joint,
)
from confound_kit.hypotheses import random_params
from confound_kit._rng import SplitMix64

F = Fraction

EXAMPLE_M1 = Model1Params(t=0.4, a0=0.2, a1=0.6, b0=0.1, b1=0.7, u0=0.3, u1=0.9)

def table1_joint():
    # counts: doomed e (133, 23), doomed ebar (122, 52), immune e (117, 27),
    # immune ebar (78, 48); D_ebar = 1 for doomed, 0 for immune; N = 600.
    cells = [0] * 8
    cells[JointDistribution.index("e", 0, 1)] = F(133, 600)
    cells[JointDistribution.index("e", 1, 1)] = F(23, 600)
    cells[JointDistribution.index("e", 0, 0)] = F(117, 600)
    cells[JointDistribution.index("e", 1, 0)] = F(27, 600)
    cells[JointDistribution.index("ebar", 0, 1)] = F(122, 600)
    cells[JointDistribution.index("ebar", 1, 1)] = F(52, 600)
    cells[JointDistribution.index("ebar", 0, 0)] = F(78, 600)
    cells[JointDistribution.index("ebar", 1, 0)] = F(48, 600)
    return JointDistribution(tuple(cells))


# --- worked example ------------------------------------------------------


def test_example_measures():
    joint = build_joint(EXAMPLE_M1)
    assert hypothetical_proportion(joint) == pytest.approx(0.7, abs=1e-15)
    assert observed_proportion(joint) == pytest.approx(0.25, abs=1e-15)
    assert standardized_proportion(joint) == pytest.approx(0.5, abs=1e-15)
    assert confounding_bias(joint) == pytest.approx(0.45, abs=1e-15)


def test_example_classification_values():
    report = classify_covariate(build_joint(EXAMPLE_M1))
    assert report.standardized == pytest.approx(0.5, abs=1e-15)
    assert report.observed == pytest.approx(0.25, abs=1e-15)
    assert report.bias == pytest.approx(0.45, abs=1e-15)
    assert report.adjusted_gap == pytest.approx(0.2, abs=1e-15)
    # gap 0.2 < |bias| 0.45, so adjustment strictly shrinks the comparison:
    # per the confounder rule the verdict is Confounder.
    assert report.verdict is Verdict.CONFOUNDER


def test_bias_is_hypothetical_minus_observed():
    joint = build_joint(EXAMPLE_M1)
    assert confounding_bias(joint) == pytest.approx(
        hypothetical_proportion(joint) - observed_proportion(joint), abs=1e-16
    )


# --- Table 1 exact values ------------------------------------------------


def test_table1_exact_measures():
    joint = table1_joint()
    summary = summary_from_joint(joint)
    assert summary.hypothetical == F(13, 25)     # 156/300 = 0.52
    assert summary.observed == F(29, 50)         # 174/300 = 0.58
    assert summary.standardized == F(119, 200)   # 0.595
    assert summary.bias == F(-3, 50)             # |B| = 0.06
    report = classify_covariate(joint, tol=0)
    assert report.adjusted_gap == F(3, 40)       # 0.075
    assert report.verdict is Verdict.NEITHER


def test_table1_renders_to_paper_decimals():
    report = classify_covariate(table1_joint(), tol=0)
    shown = {
        "hypothetical": f"{float(report.hypothetical):.3f}",
        "observed": f"{float(report.observed):.3f}",
        "standardized": f"{float(report.standardized):.3f}",
        "bias": f"{abs(float(report.bias)):.3f}",
        "gap": f"{float(report.adjusted_gap):.3f}",
    }
    assert shown == {
        "hypothetical": "0.520",
        "observed": "0.580",
        "standardized": "0.595",
        "bias": "0.060",
        "gap": "0.075",
    }


# --- model 3 / no-confounding special cases ------------------------------


def test_model3_standardized_equals_observed_exactly():
    params = Model3Params(a=F(2, 5), t=F(3, 7), b0=F(1, 9), b1=F(5, 9), u0=F(1, 3), u1=F(2, 3))
    joint = build_joint(params)
    assert standardized_proportion(joint) == observed_proportion(joint)
    assert classify_covariate(joint, tol=0).verdict is Verdict.IRRELEVANT


def test_model1_equal_exposure_rates_is_irrelevant():
    params = Model1Params(t=F(1, 3), a0=F(2, 5), a1=F(2, 5), b0=F(1, 10), b1=F(7, 10), u0=F(3, 10), u1=F(9, 10))
    joint = build_joint(params)
    assert standardized_proportion(joint) == observed_proportion(joint)
    assert classify_covariate(joint, tol=0).verdict is Verdict.IRRELEVANT


def test_model1_matched_outcome_params_kill_bias():
    params = Model1Params(t=F(2, 5), a0=F(1, 5), a1=F(1, 5), b0=F(1, 4), b1=F(3, 4), u0=F(1, 4), u1=F(3, 4))
    assert confounding_bias(build_joint(params)) == 0


# --- standardized proportion mechanics -----------------------------------


def test_standardized_skips_zero_weight_stratum():
    # t=0 gives the C=1 stratum zero weight among the exposed, so the
    # vanished unexposed denominator there must not be consulted
    params = Model1Params(t=0.0, a0=0.3, a1=1.0, b0=0.2, b1=0.9, u0=0.4, u1=0.6)
    joint = build_joint(params)
    assert standardized_proportion(joint) == pytest.approx(0.2, abs=1e-15)


def test_standardized_vanished_stratum_denominator_reported():
    # every exposed unit has C=1 but no unexposed unit does
    cells = [0.0] * 8
    cells[JointDistribution.index("e", 1, 1)] = 0.5
    cells[JointDistribution.index("ebar", 0, 0)] = 0.5
    joint = JointDistribution(tuple(cells))
    with pytest.raises(DegenerateEventError) as err:
        standardized_proportion(joint)
    assert "1" in str(err.value)


def test_measures_require_both_exposure_arms():
    cells = [0.0] * 8
    cells[JointDistribution.index("e", 0, 1)] = 1.0
    exposed_only = JointDistribution(tuple(cells))
    with pytest.raises(DegenerateEventError):
        observed_proportion(exposed_only)
    cells = [0.0] * 8
    cells[JointDistribution.index("ebar", 0, 1)] = 1.0
    unexposed_only = JointDistribution(tuple(cells))
    with pytest.raises(DegenerateEventError):
        hypothetical_proportion(unexposed_only)
    with pytest.raises(DegenerateEventError, match=r"^P\(E=e\) = 0; the standardized proportion is undefined$"):
        standardized_proportion(unexposed_only)


# --- verdict rules -------------------------------------------------------


def test_verdict_tolerance_defaults():
    exact = build_joint(Model3Params(a=F(1, 2), t=F(1, 3), b0=F(1, 5), b1=F(4, 5), u0=F(2, 5), u1=F(3, 5)))
    assert classify_covariate(exact).verdict is Verdict.IRRELEVANT  # exact default tol 0
    with pytest.raises(ParameterError):
        classify_covariate(exact, tol=1e-9)  # nonzero tol makes no sense for exact joints
    noisy = build_joint(Model3Params(a=0.5, t=1 / 3, b0=0.2, b1=0.8, u0=0.4, u1=0.6))
    assert classify_covariate(noisy).verdict is Verdict.IRRELEVANT  # float default tol
    assert DEFAULT_FLOAT_TOL == 1e-9
    # defined in joint, which every verb loads, and the same object in measures
    assert DEFAULT_FLOAT_TOL is confound_kit.measures.DEFAULT_FLOAT_TOL
    assert DEFAULT_FLOAT_TOL is confound_kit.joint.DEFAULT_FLOAT_TOL


@pytest.mark.parametrize("tol", [1e-9, F(1, 10**6), 1])
def test_exact_lemma1_rejects_nonzero_tolerance(tol):
    # as classify_covariate does: the exact lemma compares integers, and a
    # tolerance would loosen its equality
    exact = table1_joint()
    for check in (classify_covariate, check_lemma1):
        with pytest.raises(ParameterError, match="requires tol = 0"):
            check(exact, tol=tol)
    assert check_lemma1(exact, tol=0.0)


def test_negative_tolerance_rejected():
    with pytest.raises(ParameterError):
        classify_covariate(build_joint(EXAMPLE_M1), tol=-1e-9)


@pytest.mark.parametrize(
    "tol",
    [
        float("nan"),
        float("inf"),
        float("-inf"),
        # past the floats: each once passed, or escaped as OverflowError or
        # decimal.InvalidOperation
        pytest.param(Decimal("Infinity"), id="decimal-inf"),
        pytest.param(Decimal("1e400"), id="decimal-1e400"),
        pytest.param(Decimal("NaN"), id="decimal-nan"),
        pytest.param(10**400, id="int-10**400"),
    ],
)
def test_non_finite_tolerance_rejected(tol):
    joint = build_joint(EXAMPLE_M1)
    with pytest.raises(ParameterError, match="finite"):
        classify_covariate(joint, tol=tol)
    with pytest.raises(ParameterError, match="finite"):
        check_lemma1(joint, tol=tol)


def test_decimal_tolerance_is_taken_as_the_equal_fraction():
    # float arithmetic refuses a Decimal, so the confounder condition
    # |bias| - tol once raised TypeError on a float joint; a Decimal now
    # counts as the Fraction it equals, in both modes
    joint, exact = build_joint(EXAMPLE_M1), table1_joint()
    verdicts = set()
    for text in ("0", "1e-9", "0.2", "0.2499999999999999", "0.3"):
        report = classify_covariate(joint, tol=Decimal(text))
        assert report == classify_covariate(joint, tol=F(text)), text
        assert check_lemma1(joint, tol=Decimal(text)) is check_lemma1(joint, tol=F(text)), text
        verdicts.add(report.verdict)
    assert verdicts == {Verdict.CONFOUNDER, Verdict.IRRELEVANT}
    # exact mode compares exactly: a zero Decimal is tol = 0, any other is rejected
    assert classify_covariate(exact, tol=Decimal(0)) == classify_covariate(exact, tol=0)
    assert check_lemma1(exact, tol=Decimal(0)) is check_lemma1(exact, tol=0)
    for check in (classify_covariate, check_lemma1):
        with pytest.raises(ParameterError, match="requires tol = 0"):
            check(exact, tol=Decimal("1e-9"))


@pytest.mark.parametrize("tol", ["0", 1j, None])
def test_non_real_tolerance_rejected(tol):
    joint = build_joint(EXAMPLE_M1)
    with pytest.raises(ParameterError, match="real number"):
        check_lemma1(joint, tol=tol)
    if tol is not None:  # None asks classify_covariate for its default
        with pytest.raises(ParameterError, match="real number"):
            classify_covariate(joint, tol=tol)


@pytest.mark.parametrize("tol", [True, False])
def test_bool_tolerance_rejected(tol):
    # a tolerance of True once passed as 1 and made this confounder irrelevant
    joint = build_joint(EXAMPLE_M1)
    assert classify_covariate(joint).verdict is Verdict.CONFOUNDER
    for joint in (joint, table1_joint()):
        for check in (classify_covariate, check_lemma1):
            with pytest.raises(ParameterError, match=f"tolerance must be a real number, got {tol}"):
                check(joint, tol)


def test_irrelevant_checked_before_confounder():
    # an irrelevant covariate has gap == |bias|, never strictly less, so the
    # two verdicts cannot collide; the report must say Irrelevant
    params = Model3Params(a=F(1, 4), t=F(1, 6), b0=F(1, 8), b1=F(5, 8), u0=F(1, 2), u1=F(3, 4))
    report = classify_covariate(build_joint(params), tol=0)
    assert report.verdict is Verdict.IRRELEVANT
    assert report.adjusted_gap == abs(report.bias)


def test_uniform_joint_is_irrelevant_and_lemma_holds():
    joint = JointDistribution((0.125,) * 8)
    assert classify_covariate(joint).verdict is Verdict.IRRELEVANT
    assert check_lemma1(joint)


def test_lemma1_on_table1():
    joint = table1_joint()
    assert check_lemma1(joint, tol=0)
    # converse failure witness: not a confounder yet not irrelevant
    assert classify_covariate(joint, tol=0).verdict is Verdict.NEITHER


def test_lemma1_random_sample():
    rng = SplitMix64(314159)
    for model in (1, 2, 3):
        for _ in range(300):
            joint = build_joint(random_params(model, rng))
            assert check_lemma1(joint, tol=1e-9)


# --- closed forms vs brute force -----------------------------------------


def test_closed_forms_match_joint_evaluation():
    rng = SplitMix64(2718)
    for model in (1, 2, 3):
        for _ in range(200):
            params = random_params(model, rng)
            direct = closed_form_summary(params)
            brute = summary_from_joint(build_joint(params))
            assert direct.hypothetical == pytest.approx(brute.hypothetical, abs=1e-12)
            assert direct.observed == pytest.approx(brute.observed, abs=1e-12)
            assert direct.standardized == pytest.approx(brute.standardized, abs=1e-12)
            assert direct.bias == pytest.approx(brute.bias, abs=1e-12)


def test_closed_forms_match_exactly_in_rational_mode():
    params = Model1Params(t=F(2, 5), a0=F(1, 5), a1=F(3, 5), b0=F(1, 10), b1=F(7, 10), u0=F(3, 10), u1=F(9, 10))
    assert closed_form_summary(params) == summary_from_joint(build_joint(params))


def test_closed_forms_match_joint_wherever_the_joint_route_is_defined(boundary_grid):
    # the closed form is defined on the whole grid, also where the joint
    # cannot recover a stratum rate b_j that the standardized proportion needs
    defined = undefined = 0
    for model, params, joint in boundary_grid:
        direct = closed_form_summary(params)
        try:
            brute = summary_from_joint(joint)
        except DegenerateEventError as err:
            assert "the standardized proportion is undefined" in str(err)
            undefined += 1
            continue
        assert direct == brute, params
        defined += 1
    assert (defined, undefined) == (15_360, 6_144)


# --- report shape --------------------------------------------------------


def test_report_serialization_and_text():
    report = classify_covariate(table1_joint(), tol=0)
    data = report.to_dict()
    assert set(data) == {"hypothetical", "observed", "standardized", "bias", "adjusted_gap", "verdict"}
    assert data["standardized"] == "119/200"
    assert data["verdict"] == "neither"
    text = report.render_text()
    assert "standardized" in text
    assert "119/200" in text
    assert "neither" in text


# --- the verdict path's A/B script ---------------------------------------


VERDICT_AB = Path(__file__).resolve().parent.parent / "tools" / "verdict_ab.py"


def _copy_package(into: Path) -> Path:
    package = Path(confound_kit.__file__).parent
    shutil.copytree(package, into / "confound_kit", ignore=shutil.ignore_patterns("__pycache__"))
    return into


def test_verdict_ab_prints_one_row_per_layer(tmp_path):
    # a smoke run of the verdict path's A/B script with the base taken from a
    # throwaway repository whose one commit holds this package, and its
    # checkout as the B tree: the script finds the two sides' results equal
    # and prints a row for every layer and the whole path; its timings are
    # not checked.  The package is a copy, since the processes may write
    # byte-compiled files into the trees.
    repo = tmp_path / "repo"
    _copy_package(repo / "src")
    for git in (["init", "-q"], ["add", "src"], ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "base"]):
        subprocess.run(["git", *git], cwd=repo, check=True, capture_output=True, timeout=60)
    proc = subprocess.run(
        [sys.executable, str(VERDICT_AB), "--base", "HEAD", "src", "--rounds", "1"],
        cwd=repo,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    base = Path(lines[0].removeprefix("A "))
    assert base.name == "src" and base.parent.name.startswith("verdict_ab_base_")
    assert not base.exists()  # the unpacked base is removed at exit
    assert Path(lines[1].removeprefix("B ")) == (repo / "src").resolve()
    header = next(i for i, line in enumerate(lines) if line.startswith("layer"))
    rows = [line.split() for line in lines[header + 1 :]]
    layers = [
        "build_joint",
        "classify_covariate",
        "check_lemma1",
        "holds_numeric",
        "holds_algebraic",
        "closed_form_summary",
    ]
    assert [row[0] for row in rows] == [f"{layer}.{mode}" for mode in ("float", "exact") for layer in layers] + ["path"]
    assert all(len(row) == 7 and row[6] in ("0/1", "1/1") for row in rows), rows


def test_verdict_ab_stops_when_the_results_differ(tmp_path):
    # B swaps the irrelevant and confounder verdicts, which only the
    # classify_covariate layers return
    a = _copy_package(tmp_path / "a")
    b = _copy_package(tmp_path / "b")
    measures = b / "confound_kit" / "measures.py"
    text = measures.read_text()
    assert text.count("_IRRELEVANT, _CONFOUNDER, _NEITHER = Verdict") == 1
    swapped = "_CONFOUNDER, _IRRELEVANT, _NEITHER = Verdict"
    measures.write_text(text.replace("_IRRELEVANT, _CONFOUNDER, _NEITHER = Verdict", swapped))
    proc = subprocess.run(
        [sys.executable, str(VERDICT_AB), str(a), str(b), "--rounds", "1", "--points", "2"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "A and B give different results for classify_covariate.float, classify_covariate.exact"
    )

"""End-to-end tests for the command-line interface."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confound_kit
from confound_kit import fixture_path, kernel
from confound_kit.cli import build_parser, main

MODEL1_FLAGS = [
    "--model", "1", "--t", "0.4", "--a0", "0.2", "--a1", "0.6",
    "--b0", "0.1", "--b1", "0.7", "--u0", "0.3", "--u1", "0.9",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


# --- analyze ----------------------------------------------------------------


def test_analyze_with_coarsening(capsys):
    path = str(fixture_path("table1.csv"))
    code, out, _ = run(capsys, "analyze", path, "--coarsen", "0=1,2,3;1=4")
    assert code == 0
    assert "neither" in out
    assert "0.075000" in out
    assert "3/40" in out


def test_analyze_binary_table_directly(capsys):
    path = str(fixture_path("table1_coarse.csv"))
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "neither" in out
    assert "119/200" in out


def test_analyze_table2(capsys):
    path = str(fixture_path("table2_base.csv"))
    code, out, _ = run(capsys, "analyze", path, "--coarsen", "0=1,3,4;1=2")
    assert code == 0
    assert "confounder" in out
    assert "0.048000" in out


def test_analyze_json_is_exact(capsys):
    path = str(fixture_path("table2_coarse.csv"))
    code, out, _ = run(capsys, "analyze", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"hypothetical", "observed", "standardized", "bias", "adjusted_gap", "verdict"}
    assert payload["standardized"] == "71/125"
    assert payload["adjusted_gap"] == "6/125"
    assert payload["verdict"] == "confounder"


def test_analyze_missing_file_is_domain_error(capsys):
    code, out, err = run(capsys, "analyze", "/nonexistent/nope.csv")
    assert code == 1
    assert "error:" in err


def test_analyze_file_that_is_not_utf8_is_one_error_line(capsys, tmp_path):
    # the decode error once ended the CLI in a UnicodeDecodeError traceback
    path = tmp_path / "latin1.csv"
    path.write_bytes("type,exposure,stratum,count\ndoomed,e,caf\xe9,1\n".encode("latin-1"))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {path}: not UTF-8 text (invalid continuation byte)\n"


def test_analyze_four_level_without_coarsen_fails(capsys):
    path = str(fixture_path("table1.csv"))
    code, _, err = run(capsys, "analyze", path)
    assert code == 1
    assert "error:" in err


# --- classify ---------------------------------------------------------------


def test_classify_worked_example(capsys):
    code, out, _ = run(capsys, "classify", *MODEL1_FLAGS)
    assert code == 0
    assert "0.500000" in out       # standardized
    assert "0.250000" in out       # observed
    assert "0.450000" in out       # bias
    assert "confounder" in out
    assert "H1" in out and "H7" in out


def test_classify_model3_is_irrelevant(capsys):
    code, out, _ = run(
        capsys, "classify", "--model", "3", "--a", "0.5", "--t", "0.3",
        "--b0", "0.2", "--b1", "0.7", "--u0", "0.4", "--u1", "0.1",
    )
    assert code == 0
    assert "irrelevant" in out


def test_classify_model1_equal_exposure_rates(capsys):
    code, out, _ = run(
        capsys, "classify", "--model", "1", "--t", "0.4", "--a0", "0.3",
        "--a1", "0.3", "--b0", "0.1", "--b1", "0.7", "--u0", "0.3", "--u1", "0.9",
    )
    assert code == 0
    assert "irrelevant" in out


def test_classify_exact_fractions(capsys):
    code, out, _ = run(
        capsys, "classify", "--model", "3", "--a", "1/2", "--t", "3/10",
        "--b0", "1/5", "--b1", "7/10", "--u0", "2/5", "--u1", "0.1", "--exact",
    )
    assert code == 0
    assert "irrelevant" in out
    payload_code, json_out, _ = run(
        capsys, "classify", "--model", "3", "--a", "1/2", "--t", "3/10",
        "--b0", "1/5", "--b1", "7/10", "--u0", "2/5", "--u1", "0.1", "--exact",
        "--format", "json",
    )
    payload = json.loads(json_out)
    assert payload["report"]["verdict"] == "irrelevant"
    # exact values serialize as fraction strings
    assert payload["report"]["standardized"] == payload["report"]["observed"]
    assert payload["hypotheses"]["H4"] is True


def test_classify_json_payload_shape(capsys):
    code, out, _ = run(capsys, "classify", *MODEL1_FLAGS, "--format", "json")
    payload = json.loads(out)
    assert set(payload) == {"report", "hypotheses"}
    assert set(payload["hypotheses"]) == {"H1", "H2", "H3", "H4", "H5", "H6", "H7"}
    assert payload["report"]["verdict"] == "confounder"


def test_classify_usage_errors(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["classify", "--model", "1", "--t", "0.4"])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["classify", *MODEL1_FLAGS, "--c0", "0.5"])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["classify", *MODEL1_FLAGS[:-1], "not-a-number"])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["classify", "--model", "1", "--t", "1.4", "--a0", "0.2", "--a1", "0.6",
              "--b0", "0.1", "--b1", "0.7", "--u0", "0.3", "--u1", "0.9"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hypotheses", "--t", "0.4"], "parameter flags need --model to be interpreted"),
        (["hypotheses", "--model", "1"], "model 1 needs --t --a0 --a1 --b0 --b1 --u0 --u1"),
        (["hypotheses", "--model", "3", "--exact"], "model 3 needs --a --t --b0 --b1 --u0 --u1"),
        (["classify", *MODEL1_FLAGS, "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
        (
            ["verify", "--theorem", "T1", "--clause", "a", "--samples", "abc"],
            "argument --samples: invalid int value: 'abc'",
        ),
    ],
    ids=["flags-without-model", "model-without-flags", "exact-model-without-flags", "tol", "samples"],
)
def test_unparsable_arguments_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_classify_float_overflow_is_usage_error(capsys):
    argv = ["classify", "--model", "3", "--a", "0.5", "--t", "1e400",
            "--b0", "0.1", "--b1", "0.2", "--u0", "0.3", "--u1", "0.4"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "--t '1e400' is not a number" in capsys.readouterr().err
    # an exact rational of that size parses, and is then out of range
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--exact"])
    assert exit_info.value.code == 2
    assert "outside [0, 1]" in capsys.readouterr().err


# --- verify -----------------------------------------------------------------


def test_verify_t1a_passes(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "T1", "--clause", "a",
                       "--samples", "2000", "--seed", "7")
    assert code == 0
    assert "PASS" in out


def test_verify_exact_campaign(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "T4", "--clause", "d",
                       "--samples", "100", "--exact")
    assert code == 0
    assert "PASS" in out
    assert "max_violation  0" in out
    assert run(capsys, "verify", "--theorem", "T4", "--clause", "d",
               "--samples", "100", "--exact", "--tol", "0") == (code, out, "")


def test_verify_single_sample_deterministic(capsys):
    args = ("verify", "--theorem", "T2", "--clause", "e",
            "--samples", "1", "--seed", "1", "--format", "json")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b  # byte-identical
    payload = json.loads(out_a)
    assert set(payload) == {"clause", "samples", "max_violation", "failures", "seed"}
    assert payload["samples"] == 1
    assert payload["seed"] == 1
    assert payload["failures"] == 0


def test_verify_zero_tolerance_fails_campaign(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "T2", "--clause", "a",
                       "--samples", "500", "--seed", "3", "--tol", "0")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("verb", ["verify", "classify", "hypotheses"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_is_usage_error(capsys, verb, tol):
    args = ["--theorem", "T2", "--clause", "e", "--samples", "10"] if verb == "verify" else MODEL1_FLAGS
    with pytest.raises(SystemExit) as exit_info:
        main([verb, *args, f"--tol={tol}"])
    assert exit_info.value.code == 2
    assert "tolerance must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["verify", "classify", "hypotheses"])
def test_negative_tolerance_is_usage_error(capsys, verb):
    args = ["--theorem", "T2", "--clause", "e", "--samples", "10"] if verb == "verify" else MODEL1_FLAGS
    with pytest.raises(SystemExit) as exit_info:
        main([verb, *args, "--tol=-1"])
    assert exit_info.value.code == 2
    assert "tolerance must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["verify", "classify", "hypotheses"])
def test_exact_with_nonzero_tolerance_is_usage_error(capsys, verb):
    args = ["--theorem", "T2", "--clause", "e", "--samples", "10"] if verb == "verify" else MODEL1_FLAGS
    with pytest.raises(SystemExit) as exit_info:
        main([verb, *args, "--exact", "--tol", "0.5"])
    assert exit_info.value.code == 2
    assert "--exact requires --tol 0, got 0.5" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--samples", "--threads"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_counts_below_one_are_usage_errors(capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--theorem", "T2", "--clause", "e", f"{flag}={value}"])
    assert exit_info.value.code == 2
    assert f"{flag}: must be at least 1, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [[], ["--exact"]])
def test_verify_sample_count_past_the_kernels_is_one_error_line(capsys, monkeypatch, mode):
    # the kernels count samples in 64-bit signed integers; a larger count
    # was an OverflowError traceback (or, on the pure kernel, a campaign
    # that never ends), so any kernel call here fails the test
    class NoKernel:
        def __getattr__(self, name):
            pytest.fail(f"kernel {name} called for a count no kernel can take")

    monkeypatch.setattr(kernel, "_impl", NoKernel())
    code, out, err = run(capsys, "verify", "--theorem", "T1", "--clause", "a",
                         "--samples", "99999999999999999999999", *mode)
    assert (code, out) == (1, "")
    assert err == "error: samples must be below 2**63, got 99999999999999999999999\n"


def test_verify_unknown_clause_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--theorem", "T1", "--clause", "z"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["hypotheses", "--model", "3"],
        ["hypotheses", "--exact", "--tol", "0.5"],
        ["verify", "--theorem", "T9", "--clause", "a"],
        ["verify", "--theorem", "T1", "--clause", "a", "--exact", "--tol", "0.5"],
    ],
    ids=["params", "exact-tol", "unknown-clause", "verify-exact-tol"],
)
def test_usage_errors_after_parsing_show_the_verb_usage(capsys, argv):
    # errors raised after parse_args go through the verb's own parser, so
    # the usage line names the verb and its flags, not the verb list
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: confound-kit {argv[0]} ")


def test_verify_threads_flag_stable_output(capsys):
    base = ("verify", "--theorem", "T5", "--clause", "a", "--samples", "4000",
            "--seed", "11", "--format", "json")
    _, one, _ = run(capsys, *base, "--threads", "1")
    _, four, _ = run(capsys, *base, "--threads", "4")
    assert one == four


@functools.lru_cache(maxsize=None)
def _loaded(code):
    """The modules a fresh interpreter has loaded after running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(Path(confound_kit.__file__).parent.parent))
    code += "\nimport sys\nprint(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


def _added(code):
    """The modules ``code`` loads beyond what the bare interpreter has."""
    return _loaded(code) - _loaded("pass")


def _verb_loads(*argv):
    """The modules a fresh interpreter loads to run the CLI on ``argv``."""
    return _added(
        "import contextlib, io\n"
        "from confound_kit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0"
    )


_TABLES = {"csv", "confound_kit.tables"}
_CAMPAIGNS = {"confound_kit.theorems", "confound_kit.kernel", "confound_kit._pykernel"}


def test_package_import_loads_no_submodule():
    # every request pays for what `import confound_kit` loads; its names
    # load their modules on first access
    added = _added("import confound_kit")
    assert "confound_kit" in added
    assert not {m for m in added if m.startswith("confound_kit.")}
    assert not added & (_TABLES | _CAMPAIGNS)


def test_submodule_attribute_loads_the_submodule():
    # the eager package loaded every submodule, so code that reached one as
    # an attribute of the package keeps working
    added = _added("import confound_kit\nconfound_kit.theorems.verify_clause")
    assert "confound_kit.theorems" in added
    assert not added & _TABLES


@pytest.mark.parametrize(
    "argv, loads, skips",
    [
        (["classify", *MODEL1_FLAGS, "--format", "json"], {"confound_kit.measures"}, _TABLES | _CAMPAIGNS),
        (["classify", *MODEL1_FLAGS], {"confound_kit.measures"}, _TABLES | _CAMPAIGNS | {"json"}),
        (["hypotheses", *MODEL1_FLAGS, "--exact", "--format", "json"], {"confound_kit.hypotheses"},
         _TABLES | _CAMPAIGNS | {"confound_kit.measures"}),
        # the float default tolerance is read from joint, so no request of
        # this verb loads measures
        (["hypotheses", *MODEL1_FLAGS, "--format", "json"], {"confound_kit.hypotheses"},
         _TABLES | _CAMPAIGNS | {"confound_kit.measures"}),
        (["hypotheses"], {"confound_kit.hypotheses"}, _TABLES | _CAMPAIGNS | {"confound_kit.measures"}),
        (["analyze", "table1.csv", "--coarsen", "0=1,2,3;1=4", "--format", "json"], _TABLES,
         _CAMPAIGNS | {"confound_kit.hypotheses"}),
        (["verify", "--theorem", "T1", "--clause", "a", "--samples", "10", "--format", "json"],
         _CAMPAIGNS, _TABLES),
        (["verify", "--theorem", "T5", "--clause", "b", "--samples", "2", "--exact"],
         _CAMPAIGNS, _TABLES),
    ],
    ids=["classify", "classify-text", "hypotheses-exact", "hypotheses", "hypotheses-listing", "analyze", "verify",
         "verify-exact"],
)
def test_each_verb_loads_only_its_modules(argv, loads, skips):
    if argv[0] == "analyze":
        argv = [argv[0], str(fixture_path(argv[1])), *argv[2:]]
    added = _verb_loads(*argv)
    assert loads <= added
    assert not added & skips


def test_every_export_resolves_and_star_import_binds_them():
    namespace = {}
    exec("from confound_kit import *", namespace)
    for name in confound_kit.__all__:
        assert namespace[name] is getattr(confound_kit, name)
    for name in ("no_such_name", "__no_such_name__", "Verdicts"):
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(confound_kit, name)
    assert set(confound_kit.__all__) <= set(dir(confound_kit))


def test_cli_import_loads_no_heavy_modules():
    # every CLI request pays for what the import loads: dataclasses pulls in
    # inspect (and ast, dis, tokenize), concurrent.futures pulls in logging,
    # and only a campaign that splits needs a thread pool
    added = _added("import confound_kit.cli")
    assert "confound_kit.cli" in added
    assert not added & {"dataclasses", "inspect", "concurrent.futures", "logging"}


def test_closed_stdout_exits_quietly():
    # `confound-kit hypotheses | head -1`: the reader goes away after one
    # line, and the CLI exits without a BrokenPipeError traceback.  Whether
    # the rest of the listing was written before the reader left is a race,
    # so a pipe closed before the first write pins the exit code at 1.
    env = dict(os.environ, PYTHONPATH=str(Path(confound_kit.__file__).parent.parent))
    argv = [sys.executable, "-m", "confound_kit.cli", "hypotheses"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"id  statement\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1)
    assert err == b""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_cli_import_loads_no_sympy():
    # sympy proves the converse table in the tests only; the library has no
    # runtime dependencies
    assert "sympy" not in _loaded("import confound_kit.cli")


# --- hypotheses -------------------------------------------------------------


def test_hypotheses_listing(capsys):
    code, out, _ = run(capsys, "hypotheses")
    assert code == 0
    assert "E ⊥ D_ebar" in out
    assert out.count("H") >= 7
    # the bare listing: no model, so no evaluated columns
    assert out.splitlines()[0].split() == ["id", "statement"]


def test_hypotheses_evaluation(capsys):
    code, out, _ = run(
        capsys, "hypotheses", "--model", "1", "--t", "0.5", "--a0", "0.3",
        "--a1", "0.3", "--b0", "0.2", "--b1", "0.8", "--u0", "0.4", "--u1", "0.9",
    )
    assert code == 0
    lines = {line.split()[0]: line for line in out.splitlines() if line.startswith("H")}
    assert "true" in lines["H4"]
    assert "false" in lines["H6"]


def test_hypotheses_degenerate_renders_undefined(capsys):
    code, out, _ = run(
        capsys, "hypotheses", "--model", "1", "--t", "1.0", "--a0", "0.3",
        "--a1", "0.6", "--b0", "0.2", "--b1", "0.8", "--u0", "0.4", "--u1", "0.9",
    )
    assert code == 0
    assert "undefined" in out


def test_hypotheses_json_mode(capsys):
    code, out, _ = run(
        capsys, "hypotheses", "--model", "2", "--a", "0.4", "--c0", "0.35",
        "--c1", "0.35", "--b0", "0.2", "--b1", "0.8", "--u0", "0.4", "--u1", "0.9",
        "--format", "json",
    )
    payload = json.loads(out)
    rows = {row["id"]: row for row in payload["hypotheses"]}
    assert rows["H4"]["algebraic"] is True
    assert rows["H4"]["numeric"] is True
    assert rows["H1"]["statement"] == "E ⊥ D_ebar"


# --- shared behavior ---------------------------------------------------------


def test_json_byte_identical_across_runs(capsys):
    for argv in (
        ["classify", *MODEL1_FLAGS, "--format", "json"],
        ["analyze", str(fixture_path("table1_coarse.csv")), "--format", "json"],
        ["verify", "--theorem", "T3", "--clause", "b", "--samples", "300",
         "--seed", "5", "--format", "json"],
    ):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


PINNED_JSON = json.loads((Path(__file__).parent / "data" / "cli_json_bytes.json").read_text())


@pytest.mark.parametrize("case", PINNED_JSON, ids=[c["args"] for c in PINNED_JSON])
def test_json_bytes_pinned(capsys, case):
    # recorded before classify and hypotheses moved onto cell-index sums, and
    # the exact points where H1 or H5 holds (and model 2 with C=1 empty)
    # before the model algebra moved onto integer numerators, and the analyze
    # cases before the exact verdict moved onto integer cross-products; a
    # changed summation order, rounding or equality test shows up as changed
    # bytes.  The verify cases (exact campaigns of the three H1 clauses,
    # which redraw, and of T1(a), T3(c) and T5(b), and one float campaign)
    # were recorded before exact campaigns drew a block of samples per
    # kernel call.  An analyze case names a bundled table, resolved here so the
    # case does not depend on the working directory.
    argv = case["args"].split()
    if argv[0] == "analyze":
        argv[1] = str(fixture_path(argv[1]))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == case["stdout"]


PINNED_TEXT = json.loads((Path(__file__).parent / "data" / "cli_text_bytes.json").read_text())


@pytest.mark.parametrize("case", PINNED_TEXT, ids=[c["args"] for c in PINNED_TEXT])
def test_text_bytes_pinned(capsys, case):
    # recorded before the report, hypothesis and verify tables shared one
    # column renderer and one number formatter: a changed width, padding or
    # number spelling shows up as changed bytes.  The last case is a float
    # campaign at --tol 0, which fails and exits 1.
    argv = case["args"].split()
    if argv[0] == "analyze":
        argv[1] = str(fixture_path(argv[1]))
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (case["exit"], case["stdout"])


PINNED_USAGE = json.loads((Path(__file__).parent / "data" / "cli_usage_bytes.json").read_text())


@pytest.mark.parametrize("case", PINNED_USAGE, ids=[c["args"] or "no-verb" for c in PINNED_USAGE])
def test_help_and_usage_bytes_pinned(capsys, monkeypatch, case):
    # recorded while every verb's parser was built with its arguments up
    # front: --help of the program and of each verb, and the usage errors
    # argparse and the verbs raise, at an 80-column terminal
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(case["args"].split())
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])


def test_parser_program_name():
    assert build_parser().prog == "confound-kit"

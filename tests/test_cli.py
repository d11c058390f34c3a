"""End-to-end tests for the command-line interface."""

import enum
import functools
import gc
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import confound_kit
from confound_kit import fixture_path, kernel
from confound_kit.cli import _ALL_PARAM_FLAGS, _json, _screen, build_parser, main

MODEL1_FLAGS = [
    "--model", "1", "--t", "0.4", "--a0", "0.2", "--a1", "0.6",
    "--b0", "0.1", "--b1", "0.7", "--u0", "0.3", "--u1", "0.9",
]


ROOT = Path(__file__).resolve().parent.parent


def _process_env(**extra):
    """The environment of a fresh interpreter that imports this package."""
    return dict(os.environ, PYTHONPATH=str(Path(confound_kit.__file__).parent.parent), **extra)


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


@pytest.mark.parametrize(
    "make, message",
    [
        # the decode error once ended the CLI in a UnicodeDecodeError traceback
        (
            lambda path: path.write_bytes("type,exposure,stratum,count\ndoomed,e,caf\xe9,1\n".encode("latin-1")),
            "cannot read {}: not UTF-8 text (invalid continuation byte)",
        ),
        (lambda path: path.mkdir(), "cannot read {}: Is a directory"),
        (lambda path: path.write_bytes(b""), "empty source: no header line found"),
        (lambda path: None, "cannot read {}: No such file or directory"),
        (lambda path: path.write_bytes(bytes(range(256))), "cannot read {}: not UTF-8 text (invalid start byte)"),
    ],
    ids=["not-utf8", "directory", "empty", "missing", "binary"],
)
def test_analyze_hostile_file_is_one_error_line(capsys, tmp_path, make, message):
    path = tmp_path / "table.csv"
    make(path)
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {message.format(path)}\n"


def test_analyze_counts_past_the_machine_integers_exactly(capsys, tmp_path):
    path = tmp_path / "big.csv"
    big = 10**23
    path.write_text(
        f"type,exposure,stratum,count\ndoomed,e,0,{big}\nimmune,e,1,3\ncausative,ebar,0,2\npreventive,ebar,1,{big}\n"
    )
    code, out, err = run(capsys, "analyze", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "hypothetical": f"{big}/{big + 3}",
        "observed": f"{big // 2}/{big // 2 + 1}",
        "standardized": f"3/{big + 3}",
        "bias": f"-{big // 2}/{(big + 3) * (big // 2 + 1)}",
        "adjusted_gap": f"{big - 3}/{big + 3}",
        "verdict": "neither",
    }


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


# campaigns run on the calling thread: the flag that capped their threads is gone
_COUNT_ERRORS = {"--samples": "--samples: must be at least 1, got '{}'", "--threads": "unrecognized arguments: --threads={}"}


@pytest.mark.parametrize("flag", ["--samples", "--threads"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_counts_below_one_are_usage_errors(capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--theorem", "T2", "--clause", "e", f"{flag}={value}"])
    assert exit_info.value.code == 2
    assert _COUNT_ERRORS[flag].format(value) in capsys.readouterr().err


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


def test_empty_coarsening_spec_is_a_domain_error(capsys):
    # an empty --coarsen once printed the uncoarsened analysis and exited 0
    argv = ["analyze", str(fixture_path("table1_coarse.csv")), "--coarsen", ""]
    assert _screen(argv) is not None
    assert run(capsys, *argv) == (1, "", "error: empty coarsening spec ''\n")


# --- the screen --------------------------------------------------------------

# values for each argument, well-formed for the parser; the model and clause
# values need not name a real model or clause, since the verbs check those
_PARAM_VALUES = st.sampled_from(["0.4", "1/2", "7", "abc", "", " 0.3", "1e400"])
_VALUES = {
    "table": st.sampled_from(["table1.csv", "x.csv", "", "a b"]),
    "--coarsen": st.sampled_from(["0=1,2,3;1=4", "", "0=1"]),
    "--format": st.sampled_from(["text", "json"]),
    "--model": st.sampled_from(["1", "2", "3", "03", " 2"]),
    "--tol": st.sampled_from(["0", "1e-9", "0.5", "1E3", " 0.1"]),
    "--theorem": st.sampled_from(["T1", "T5", "T9", ""]),
    "--clause": st.sampled_from(["a", "e", "z"]),
    "--samples": st.sampled_from(["1", "10", "99999999999999999999999", "1_000"]),
    "--seed": st.sampled_from(["0", "7", "12345678901234567890", " 3"]),
    **{f"--{name}": _PARAM_VALUES for name in _ALL_PARAM_FLAGS},
}
_REQUIRED = {"analyze": {"table"}, "classify": {"--model"}, "verify": {"--theorem", "--clause"}, "hypotheses": set()}
_OPTIONAL = {
    "analyze": ["--coarsen", "--format"],
    "classify": ["--model", *(f"--{name}" for name in _ALL_PARAM_FLAGS), "--tol", "--exact", "--format"],
    "verify": ["--samples", "--seed", "--tol", "--exact", "--format"],
}
_OPTIONAL["hypotheses"] = _OPTIONAL["classify"]
# tokens argparse reads in ways the screen declines, values some converter
# or choice refuses, and stray ones
_ODD_TOKENS = st.sampled_from([
    "-h", "--help", "--version", "--", "-", "-5", "--seed=-5", "--format=json", "--samp", "--form", "--mod",
    "--ex", "--exact", "--threads", "--nope", "", "json", "xml", "4", "0", "1.5", "nan", "0x10", "T1",
    "classify", "table1.csv",
])


@st.composite
def _well_formed(draw):
    """A request the screen must take: a verb, its required arguments and
    some of its optional ones, each once, in any order, with the verb's
    positional argument anywhere between them."""
    verb = draw(st.sampled_from(sorted(_REQUIRED)))
    chosen = draw(st.lists(st.sampled_from(_OPTIONAL[verb]), unique=True))
    pairs = [
        [name] if name == "--exact" else [name, draw(_VALUES[name])]
        for name in draw(st.permutations(sorted(_REQUIRED[verb] - {"table"} | set(chosen))))
    ]
    if verb == "analyze":
        pairs.insert(draw(st.integers(0, len(pairs))), [draw(_VALUES["table"])])
    return [verb, *(token for pair in pairs for token in pair)]


@st.composite
def _any_request(draw):
    """A well-formed request with tokens inserted, replaced or dropped, or a
    list of odd tokens after a verb."""
    argv = draw(_well_formed())
    if draw(st.integers(0, 3)) == 0:
        argv = [argv[0], *draw(st.lists(_ODD_TOKENS | st.sampled_from(argv[1:] or [""]), max_size=8))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        change = draw(st.sampled_from(["insert", "replace", "drop"]))
        token = draw(_ODD_TOKENS | st.sampled_from(sorted(_VALUES)) | st.one_of(*_VALUES.values()))
        if change == "insert":
            argv.insert(at, token)
        elif at < len(argv):
            argv[at : at + 1] = [token] if change == "replace" else []
    return argv


def _parsed(argv):
    return vars(build_parser().parse_args(argv))


def _screened(argv):
    screened = _screen(argv)
    return None if screened is None else vars(screened)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_well_formed())
@example(["hypotheses"])
@example(["analyze", "t.csv"])
@example(["analyze", "--format", "json", "t.csv", "--coarsen", "0=1"])
@example(["verify", "--exact", "--clause", "a", "--tol", "0", "--theorem", "T1", "--seed", "12345678901234567890"])
@example(["classify", "--model", "3", "--exact", "--a", "", "--format", "json"])
def test_screen_takes_every_well_formed_request_as_argparse_does(argv):
    # the screen parses it, and into argparse's namespace: every attribute,
    # default and handler
    assert _screened(argv) == _parsed(argv)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(_any_request())
def test_screen_declines_or_agrees_with_argparse(argv):
    screened = _screened(argv)
    if screened is not None:
        assert screened == _parsed(argv)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["--version"],
        ["bogus"],
        ["ver", "--theorem", "T1", "--clause", "a"],
        ["verify", "--help"],
        ["verify", "-h", "--theorem", "T1", "--clause", "a"],
        ["verify", "--theorem", "T1", "--clause", "a", "--version"],
        ["verify", "--theorem", "T1", "--clause", "a", "--samp", "5"],
        ["verify", "--theorem", "T1", "--clause", "a", "--format=json"],
        ["verify", "--theorem", "T1", "--clause", "a", "--seed", "1", "--seed", "2"],
        ["verify", "--theorem", "T1", "--clause", "a", "--exact", "--exact"],
        ["verify", "--theorem", "T1", "--clause", "a", "--seed", "-5"],
        ["verify", "--theorem", "T1", "--clause", "a", "--tol", "-1"],
        ["verify", "--theorem", "T1", "--clause", "a", "--samples", ""],
        ["verify", "--theorem", "T1", "--clause", "a", "--samples", "0"],
        ["verify", "--theorem", "T1", "--clause", "a", "--seed", "1.5"],
        ["verify", "--theorem", "T1", "--clause", "a", "--tol", "nan"],
        ["verify", "--theorem", "T1", "--clause", "a", "--threads", "2"],
        ["verify", "--theorem", "T1", "--clause"],
        ["verify", "--theorem", "T1", "--clause", "--seed", "1"],
        ["verify", "--theorem", "T1"],
        ["verify", "--theorem", "T1", "--clause", "a", "extra"],
        ["verify", "--theorem", "T1", "--clause", "a", "--", "--seed", "1"],
        ["verify", "--theorem", "T1", "--clause", "a", "--format", "xml"],
        ["classify", "--model", "4"],
        ["classify", "--model", "one"],
        ["classify", "--t", "0.4"],
        ["hypotheses", "--t", "-0.4"],
        ["analyze"],
        ["analyze", "a.csv", "b.csv"],
        ["analyze", "-"],
        ["analyze", "a.csv", "--coarsen"],
    ],
)
def test_screen_declines_what_only_argparse_answers(argv):
    assert _screen(argv) is None


def test_abbreviated_flag_prints_what_the_full_flag_prints(capsys):
    # argparse parses what the screen declines, to the same request
    argv = ["verify", "--theorem", "T1", "--clause", "a", "--seed", "3", "--format", "json"]
    assert run(capsys, *argv, "--samp", "10") == run(capsys, *argv, "--samples", "10")


@functools.lru_cache(maxsize=None)
def _loaded(code, tree=None):
    """The modules a fresh interpreter has loaded after running ``code``,
    with ``tree`` (default: this package's) on PYTHONPATH."""
    code += "\nimport sys\nprint(*sys.modules)"
    env = _process_env() if tree is None else dict(os.environ, PYTHONPATH=tree)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


def _added(code, tree=None):
    """The modules ``code`` loads beyond what the bare interpreter has."""
    return _loaded(code, tree) - _loaded("pass", tree)


def _verb_loads(*argv, tree=None):
    """The modules a fresh interpreter loads to run the CLI on ``argv``."""
    return _added(
        "import contextlib, io\n"
        "from confound_kit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0",
        tree,
    )


@pytest.fixture(scope="module")
def compiled_tree(backends, tmp_path_factory):
    """A copy of the package with the compiled kernel in it, so that a fresh
    interpreter on it selects that kernel, wherever this one's came from."""
    tree = tmp_path_factory.mktemp("compiled_tree")
    shutil.copytree(
        Path(confound_kit.__file__).parent,
        tree / "confound_kit",
        ignore=shutil.ignore_patterns("__pycache__", "_ckernel*.so"),
    )
    shutil.copy(backends["compiled"].__file__, tree / "confound_kit")
    return str(tree)


_TABLES = {"csv", "confound_kit.tables"}
_CAMPAIGNS = {"confound_kit.theorems", "confound_kit.kernel"}
_KERNELS = {"confound_kit._pykernel", "confound_kit._ckernel"}
# the backend kernel.py selects here, and so in a fresh interpreter on this package
_SELECTED = {"pure": "confound_kit._pykernel", "compiled": "confound_kit._ckernel"}[kernel.BACKEND]
# the CLI writes JSON itself
_JSON = {"json", "json.decoder", "json.encoder", "json.scanner", "_json"}
# argparse, and what it loads, serve only the requests the screen declines
_ARGPARSE = {"argparse", "gettext", "locale", "_locale"}


def test_package_import_loads_no_submodule():
    # every request pays for what `import confound_kit` loads; its names
    # load their modules on first access
    added = _added("import confound_kit")
    assert "confound_kit" in added
    assert not {m for m in added if m.startswith("confound_kit.")}
    assert not added & (_TABLES | _CAMPAIGNS | _KERNELS)


def test_submodule_attribute_loads_the_submodule():
    # the eager package loaded every submodule, so code that reached one as
    # an attribute of the package keeps working
    added = _added("import confound_kit\nconfound_kit.theorems.verify_clause")
    assert "confound_kit.theorems" in added
    assert not added & _TABLES


@pytest.mark.parametrize(
    "argv, loads, skips",
    [
        (["classify", *MODEL1_FLAGS, "--format", "json"], {"confound_kit.measures"},
         _TABLES | _CAMPAIGNS | _KERNELS | _JSON | _ARGPARSE),
        (["classify", *MODEL1_FLAGS], {"confound_kit.measures"}, _TABLES | _CAMPAIGNS | _KERNELS | _JSON | _ARGPARSE),
        (["hypotheses", *MODEL1_FLAGS, "--exact", "--format", "json"], {"confound_kit.hypotheses"},
         _TABLES | _CAMPAIGNS | _KERNELS | _JSON | _ARGPARSE | {"confound_kit.measures"}),
        # the float default tolerance is read from joint, so no request of
        # this verb loads measures
        (["hypotheses", *MODEL1_FLAGS, "--format", "json"], {"confound_kit.hypotheses"},
         _TABLES | _CAMPAIGNS | _KERNELS | _JSON | _ARGPARSE | {"confound_kit.measures"}),
        (["hypotheses"], {"confound_kit.hypotheses"},
         _TABLES | _CAMPAIGNS | _KERNELS | _JSON | _ARGPARSE | {"confound_kit.measures"}),
        (["analyze", "table1.csv", "--coarsen", "0=1,2,3;1=4", "--format", "json"], _TABLES,
         _CAMPAIGNS | _KERNELS | _JSON | _ARGPARSE | {"confound_kit.hypotheses"}),
        # a campaign loads the selected kernel alone, and measures serves
        # only falsify_converse
        (["verify", "--theorem", "T1", "--clause", "a", "--samples", "10", "--format", "json"],
         _CAMPAIGNS | {_SELECTED}, _TABLES | (_KERNELS - {_SELECTED}) | _JSON | _ARGPARSE | {"confound_kit.measures"}),
        (["verify", "--theorem", "T5", "--clause", "b", "--samples", "2", "--exact"],
         _CAMPAIGNS | {_SELECTED}, _TABLES | (_KERNELS - {_SELECTED}) | _JSON | _ARGPARSE | {"confound_kit.measures"}),
        # an abbreviated flag is argparse's to parse
        (["verify", "--theorem", "T1", "--clause", "a", "--samp", "10", "--format", "json"],
         _CAMPAIGNS | {_SELECTED, "argparse"}, _TABLES | (_KERNELS - {_SELECTED}) | _JSON | {"confound_kit.measures"}),
    ],
    ids=["classify", "classify-text", "hypotheses-exact", "hypotheses", "hypotheses-listing", "analyze", "verify",
         "verify-exact", "verify-abbreviated"],
)
def test_each_verb_loads_only_its_modules(argv, loads, skips):
    if argv[0] == "analyze":
        argv = [argv[0], str(fixture_path(argv[1])), *argv[2:]]
    added = _verb_loads(*argv)
    assert loads <= added
    assert not added & skips


def test_verify_on_the_compiled_kernel_loads_no_pure_kernel(compiled_tree):
    added = _verb_loads("verify", "--theorem", "T2", "--clause", "a", "--samples", "10", "--format", "json",
                        tree=compiled_tree)
    assert _CAMPAIGNS | {"confound_kit._ckernel"} <= added
    assert not added & ({"confound_kit._pykernel", "confound_kit.measures"} | _JSON)


@pytest.mark.parametrize("first", ["kernel", "_pykernel"])
@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "pure"])
def test_kernel_backends_in_either_import_order(compiled_tree, first, compiled):
    # kernel.py defines the codes _pykernel reads before it imports a
    # backend, so the cycle resolves whichever module is imported first;
    # available_backends() still returns both after a compiled-only import
    code = (
        "import sys\n"
        f"import confound_kit.{first}\n"
        "from confound_kit import kernel\n"
        "pure_loaded = 'confound_kit._pykernel' in sys.modules\n"
        "backends = kernel.available_backends()\n"
        "pure = backends['pure']\n"
        "assert (pure.EQ_NONE, pure.EQ_H1, pure.EQ_H5) == (kernel.EQ_NONE, kernel.EQ_H1, kernel.EQ_H5) == (0, 1, 2)\n"
        "assert (pure.IRRELEVANT, pure.NO_CONFOUNDING) == (kernel.IRRELEVANT, kernel.NO_CONFOUNDING) == (0, 1)\n"
        "args = (1, (0, 1, 2, 3, 4, 5, 6), kernel.EQ_NONE, kernel.IRRELEVANT, 0, 64, 7, 1e-10, 1000)\n"
        "results = {name: b.run_campaign(*args) for name, b in backends.items()}\n"
        "assert len(set(results.values())) == 1 and kernel.run_campaign(*args) == results['pure'], results\n"
        "print(kernel.BACKEND, pure_loaded, *sorted(backends))"
    )
    tree = compiled_tree if compiled else str(Path(confound_kit.__file__).parent.parent)
    if not compiled:
        code = "import sys\nsys.modules['confound_kit._ckernel'] = None\n" + code  # the import fails
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=tree),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    if compiled:
        assert proc.stdout.split() == ["compiled", str(first == "_pykernel"), "compiled", "pure"]
    else:
        assert proc.stdout.split() == ["pure", "True", "pure"]


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
    # and argparse pulls in gettext and locale
    added = _added("import confound_kit.cli")
    assert "confound_kit.cli" in added
    assert not added & {"dataclasses", "inspect", "concurrent.futures", "logging", "argparse"}


def test_closed_stdout_exits_quietly():
    # `confound-kit hypotheses | head -1`: the reader goes away after one
    # line, and the CLI exits without a BrokenPipeError traceback.  Whether
    # the rest of the listing was written before the reader left is a race,
    # so a pipe closed before the first write pins the exit code at 1.
    env = _process_env()
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


def _pinned(cases, args):
    case = next(case for case in cases if case["args"] == args)
    return pytest.param(case, id=args or "no-verb")


@pytest.mark.parametrize(
    "case",
    [
        _pinned(PINNED_JSON, "classify --model 3 --a 9/20 --t 7/10 --b0 1/5 --b1 3/5 --u0 1/2 --u1 4/5 --exact --format json"),
        _pinned(PINNED_JSON, "hypotheses --model 3 --a 9/20 --t 7/10 --b0 1/5 --b1 3/5 --u0 1/2 --u1 4/5 --exact --format json"),
        _pinned(PINNED_JSON, "analyze table1.csv --coarsen 0=1,2,3;1=4 --format json"),
        _pinned(PINNED_JSON, "verify --theorem T1 --clause a --samples 300 --seed 31337 --exact --format json"),
        _pinned(PINNED_TEXT, "classify --model 1 --t 0.4 --a0 0.2 --a1 0.6 --b0 0.3 --b1 0.7 --u0 0.3 --u1 0.9"),
        _pinned(PINNED_TEXT, "hypotheses"),
        _pinned(PINNED_TEXT, "analyze table2_coarse.csv"),
        _pinned(PINNED_TEXT, "verify --theorem T2 --clause e --samples 2000 --seed 11 --tol 0"),
        _pinned(PINNED_USAGE, "--help"),
        _pinned(PINNED_USAGE, "verify --help"),
        _pinned(PINNED_USAGE, ""),
        _pinned(PINNED_USAGE, "classify --model 1"),
    ],
)
def test_pinned_bytes_from_a_process_of_its_own(case):
    # the pins above run in process through main(); a request runs as
    # `python -m confound_kit.cli`, whose exit must leave its output, exit
    # code and stderr as main() gives them: each verb, a failed campaign
    # (exit 1), usage errors (exit 2) and --help
    argv = case["args"].split()
    if argv and argv[0] == "analyze":
        argv[1] = str(fixture_path(argv[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "confound_kit.cli", *argv],
        env=_process_env(COLUMNS="80"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    expected = (case.get("exit", 0), case["stdout"], case.get("stderr", ""))
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


# --- the JSON writer --------------------------------------------------------

# the whole code-point range, lone surrogates included
_any_text = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()))
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.floats(),
    st.floats(allow_subnormal=True, min_value=-1e-300, max_value=1e-300),
    _any_text,
    st.sampled_from(["\x7f", "\x00", "\x1f", "\"", "\\", "\U0001F600", "\ud800", "\udfff", "\u2028"]),
)
_json_payloads = st.recursive(
    _json_scalars,
    lambda children: st.one_of(st.lists(children, max_size=4), st.dictionaries(_any_text, children, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_json_payloads)
@example({})
@example([])
@example({"": [], "[]": {}})
@example("".join(map(chr, range(0x80))))
@example(["\x7f", "\U0001F600", "\U0010FFFF", "\ud800", "\udfff", "\udbff\udc00", "\u00e9\u2028\uffff"])
@example([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072009e-308, 1e16, 1.7976931348623157e308])
@example([2**64, -(2**64) - 1, 10**100, True, False, None, 0, 1])
def test_json_writer_equals_json_dumps(payload):
    assert _json(payload) == json.dumps(payload)


class _Color(enum.Enum):
    RED = "red"


@pytest.mark.parametrize(
    "payload",
    [(1, 2), {1: "x"}, {("a",): 1}, Fraction(1, 3), _Color.RED, [{"a": (1,)}]],
    ids=["tuple", "int-key", "tuple-key", "fraction", "enum-member", "nested-tuple"],
)
def test_json_writer_refuses_values_outside_the_payload_grammar(payload):
    # json.dumps would write some of these; the writer keeps to the grammar
    # the verbs emit, so a payload that leaves it fails here, not in bytes
    with pytest.raises(TypeError):
        _json(payload)


# --- the program entry ------------------------------------------------------


def test_main_leaves_the_collector_alone(capsys):
    # only the program entry freezes: tests and library callers that call
    # main() keep their collector as it was
    before = gc.get_freeze_count()
    assert main(["hypotheses"]) == 0
    with pytest.raises(SystemExit):
        main(["bogus"])
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize(
    "argv, exit_code",
    [(["hypotheses"], 0), (["--version"], 0), (["bogus"], 2)],
    ids=["request", "version", "usage-error"],
)
def test_program_entry_freezes_even_when_argparse_exits(argv, exit_code):
    # `python -m confound_kit.cli` in a process of its own, since the freeze
    # would change this one's collector
    code = (
        "import gc, runpy, sys\n"
        f"sys.argv = ['confound-kit', *{argv!r}]\n"
        "before, status = gc.get_freeze_count(), None\n"
        "try:\n"
        "    runpy.run_module('confound_kit.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "print(status, before, gc.get_freeze_count(), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_process_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    status, before, after = proc.stderr.split()[-3:]
    assert (status, before) == (str(exit_code), "0")
    assert int(after) > 0


def test_installed_script_is_the_program_entry():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["confound-kit", "=", '"confound_kit.cli:console_main"']


def test_cli_ab_prints_one_row_per_kind(tmp_path):
    # a smoke run of the cold-start A/B script with the base taken from a
    # throwaway repository whose one commit holds this package, and its
    # checkout as the B tree: the script finds the outputs and the loaded
    # modules equal and prints a row for every request kind; its timings are
    # not checked.  The package is a copy, since the script lets its processes
    # write byte-compiled files into the trees.
    repo = tmp_path / "repo"
    shutil.copytree(
        Path(confound_kit.__file__).parent, repo / "src" / "confound_kit", ignore=shutil.ignore_patterns("__pycache__")
    )
    for git in (["init", "-q"], ["add", "src"], ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "base"]):
        subprocess.run(["git", *git], cwd=repo, check=True, capture_output=True, timeout=60)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_ab.py"), "--base", "HEAD", "src", "--rounds", "1"],
        cwd=repo,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    base = Path(lines[0].removeprefix("A "))
    assert base.name == "src" and base.parent.name.startswith("cli_ab_base_")
    assert not base.exists()  # the unpacked base is removed at exit
    assert Path(lines[1].removeprefix("B ")) == (repo / "src").resolve()
    header = next(i for i, line in enumerate(lines) if line.startswith("kind"))
    rows = [line.split() for line in lines[header + 1 :]]
    kinds = ["classify", "classify-exact", "hypotheses", "analyze-table1", "analyze-table2", "verify", "verify-exact"]
    assert lines[header - len(kinds) : header] == [f"{kind}: same modules" for kind in kinds]
    assert [row[0] for row in rows] == kinds
    assert all(len(row) == 7 and row[6].endswith("/1") for row in rows), rows

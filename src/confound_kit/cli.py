"""Command-line interface.

Verbs: analyze a stratified count table, classify a parameterized model,
verify a catalog clause by campaign, and list or evaluate the hypotheses.
All verbs take --format text|json; JSON output is exactly the module
serializers' dictionaries, written by ``_json`` byte for byte as
``json.dumps`` writes them, so identical invocations print identical bytes
and no request loads ``json``.
A well-formed request is parsed by ``_screen``, which never imports
``argparse``: exact verb and flag names, each flag at most once, with a
value that converts.  Anything else (help, --version, an abbreviated flag,
``--flag=value``, a usage error) goes to the plain argparse parser of
``build_parser``, with every verb's arguments, so help and error output stay
argparse's.  Both read one declaration of each verb's arguments.  A verb
imports the modules it runs when it runs, and the program entry
``console_main`` freezes the collector at exit (``gc.freeze``).
Exit codes: 0 success (for verify, a campaign with zero failures), 1 domain
errors, a failed campaign or a stdout closed by its reader, 2 usage errors.
"""

from __future__ import annotations

import gc
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from . import __version__
from .errors import ConfoundKitError, DegenerateEventError, ParameterError
from .joint import DEFAULT_FLOAT_TOL, _num_to_text, _render_columns, build_joint, params_type

if TYPE_CHECKING:
    import argparse

# each parameter class field once, in model then field order
_ALL_PARAM_FLAGS = tuple(dict.fromkeys(f for m in (1, 2, 3) for f in params_type(m)._fields))


class _UsageError(Exception):
    """A usage error a verb finds after parsing; ``main`` reports it through
    the verb's argparse parser, so it shows that verb's usage line."""


def _type_error(message: str) -> Exception:
    """The error a converter raises for a value argparse is to refuse with
    ``message``; argparse is imported here only, once a value fails."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _tolerance(text: str) -> float:
    """--tol parser: a finite float >= 0, so any other tolerance is a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise _type_error(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise _type_error(f"tolerance must be finite, got {text!r}")
    if value < 0:
        raise _type_error(f"tolerance must be nonnegative, got {text!r}")
    return value


def _count(text: str) -> int:
    """--samples parser: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise _type_error(f"invalid int value: {text!r}") from None
    if value < 1:
        raise _type_error(f"must be at least 1, got {text!r}")
    return value


# Each verb's arguments, in the order its help lists them, as argparse's
# ``add_argument`` name and keywords.  The verb's argparse parser adds them
# as they are; ``_screen`` reads the same keywords (action, type, choices,
# default, required), so the two parse one grammar.
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})


def _model_arguments(params_required: bool) -> tuple:
    return (
        ("--model", {"type": int, "choices": (1, 2, 3), "required": params_required}),
        *((f"--{name}", {"metavar": "P", "default": None}) for name in _ALL_PARAM_FLAGS),
        ("--tol", {"type": _tolerance, "default": None, "help": "default 1e-9 (0 when --exact)"}),
        ("--exact", {"action": "store_true", "default": False, "help": "parse parameters as exact rationals"}),
        _FORMAT,
    )


_ANALYZE_ARGUMENTS = (
    ("table", {"help": "CSV file with header type,exposure,stratum,count"}),
    ("--coarsen", {"metavar": "SPEC", "help": "fold strata into binary groups first, e.g. '0=1,2,3;1=4'"}),
    _FORMAT,
)
_VERIFY_ARGUMENTS = (
    ("--theorem", {"required": True, "metavar": "T", "help": "T1..T5"}),
    ("--clause", {"required": True, "metavar": "C", "help": "a..e"}),
    ("--samples", {"type": _count, "default": 10000}),
    ("--seed", {"type": int, "default": 0}),
    ("--tol", {"type": _tolerance, "default": None, "help": "default 1e-10 (0 when --exact)"}),
    ("--exact", {"action": "store_true", "default": False, "help": "rational arithmetic campaign"}),
    _FORMAT,
)


def _screen(argv) -> Optional[SimpleNamespace]:
    """The namespace ``build_parser().parse_args(argv)`` returns, built
    without argparse for a well-formed request: an exact verb name, exact
    ``--flag value`` pairs and switches, each at most once, and the verb's
    positional argument.  None for anything else: help, --version, an
    abbreviated flag, ``--flag=value``, a repeated flag, a value that starts
    with '-', a missing value, a value that does not convert or is not one of
    the choices, or a missing required argument.  argparse then parses the
    request, so its help, usage lines and error messages stay its own."""
    if not argv or argv[0] not in _VERBS:
        return None
    verb = argv[0]
    _, run, arguments = _VERBS[verb]
    declared = dict(arguments)
    positionals = [name for name in declared if not name.startswith("-")]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if not positionals:
                return None
            name, text = positionals.pop(0), token
        elif token not in declared or token in given:
            return None
        elif declared[token].get("action") == "store_true":
            given[token] = True
            continue
        else:
            name, text = token, next(tokens, "-")  # a missing value reads as "-"
            if text.startswith("-"):
                return None
        keywords = declared[name]
        convert = keywords.get("type")
        if convert is not None:
            try:
                value = convert(text)
            except Exception:  # argparse parses the request again and reports the error, or raises it
                return None
        else:
            value = text
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        given[name] = value
    namespace = SimpleNamespace(command=verb, func=run)
    for name, keywords in arguments:
        if name in given:
            value = given[name]
        elif keywords.get("required") or not name.startswith("-"):
            return None
        else:
            value = keywords.get("default")
        setattr(namespace, name.lstrip("-"), value)
    return namespace


def _collect_params(args, required: bool = True):
    given = {
        name: getattr(args, name)
        for name in _ALL_PARAM_FLAGS
        if getattr(args, name) is not None
    }
    if not given and not required and args.model is None:
        return None
    if args.model is None:
        raise _UsageError("parameter flags need --model to be interpreted")
    needed = params_type(args.model)._fields
    missing = [n for n in needed if n not in given]
    extra = sorted(set(given) - set(needed))
    if missing:
        raise _UsageError(
            f"model {args.model} needs " + " ".join(f"--{n}" for n in missing)
        )
    if extra:
        raise _UsageError(
            f"model {args.model} does not take " + " ".join(f"--{n}" for n in extra)
        )
    values = {}
    for name in needed:
        try:
            value = Fraction(given[name])
            values[name] = value if args.exact else float(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise _UsageError(f"--{name} {given[name]!r} is not a number") from None
    try:
        return params_type(args.model)(**values)
    except ConfoundKitError as exc:
        raise _UsageError(str(exc)) from None


def _check_exact_tol(args) -> None:
    if args.exact and args.tol not in (None, 0):
        raise _UsageError(f"--exact requires --tol 0, got {args.tol}")


def _resolved_tol(args) -> object:
    _check_exact_tol(args)
    if args.exact:
        return 0
    if args.tol is None:
        return DEFAULT_FLOAT_TOL
    return args.tol


# the escapes json.dumps writes for a quote, a backslash and five controls
_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}


def _json_char(c: str) -> str:
    """A character outside printable ASCII, a quote or a backslash, escaped
    as ``json.dumps`` escapes it: an astral one as a surrogate pair."""
    escape = _JSON_ESCAPES.get(c)
    if escape is not None:
        return escape
    n = ord(c)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000
    return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"


def _json_str(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return '"' + "".join(c if " " <= c <= "~" and c != '"' and c != "\\" else _json_char(c) for c in s) + '"'


def _json(value) -> str:
    """``json.dumps(value)``, byte for byte, without loading ``json``.

    ``value`` is what the verbs emit: dicts with str keys, lists, str, int,
    float, bool and None, each of exactly that type.  Anything else raises
    TypeError rather than risk bytes ``json.dumps`` would not write.
    """
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")
    if kind is list:
        return "[" + ", ".join([_json(item) for item in value]) + "]"
    if kind is dict:
        items = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_json_str(key) + ": " + _json(item))
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(args, payload: dict, text: str) -> None:
    print(_json(payload) if args.format == "json" else text)


def _run_analyze(args) -> int:
    from .tables import CoarseningMap, analyze_counts, coarsen, load_counts

    counts = load_counts(args.table)
    if args.coarsen is not None:
        counts = coarsen(counts, CoarseningMap.from_spec(args.coarsen))
    report = analyze_counts(counts)
    _emit(args, report.to_dict(), report.render_text())
    return 0


def _hypothesis_rows(params, tol):
    from .hypotheses import Hypothesis, holds_algebraic, holds_numeric

    joint = build_joint(params) if params is not None else None
    rows = []
    for h in Hypothesis:
        row = {"id": h.value, "statement": h.statement}
        if params is not None:
            row["algebraic"] = _maybe(holds_algebraic, params, h, tol)
            row["numeric"] = _maybe(holds_numeric, joint, h, tol)
        rows.append(row)
    return rows


def _maybe(check, subject, h, tol) -> Optional[bool]:
    try:
        return check(subject, h, tol)
    except DegenerateEventError:
        return None


def _render_hypothesis_rows(rows) -> str:
    have_values = "algebraic" in rows[0]
    table = [["id", "statement"] + (["algebraic", "numeric"] if have_values else [])]
    for row in rows:
        line = [row["id"], row["statement"]]
        if have_values:
            line += [_tri(row["algebraic"]), _tri(row["numeric"])]
        table.append(line)
    return _render_columns(table)


def _tri(value: Optional[bool]) -> str:
    return "undefined" if value is None else ("true" if value else "false")


def _run_classify(args) -> int:
    from .measures import classify_covariate

    params = _collect_params(args)
    tol = _resolved_tol(args)
    report = classify_covariate(build_joint(params), tol)
    rows = _hypothesis_rows(params, tol)
    payload = {
        "report": report.to_dict(),
        "hypotheses": {row["id"]: row["numeric"] for row in rows},
    }
    text = report.render_text() + "\n\n" + _render_hypothesis_rows(rows)
    _emit(args, payload, text)
    return 0


def _run_hypotheses(args) -> int:
    params = _collect_params(args, required=False)
    tol = _resolved_tol(args)
    rows = _hypothesis_rows(params, tol)
    _emit(args, {"hypotheses": rows}, _render_hypothesis_rows(rows))
    return 0


def _run_verify(args) -> int:
    from .theorems import clause_lookup, verify_clause

    try:
        clause = clause_lookup(args.theorem, args.clause)
    except ParameterError as exc:
        raise _UsageError(str(exc)) from None
    _check_exact_tol(args)
    report = verify_clause(
        clause,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
        exact=args.exact,
    )
    text = _render_columns([
        ("theorem", clause.theorem),
        ("clause", clause.clause),
        ("model", str(clause.model)),
        ("conditions", ", ".join(sorted(h.value for h in clause.conditions))),
        ("conclusion", clause.conclusion.value),
        ("samples", str(report.samples)),
        ("seed", str(report.seed)),
        ("max_violation", _num_to_text(report.max_violation)),
        ("failures", str(report.failures)),
        ("result", "PASS" if report.passed else "FAIL"),
    ])
    _emit(args, report.to_dict(), text)
    return 0 if report.passed else 1


# each verb's help line, handler and arguments, in the order the help lists them
_VERBS = {
    "analyze": ("classify the covariate of a stratified count table", _run_analyze, _ANALYZE_ARGUMENTS),
    "classify": ("classify the covariate of a parameterized model", _run_classify, _model_arguments(True)),
    "verify": ("campaign-check one catalog clause", _run_verify, _VERIFY_ARGUMENTS),
    "hypotheses": ("list the hypotheses, or evaluate them on a model", _run_hypotheses, _model_arguments(False)),
}


def build_parser() -> argparse.ArgumentParser:
    """The program's argparse parser, which parses what ``_screen``
    declines: it prints help and usage errors."""
    return _parsers()[0]


def _parsers():
    """The program's argparse parser and its verb parsers by name.  Importing
    cli does not load argparse; only a request ``_screen`` declines does."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="confound-kit",
        description="Confounding analysis for three binary-variable causal structures.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, arguments) in _VERBS.items():
        verb = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            verb.add_argument(flag, **keywords)
        verb.set_defaults(func=run)
    return parser, sub.choices


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _screen(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        # the verb's own parser, so that the error shows its usage line
        _parsers()[1][args.command].error(str(exc))
    except ConfoundKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (``| head``): point it at devnull so that
        # the interpreter's own flush at exit cannot fail again, and exit 1
        # quietly, as the Python docs' note on SIGPIPE does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def console_main() -> int:
    """The program entry: ``main()`` on the command line's arguments, then
    ``gc.freeze()``, even when argparse exits for ``--help``, ``--version``
    or a usage error.

    Freezing moves every object the request left to the collector's
    permanent generation, which the interpreter's final collections skip;
    the process frees them at exit anyway.  ``atexit`` handlers, the flush
    of stdout and stderr and module teardown still run.  ``main(argv)``
    leaves the collector alone, for tests and library callers.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console_main())

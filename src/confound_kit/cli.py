"""Command-line interface.

Verbs: analyze a stratified count table, classify a parameterized model,
verify a catalog clause by campaign, and list or evaluate the hypotheses.
All verbs take --format text|json; JSON output is exactly the module
serializers' dictionaries, so identical invocations print identical bytes.
Exit codes: 0 success (for verify, a campaign with zero failures), 1 domain
errors, a failed campaign or a stdout closed by its reader, 2 usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from .errors import ConfoundKitError, DegenerateEventError, ParameterError
from .joint import DEFAULT_FLOAT_TOL, _num_to_text, _render_columns, build_joint, params_type

# each parameter class field once, in model then field order
_ALL_PARAM_FLAGS = tuple(dict.fromkeys(f for m in (1, 2, 3) for f in params_type(m)._fields))


class _VerbParser(argparse.ArgumentParser):
    """A verb's parser, which adds its arguments the first time it parses
    or formats its usage or help, so a request builds only its own verb's.

    The verb's arguments come from ``add_arguments(parser)``.
    """

    def __init__(self, *args, add_arguments, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def _complete(self) -> None:
        add, self._add_arguments = self._add_arguments, None
        if add is not None:
            add(self)

    def parse_known_args(self, args=None, namespace=None):
        self._complete()
        return super().parse_known_args(args, namespace)

    def format_usage(self) -> str:
        self._complete()
        return super().format_usage()

    def format_help(self) -> str:
        self._complete()
        return super().format_help()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confound-kit",
        description="Confounding analysis for three binary-variable causal structures.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_VerbParser)
    for name, help_text, add_arguments, run in (
        ("analyze", "classify the covariate of a stratified count table",
         _analyze_arguments, _run_analyze),
        ("classify", "classify the covariate of a parameterized model",
         _classify_arguments, _run_classify),
        ("verify", "campaign-check one catalog clause", _verify_arguments, _run_verify),
        ("hypotheses", "list the hypotheses, or evaluate them on a model",
         _hypotheses_arguments, _run_hypotheses),
    ):
        p = sub.add_parser(name, help=help_text, add_arguments=add_arguments)
        p.set_defaults(func=run, parser=p)
    return parser


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("table", help="CSV file with header type,exposure,stratum,count")
    p.add_argument(
        "--coarsen",
        metavar="SPEC",
        help="fold strata into binary groups first, e.g. '0=1,2,3;1=4'",
    )
    _add_format(p)


def _classify_arguments(p: argparse.ArgumentParser) -> None:
    _add_model_params(p)
    _add_format(p)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    from .theorems import _MIN_CHUNK

    p.add_argument("--theorem", required=True, metavar="T", help="T1..T5")
    p.add_argument("--clause", required=True, metavar="C", help="a..e")
    p.add_argument("--samples", type=_count, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_tolerance, default=None, help="default 1e-10 (0 when --exact)")
    p.add_argument("--exact", action="store_true", help="rational arithmetic campaign")
    p.add_argument(
        "--threads",
        type=_count,
        default=None,
        help="upper bound on float campaign threads (default: every usable CPU); "
        f"a campaign splits only into chunks of at least {_MIN_CHUNK:,} samples; "
        "exact campaigns run on the calling thread and ignore it",
    )
    _add_format(p)


def _hypotheses_arguments(p: argparse.ArgumentParser) -> None:
    _add_model_params(p, params_required=False)
    _add_format(p)


def _tolerance(text: str) -> float:
    """--tol parser: a finite float >= 0, so any other tolerance is a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"tolerance must be finite, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"tolerance must be nonnegative, got {text!r}")
    return value


def _count(text: str) -> int:
    """--samples/--threads parser: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_model_params(p: argparse.ArgumentParser, params_required: bool = True) -> None:
    p.add_argument("--model", type=int, choices=(1, 2, 3), required=params_required)
    for name in _ALL_PARAM_FLAGS:
        p.add_argument(f"--{name}", metavar="P", default=None)
    p.add_argument(
        "--tol", type=_tolerance, default=None, help="default 1e-9 (0 when --exact)"
    )
    p.add_argument("--exact", action="store_true", help="parse parameters as exact rationals")


def _collect_params(parser, args, required: bool = True):
    given = {
        name: getattr(args, name)
        for name in _ALL_PARAM_FLAGS
        if getattr(args, name) is not None
    }
    if not given and not required and args.model is None:
        return None
    if args.model is None:
        parser.error("parameter flags need --model to be interpreted")
    needed = params_type(args.model)._fields
    missing = [n for n in needed if n not in given]
    extra = sorted(set(given) - set(needed))
    if missing:
        parser.error(
            f"model {args.model} needs " + " ".join(f"--{n}" for n in missing)
        )
    if extra:
        parser.error(
            f"model {args.model} does not take " + " ".join(f"--{n}" for n in extra)
        )
    values = {}
    for name in needed:
        try:
            value = Fraction(given[name])
            values[name] = value if args.exact else float(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            parser.error(f"--{name} {given[name]!r} is not a number")
    try:
        return params_type(args.model)(**values)
    except ConfoundKitError as exc:
        parser.error(str(exc))


def _check_exact_tol(parser, args) -> None:
    if args.exact and args.tol not in (None, 0):
        parser.error(f"--exact requires --tol 0, got {args.tol}")


def _resolved_tol(parser, args) -> object:
    _check_exact_tol(parser, args)
    if args.exact:
        return 0
    if args.tol is None:
        return DEFAULT_FLOAT_TOL
    return args.tol


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        import json

        print(json.dumps(payload))
    else:
        print(text)


def _run_analyze(parser, args) -> int:
    from .tables import CoarseningMap, analyze_counts, coarsen, load_counts

    counts = load_counts(args.table)
    if args.coarsen:
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


def _run_classify(parser, args) -> int:
    from .measures import classify_covariate

    params = _collect_params(parser, args)
    tol = _resolved_tol(parser, args)
    report = classify_covariate(build_joint(params), tol)
    rows = _hypothesis_rows(params, tol)
    payload = {
        "report": report.to_dict(),
        "hypotheses": {row["id"]: row["numeric"] for row in rows},
    }
    text = report.render_text() + "\n\n" + _render_hypothesis_rows(rows)
    _emit(args, payload, text)
    return 0


def _run_hypotheses(parser, args) -> int:
    params = _collect_params(parser, args, required=False)
    tol = _resolved_tol(parser, args)
    rows = _hypothesis_rows(params, tol)
    _emit(args, {"hypotheses": rows}, _render_hypothesis_rows(rows))
    return 0


def _run_verify(parser, args) -> int:
    from .theorems import clause_lookup, verify_clause

    try:
        clause = clause_lookup(args.theorem, args.clause)
    except ParameterError as exc:
        parser.error(str(exc))
    _check_exact_tol(parser, args)
    report = verify_clause(
        clause,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
        exact=args.exact,
        threads=args.threads,
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the verb's own parser, so that its usage errors show its usage line
        code = args.func(args.parser, args)
        sys.stdout.flush()
        return code
    except ConfoundKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (``| head``): point it at devnull so that
        # the interpreter's own flush at exit cannot fail again, and exit 1
        # quietly, as the Python docs' note on SIGPIPE does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

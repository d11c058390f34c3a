"""The benchmark's workloads and correctness gate; runs inside the built tree.

run.py starts this file in a fresh interpreter whose PYTHONPATH holds only
the built package, passes one JSON config as argv[1], and reads one JSON
result line from stdout.  Load is a closed loop with one client: the next
operation starts when the previous one has returned.  Each operation is
timed on its own, and its correctness check runs after the clock stops, so
rates are taken over busy time (the sum of operation times).

Each call into the package is wrapped in ``self.span(name)``.  Untraced,
that is a no-op; layers.py traces the same code by giving the workload a
tracer's span instead.

Inputs come from ``random.Random(seed)``; the package only ever sees the
generated clauses, campaign seeds, parameters and CLI arguments.
"""

import contextlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import NamedTuple

from confound_kit import (
    CLAUSES,
    CoarseningMap,
    Conclusion,
    Hypothesis,
    TheoremClause,
    analyze_counts,
    build_joint,
    check_lemma1,
    classify_covariate,
    clause_lookup,
    closed_form_summary,
    coarsen,
    fixture_path,
    holds_algebraic,
    holds_numeric,
    load_counts,
    model_number,
    params_type,
    summary_from_joint,
    verify_clause,
)
from confound_kit import kernel

from calibrate import ReferenceClock
from confound_kit.errors import ConfoundKitError, DegenerateEventError
from confound_kit.theorems import _campaign_codes

NPROC = len(os.sched_getaffinity(0))
MIN_OPS = 100
CAMPAIGN_TOL = 1e-10  # verify_clause's float default
VERDICT_TOL = 1e-9  # the classify verb's float default
SUMMARY_TOL = 1e-12  # closed form against the joint route, float mode
REDRAW_BUDGET = 1000
MODEL_FIELDS = {
    1: ("t", "a0", "a1", "b0", "b1", "u0", "u1"),
    2: ("a", "c0", "c1", "b0", "b1", "u0", "u1"),
    3: ("a", "t", "b0", "b1", "u0", "u1"),
}
# Model 1 with no conditions does not imply irrelevance: the gate must fail it.
FALSE_CLAUSE = TheoremClause("X", "false", 1, frozenset(), Conclusion.IRRELEVANT_FACTOR)


class Item(NamedTuple):
    label: str
    samples: int  # parameter points the operation checks
    data: tuple


class Run(NamedTuple):
    latencies: list  # wall seconds per operation
    scaled: list  # the same, scaled to the reference speed (calibrate.py)
    samples: int
    failed: int
    problems: list


def measure(workload, seconds: float, min_ops: int, clock) -> Run:
    """Closed loop: run operations until ``seconds`` have passed, at least
    ``min_ops`` are done and the last cycle of the workload's input mix is
    whole.  Only ``workload.run`` is inside the clock."""
    latencies, stamps, samples, failed, problems = [], [], 0, 0, []
    deadline = time.perf_counter() + seconds
    for done, item in enumerate(workload.items(), 1):
        clock.tick()
        start = time.perf_counter()
        try:
            with workload.span(f"{workload.name}.operation"):
                out = workload.run(item)
        except ConfoundKitError as exc:
            out = exc
        end = time.perf_counter()
        latencies.append(end - start)
        stamps.append(start)
        samples += item.samples
        bad = workload.gate(item, out)
        if bad:
            failed += 1
            problems.extend(f"{workload.name}: {p}" for p in bad)
        if end >= deadline and done >= min_ops and done % workload.cycle == 0:
            clock.tick()
            return Run(latencies, clock.scale(stamps, latencies), samples, failed, problems)


class Workload:
    """What the workloads share.  ``cycle`` is the number of operations that
    cover the whole input mix once; runs end on a whole cycle, so every run
    measures the same mix."""

    cycle = 1
    spawns = False  # operations start interpreters (see calibrate.py)

    def span(self, name):
        return contextlib.nullcontext()

    def gate(self, item, out):
        """Problems with one operation's output, found after its clock stopped."""
        if isinstance(out, ConfoundKitError):
            return [f"{item.label}: {type(out).__name__}: {out}"]
        return self.check(item, out)

    def finish(self):
        """(checks made, problems, notes) of the checks made once per run."""
        return 0, [], []


def clause_name(clause):
    return f"{clause.theorem}({clause.clause})"


def other_backends():
    """The importable kernel backends other than the selected one."""
    return {name: impl for name, impl in kernel.available_backends().items() if name != kernel.BACKEND}


def parity_not_checked():
    return f"kernel parity NOT CHECKED: only the {kernel.BACKEND} backend is importable"


def campaign_args(clause, samples, seed):
    """kernel.run_campaign arguments of a one-chunk float campaign."""
    return _campaign_codes(clause) + (0, samples, seed, CAMPAIGN_TOL, REDRAW_BUDGET)


class CatalogFloat(Workload):
    """verify_clause in float mode over the 19-clause catalog, nproc threads
    (on the one CPU the run is pinned to; see calibrate.py).

    One operation is one campaign of 10,000 samples, the campaign size the
    repository documents; at that size a kernel ~150x faster than the pure
    one still spends most of an operation in the kernel, not in per-call
    overhead.  The clauses are taken in catalog order, each campaign with
    its own seed."""

    name = "catalog-float"
    mode = "float"
    options = {"threads": NPROC}

    def __init__(self, seed, tiny=False, false_clause=False):
        self.seed = seed
        self.samples = 50 if tiny else 10_000  # per campaign
        self.clauses = CLAUSES + ((FALSE_CLAUSE,) if false_clause else ())
        self.per_op = 1  # clauses per operation
        self.cycle = len(self.clauses)
        self.first_sweep = []  # (clause, seed, report) of the first cycle

    def items(self):
        rng = random.Random(self.seed)
        for sweep in itertools.count():
            pairs = [(clause, rng.getrandbits(32)) for clause in self.clauses]
            for i in range(0, len(pairs), self.per_op):
                group = tuple(pairs[i:i + self.per_op])
                label = f"sweep {sweep}" + (f" {clause_name(group[0][0])}" if self.per_op == 1 else "")
                yield Item(label, self.samples * len(group), group)

    def run(self, item):
        reports = []
        for clause, seed in item.data:
            with self.span(f"theorems.verify_clause.{self.mode}"):
                reports.append(verify_clause(clause, self.samples, seed, **self.options))
        return reports

    def check(self, item, reports):
        if len(self.first_sweep) < len(self.clauses):
            self.first_sweep += [(clause, seed, r) for (clause, seed), r in zip(item.data, reports)]
        return [
            f"{item.label} {clause_name(r.clause)}: {r.failures} failures, max_violation {r.max_violation!r}"
            for r in reports
            if r.failures or not r.max_violation <= CAMPAIGN_TOL
        ]

    def finish(self):
        """On the first cycle, after the clock: threads=1 against the
        threads=nproc reports measured, and the selected kernel backend
        against every other importable one."""
        problems, notes = [], []
        for clause, seed, report in self.first_sweep:
            one = verify_clause(clause, self.samples, seed, threads=1).to_dict()
            if one != report.to_dict():
                problems.append(f"{clause_name(clause)}: threads=1 gives {one}, threads={NPROC} gives {report.to_dict()}")
        others = other_backends()
        if not others:
            notes.append(parity_not_checked())
            return len(self.first_sweep), problems, notes
        for clause, seed, _ in self.first_sweep:
            args = campaign_args(clause, self.samples, seed)
            selected = kernel.run_campaign(*args)
            for name, impl in others.items():
                other = impl.run_campaign(*args)
                if other != selected:
                    problems.append(f"{clause_name(clause)}: backend {name} gives {other}, {kernel.BACKEND} gives {selected}")
        notes.append(f"kernel parity checked bit for bit: {kernel.BACKEND} against {', '.join(others)}")
        return 2 * len(self.first_sweep), problems, notes


class CatalogExact(CatalogFloat):
    """The same catalog in exact rational arithmetic; the kernel never runs.

    One operation is a sweep of the whole catalog, one campaign of 4 samples
    per clause.  Single exact campaigns are multimodal (the clauses cost
    345-642 us a sample), so the percentiles of single campaigns fall on the
    gaps between clauses and jump from run to run; sweep times are
    unimodal."""

    name = "catalog-exact"
    mode = "exact"
    options = {"exact": True}

    def __init__(self, seed, tiny=False, false_clause=False):
        super().__init__(seed, tiny, false_clause)
        self.samples = 1 if tiny else 4
        self.per_op = len(self.clauses)
        self.cycle = 1

    def check(self, item, reports):
        return [
            f"{item.label} {clause_name(r.clause)}: exact campaign gives {r.failures} failures, max_violation {r.max_violation}"
            for r in reports
            if r.failures or r.max_violation != 0
        ]

    def finish(self):
        return 0, [], []


def _grid_point(rng, model):
    """Exact parameters of a model on the thousandths grid, inside (0, 1)."""
    fields = MODEL_FIELDS[model]
    return params_type(model)(**{name: Fraction(rng.randint(10, 990), 1000) for name in fields})


def _as_float(params):
    fields = MODEL_FIELDS[model_number(params)]
    return type(params)(**{name: float(getattr(params, name)) for name in fields})


def _maybe(check, subject, hypothesis, tol):
    try:
        return check(subject, hypothesis, tol)
    except DegenerateEventError:
        return None


def _classify_payload(params, tol):
    joint = build_joint(params)
    return {
        "report": classify_covariate(joint, tol).to_dict(),
        "hypotheses": {h.value: _maybe(holds_numeric, joint, h, tol) for h in Hypothesis},
    }


def _hypotheses_payload(params, tol):
    joint = build_joint(params)
    rows = [
        {
            "id": h.value,
            "statement": h.statement,
            "algebraic": _maybe(holds_algebraic, params, h, tol),
            "numeric": _maybe(holds_numeric, joint, h, tol),
        }
        for h in Hypothesis
    ]
    return {"hypotheses": rows}


# Table 1 and Table 2 of the paper, as the library must reproduce them.
TABLE1_PINNED = {"hypothetical": "13/25", "observed": "29/50", "standardized": "119/200", "verdict": "neither"}
TABLE2_PINNED = {"verdict": "confounder"}


class CliMix(Workload):
    """One fresh ``python -m confound_kit.cli`` process per request, verbs mixed.

    Each request's expected stdout is json.dumps of the in-process library
    result for the same inputs, computed before the request is timed."""

    name = "cli-mix"
    spawns = True
    kinds = ("classify", "classify-exact", "hypotheses", "analyze-table1", "analyze-table2", "verify", "verify-exact")

    def __init__(self, seed, tiny=False, false_clause=False):
        self.seed = seed
        self.tiny = tiny
        self.verify_samples = 20 if tiny else 100
        self.exact_samples = 2 if tiny else 3
        self.cycle = len(self.kinds)

    def items(self):
        rng = random.Random(self.seed)
        while True:
            kinds = list(self.kinds)
            rng.shuffle(kinds)
            for kind in kinds:
                yield self._request(rng, kind)

    def _request(self, rng, kind):
        pinned = {}
        samples = 1
        if kind.startswith(("classify", "hypotheses")):
            exact = kind.endswith("exact")
            model = rng.choice((1, 2, 3))
            params = _grid_point(rng, model)
            argv = [kind.split("-")[0], "--model", str(model)]
            for name in MODEL_FIELDS[model]:
                argv += [f"--{name}", str(getattr(params, name))]
            if exact:
                argv.append("--exact")
            else:
                params = _as_float(params)
            tol = 0 if exact else VERDICT_TOL
            build = _hypotheses_payload if kind == "hypotheses" else _classify_payload
            payload = build(params, tol)
        elif kind == "analyze-table1":
            path, spec = str(fixture_path("table1.csv")), "0=1,2,3;1=4"
            argv = ["analyze", path, "--coarsen", spec]
            payload = analyze_counts(coarsen(load_counts(path), CoarseningMap.from_spec(spec))).to_dict()
            pinned = TABLE1_PINNED
        elif kind == "analyze-table2":
            path = str(fixture_path("table2_coarse.csv"))
            argv = ["analyze", path]
            payload = analyze_counts(load_counts(path)).to_dict()
            pinned = TABLE2_PINNED
        else:
            exact = kind == "verify-exact"
            clause = rng.choice(CLAUSES)
            samples = self.exact_samples if exact else self.verify_samples
            seed = rng.getrandbits(32)
            argv = ["verify", "--theorem", clause.theorem, "--clause", clause.clause,
                    "--samples", str(samples), "--seed", str(seed)]
            if exact:
                argv.append("--exact")
            payload = verify_clause(clause_lookup(clause.theorem, clause.clause), samples, seed,
                                    tol=0 if exact else None, exact=exact).to_dict()
        expected = (json.dumps(payload) + "\n").encode()
        return Item(kind, samples, (argv + ["--format", "json"], expected, pinned))

    def run(self, item):
        argv = item.data[0]
        with self.span(f"cli.request.{item.label}"):
            return subprocess.run([sys.executable, "-m", "confound_kit.cli", *argv], capture_output=True, timeout=120)

    def check(self, item, proc):
        argv, expected, pinned = item.data
        problems = []
        if proc.returncode != 0:
            problems.append(f"{item.label}: exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}")
        if proc.stdout != expected:
            problems.append(f"{item.label}: stdout {proc.stdout[:200]!r} differs from the library's {expected[:200]!r}")
        payload = json.loads(expected)
        missed = {k: v for k, v in pinned.items() if payload.get(k) != v}
        if missed:
            problems.append(f"{item.label}: expected {missed}, library gives {payload}")
        return problems


class ClassifyStream(Workload):
    """In-process verdicts on a seeded stream of parameter points.

    One operation takes one point of each model on the thousandths grid and
    runs the full verdict path on each twice, in float and in exact
    arithmetic: six classifications.  Single classifications are multimodal
    (by model and arithmetic), so their median falls between modes and jumps
    from run to run; the six together are unimodal."""

    name = "classify-stream"

    def __init__(self, seed, tiny=False, false_clause=False):
        self.seed = seed

    def items(self):
        rng = random.Random(self.seed)
        for index in itertools.count():
            cases = []
            for model in (1, 2, 3):
                exact = _grid_point(rng, model)
                cases += [(_as_float(exact), VERDICT_TOL), (exact, 0)]
            yield Item(f"points {index}", len(cases), tuple(cases))

    def run(self, item):
        return [self.verdicts(params, tol) for params, tol in item.data]

    def verdicts(self, params, tol):
        mode = "float" if tol else "exact"
        with self.span(f"joint.build_joint.{mode}"):
            joint = build_joint(params)
        with self.span(f"measures.classify_covariate.{mode}"):
            report = classify_covariate(joint, tol)
        with self.span(f"measures.check_lemma1.{mode}"):
            lemma = check_lemma1(joint, tol)
        with self.span(f"hypotheses.holds_numeric.{mode}"):
            numeric = [holds_numeric(joint, h, tol) for h in Hypothesis]
        with self.span(f"hypotheses.holds_algebraic.{mode}"):
            algebraic = [holds_algebraic(params, h, tol) for h in Hypothesis]
        with self.span(f"measures.closed_form_summary.{mode}"):
            closed = closed_form_summary(params)
        return joint, report, lemma, numeric, algebraic, closed

    def check(self, item, outs):
        problems = []
        for (params, tol), (joint, _, lemma, _, _, closed) in zip(item.data, outs):
            mode = f"model {model_number(params)}, {'float' if tol else 'exact'}"
            if not lemma:
                problems.append(f"{item.label} ({mode}): check_lemma1 fails")
            brute = summary_from_joint(joint)
            gaps = [abs(a - b) for a, b in zip(closed, brute)]
            if any(gap > (SUMMARY_TOL if tol else 0) for gap in gaps):
                problems.append(f"{item.label} ({mode}): closed_form_summary {closed} != summary_from_joint {brute}")
        return problems


WORKLOADS = {w.name: w for w in (CatalogFloat, CatalogExact, CliMix, ClassifyStream)}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def timing_metrics(run, durations) -> dict:
    busy = sum(durations)
    return {
        "samples_per_s": run.samples / busy,
        "ops_per_s": len(durations) / busy,
        "op_ms_p50": statistics.median(durations) * 1e3,
        "op_ms_p90": statistics.quantiles(durations, n=10)[-1] * 1e3,
    }


def end_to_end(config) -> dict:
    cls = WORKLOADS[config["workload"]]
    workload = cls(config["seed"], config["tiny"], config["false_clause"])
    with ReferenceClock(workload.spawns) as clock:
        run = measure(workload, config["seconds"], 5 if config["tiny"] else MIN_OPS, clock)
    checks, problems, notes = workload.finish()
    metrics = timing_metrics(run, run.scaled)
    metrics["peak_rss_mb"] = peak_rss_mb(children=cls is CliMix)
    raw = timing_metrics(run, run.latencies)
    notes.append(f"{len(run.latencies)} operations, {run.samples} samples, {sum(run.latencies):.3f} s busy")
    notes.append("unscaled wall-clock values: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    return {
        "attempted": len(run.latencies) + checks,
        "failed": run.failed + len(problems),
        "problems": run.problems + problems,
        "notes": notes,
        "metrics": metrics,
        "reference_ms": clock.median_reference_ms(),
    }


def main() -> int:
    config = json.loads(sys.argv[1])
    if config["trace"]:
        import layers

        result = layers.traced(config)
    else:
        result = end_to_end(config)
    result["backend"] = kernel.BACKEND
    result["available_backends"] = sorted(kernel.available_backends())
    result["threads"] = NPROC
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

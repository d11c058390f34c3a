"""Traced run: per-layer metrics from spans around calls into each module.

Spans are recorded around calls into the package's public functions; the
package itself is not instrumented.  The workloads' own code (workloads.py)
opens the spans, and a traced workload differs from an untraced one only in
that its spans are recorded and that its operations are replayed.  A traced run
measures every workload, because the per-layer metrics cover every layer:
each workload runs once untraced and once traced on the same seeded inputs,
a share of ``--seconds`` each, and the ratio of their median operation
times (scaled as in calibrate.py) is that workload's tracing overhead.
Span times are not scaled.  Campaign internals are measured
by replaying the same seeded inputs through the layer functions after each
traced operation, outside its clock.  The spans are written to
.bench_build/trace/<workload>.seed<seed>.json.
"""

import contextlib
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from confound_kit import (
    Conclusion,
    CoarseningMap,
    Hypothesis,
    SplitMix64,
    analyze_counts,
    build_joint,
    coarsen,
    impose,
    kernel,
    load_counts,
    random_params,
    sample_stream,
    summary_from_joint,
    verify_clause,
)
from confound_kit import cli
from confound_kit.errors import ConstraintError

import workloads as wl
from calibrate import ReferenceClock

CLI_PROBES = 15
MIN_OPS = 10  # per workload and mode in a traced run


class Tracer:
    """Spans (name, start, end, parent span, operation) and counts, in memory.
    A span named ``<workload>.operation`` (measure() opens one around each
    operation) starts a new operation; the replay after it belongs to it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.operation = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        if name.endswith(".operation"):
            self.operation += 1
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.operation)

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def total(self, *names):
        return sum(end - start for n, start, end, _, _ in self.spans if n in names)

    def p50(self, name, scale):
        """(median duration of the named spans times ``scale``, span count)."""
        durations = self.durations(name)
        return statistics.median(durations) * scale, len(durations)

    def dump(self, path: Path):
        """Write the spans and, per name, count, median and median self time."""
        child_time = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        by_name = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            by_name.setdefault(name, []).append((end - start, end - start - child_time[index]))
        summary = {
            name: {"count": len(rows), "p50_s": statistics.median(r[0] for r in rows),
                   "self_p50_s": statistics.median(r[1] for r in rows)}
            for name, rows in by_name.items()
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"summary": summary, "counts": self.counts,
                                    "spans": self.spans}))


class CountingStream(SplitMix64):
    """Continues a SplitMix64 stream and counts the draws taken from it."""

    def __init__(self, stream):
        super().__init__(0)
        self._state = stream._state
        self.draws = 0

    def next_u64(self):
        self.draws += 1
        return super().next_u64()


class Traced:
    """Records the workload's spans, and replays each operation through the
    layers after its clock stopped, whether or not it raised."""

    def __init__(self, *args):
        super().__init__(*args)
        self.tracer = Tracer()
        self.span = self.tracer.span
        self.notes = []

    def gate(self, item, out):
        return super().gate(item, out) + self.replay(item, out)

    def replay(self, item, out):
        return []


class TracedCatalogFloat(Traced, wl.CatalogFloat):
    def replay(self, item, out):
        """Replay each campaign on one thread: through verify_clause, through
        the selected kernel directly, and through every other backend."""
        problems = []
        t = self.tracer
        others = wl.other_backends()
        reports = out if isinstance(out, list) else [None] * len(item.data)
        for (clause, seed), report in zip(item.data, reports):
            with t.span("theorems.verify_clause.1thread"):
                try:
                    single = verify_clause(clause, self.samples, seed, threads=1).to_dict()
                except ConstraintError as exc:
                    single = exc
            if report is not None and single != report.to_dict():
                problems.append(f"{wl.clause_name(clause)}: threads=1 gives {single}, threads={wl.NPROC} {report.to_dict()}")
            args = wl.campaign_args(clause, self.samples, seed)
            group = "h1" if args[2] == kernel.EQ_H1 else "free"  # the catalog has no H5 clause
            with t.span(f"kernel.run_campaign.{group}"):
                result = kernel.run_campaign(*args)
            t.counts[f"kernel.samples.{group}"] += self.samples
            t.counts["kernel.samples"] += self.samples
            t.counts["kernel.exhausted"] += result[2]
            for name, impl in others.items():
                with t.span(f"kernel.backend.{name}"):
                    other = impl.run_campaign(*args)
                t.counts["kernel.parity_checks"] += 1
                if other != result:
                    t.counts["kernel.parity_mismatches"] += 1
                    problems.append(f"{wl.clause_name(clause)}: backend {name} gives {other}, {kernel.BACKEND} gives {result}")
        return problems

    def layer_metrics(self):
        t = self.tracer
        single = t.total("theorems.verify_clause.1thread")
        kernel_s = t.total("kernel.run_campaign.free", "kernel.run_campaign.h1")
        ns = {g: t.total(f"kernel.run_campaign.{g}") / t.counts[f"kernel.samples.{g}"] * 1e9 for g in ("free", "h1")}
        if kernel.BACKEND == "pure":
            speedup = 1.0
            self.notes.append("kernel.speedup_vs_pure is 1 by definition: the selected backend is the pure one")
        else:
            speedup = t.total("kernel.backend.pure") / kernel_s
        if not t.counts["kernel.parity_checks"]:
            self.notes.append(wl.parity_not_checked())
        return {
            "theorems.float_overhead_frac": ((single - kernel_s) / single, len(t.durations("theorems.verify_clause.float"))),
            "kernel.ns_per_sample.free": (ns["free"], t.counts["kernel.samples.free"]),
            "kernel.ns_per_sample.h1": (ns["h1"], t.counts["kernel.samples.h1"]),
            "kernel.speedup_vs_pure": (speedup, None),
            "kernel.thread_speedup": (self.thread_speedup(), None),
            "kernel.samples": (t.counts["kernel.samples"], None),
            "kernel.exhausted": (t.counts["kernel.exhausted"], t.counts["kernel.samples"]),
            "kernel.parity_mismatches": (t.counts["kernel.parity_mismatches"], t.counts["kernel.parity_checks"]),
        }

    def thread_speedup(self):
        """One-thread time over nproc-thread time for one sweep, on every CPU
        (the traced window itself runs pinned to one)."""
        sweep = [pair for item in itertools.islice(self.items(), self.cycle) for pair in item.data]
        seconds = {}
        for threads in (1, wl.NPROC):
            start = time.perf_counter()
            for clause, seed in sweep:
                verify_clause(clause, self.samples, seed, threads=threads)
            seconds[threads] = time.perf_counter() - start
        return seconds[1] / seconds[wl.NPROC]


class TracedCatalogExact(Traced, wl.CatalogExact):
    sweeps = 0  # operations replayed so far

    def replay(self, item, out):
        """Replay each sample through the layers the exact campaign calls.

        Draws are counted over the first sweep only, so the counts repeat
        exactly for a seed whatever the run length."""
        problems = []
        self.sweeps += 1
        reports = out if isinstance(out, list) else [None] * len(item.data)
        for (clause, seed), report in zip(item.data, reports):
            replayed = self.replay_campaign(clause, seed, count_draws=self.sweeps == 1)
            if report is not None and replayed != report.max_violation:
                problems.append(f"{wl.clause_name(clause)}: replay gives max_violation {replayed}, campaign {report.max_violation}")
        return problems

    def replay_campaign(self, clause, seed, count_draws):
        t = self.tracer
        h1 = Hypothesis.H1 in clause.conditions
        group = "free" if not h1 else "h1" if clause.model in (1, 2) else None
        max_violation = 0
        for i in range(self.samples):
            stream = CountingStream(sample_stream(seed, i))
            with t.span("hypotheses.random_params.exact"):
                base = random_params(clause.model, stream, exact=True)
            per_draw = stream.draws
            with t.span("hypotheses.impose.exact"):
                params = impose(base, clause.conditions, stream, budget=wl.REDRAW_BUDGET)
            with t.span("joint.build_joint.exact"):
                joint = build_joint(params)
            with t.span("measures.summary_from_joint.exact"):
                summary = summary_from_joint(joint)
            if clause.conclusion is Conclusion.NO_CONFOUNDING:
                violation = abs(summary.bias)
            else:
                violation = abs(summary.standardized - summary.observed)
            max_violation = max(max_violation, violation)
            if count_draws and group:
                t.counts[f"draws.{group}"] += stream.draws
                t.counts[f"samples.{group}"] += 1
                t.counts[f"attempts.{group}"] += stream.draws // per_draw
        return max_violation

    def layer_metrics(self):
        t = self.tracer
        per_sample = [d / self.samples * 1e6 for d in t.durations("theorems.verify_clause.exact")]
        return {
            "theorems.exact_sample_us": (statistics.median(per_sample), len(per_sample)),
            "hypotheses.draws_per_sample.free": (t.counts["draws.free"] / t.counts["samples.free"], t.counts["samples.free"]),
            "hypotheses.draws_per_sample.h1": (t.counts["draws.h1"] / t.counts["samples.h1"], t.counts["samples.h1"]),
            "hypotheses.impose_acceptance.h1": (t.counts["samples.h1"] / t.counts["attempts.h1"], t.counts["attempts.h1"]),
            "hypotheses.random_params_us.exact": t.p50("hypotheses.random_params.exact", 1e6),
            "hypotheses.impose_us.exact": t.p50("hypotheses.impose.exact", 1e6),
            "measures.summary_from_joint_us.exact": t.p50("measures.summary_from_joint.exact", 1e6),
        }


class TracedCliMix(Traced, wl.CliMix):
    def replay(self, item, out):
        """Replay the request in process through cli.main, and the table
        requests through the tables functions."""
        problems = []
        argv, expected, _ = item.data
        verb = argv[0]
        t = self.tracer
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), t.span(f"cli.main.{verb}"):
            cli.main(argv)
        if stdout.getvalue().encode() != expected:
            problems.append(f"{item.label}: in-process cli.main output differs from the library's")
        if verb == "analyze":
            with t.span("tables.load_counts"):
                counts = load_counts(argv[1])
            if "--coarsen" in argv:
                with t.span("tables.coarsen"):
                    counts = coarsen(counts, CoarseningMap.from_spec(argv[argv.index("--coarsen") + 1]))
            with t.span("tables.analyze_counts"):
                analyze_counts(counts)
        return problems

    def layer_metrics(self):
        t = self.tracer
        floor, imports = [], []
        for _ in range(2 if self.tiny else CLI_PROBES):
            for code, times in (("pass", floor), ("import confound_kit.cli", imports)):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], check=True)
                times.append(time.perf_counter() - start)
        floor_ms = statistics.median(floor) * 1e3
        metrics = {
            "cli.interpreter_ms": (floor_ms, len(floor)),
            "cli.import_ms": (statistics.median(imports) * 1e3 - floor_ms, len(imports)),
            "tables.load_counts_us": t.p50("tables.load_counts", 1e6),
            "tables.coarsen_us": t.p50("tables.coarsen", 1e6),
            "tables.analyze_counts_us": t.p50("tables.analyze_counts", 1e6),
        }
        for verb in ("classify", "analyze", "hypotheses", "verify"):
            metrics[f"cli.main_ms.{verb}"] = t.p50(f"cli.main.{verb}", 1e3)
        return metrics


class TracedClassifyStream(Traced, wl.ClassifyStream):
    def layer_metrics(self):
        metrics = {}
        for layer, function in (("joint", "build_joint"), ("measures", "classify_covariate"),
                                ("measures", "check_lemma1"), ("hypotheses", "holds_numeric"),
                                ("hypotheses", "holds_algebraic"), ("measures", "closed_form_summary")):
            for mode in ("float", "exact"):
                metrics[f"{layer}.{function}_us.{mode}"] = self.tracer.p50(f"{layer}.{function}.{mode}", 1e6)
        return metrics


TRACED = {
    wl.CatalogFloat: TracedCatalogFloat,
    wl.CatalogExact: TracedCatalogExact,
    wl.CliMix: TracedCliMix,
    wl.ClassifyStream: TracedClassifyStream,
}


def traced(config) -> dict:
    """Every workload untraced and traced, a share of the run each."""
    share = config["seconds"] / (2 * len(TRACED))
    args = (config["seed"], config["tiny"], config["false_clause"])
    metrics, counts, problems, notes = {}, {}, [], []
    attempted = failed = 0
    references = {}
    for plain_cls, traced_cls in TRACED.items():
        mask = os.sched_getaffinity(0)
        plain = plain_cls(*args)
        with ReferenceClock(plain.spawns) as clock:
            untraced = wl.measure(plain, share, MIN_OPS, clock)
        references[plain.name] = [clock.median_reference_ms()]
        workload = traced_cls(*args)
        with ReferenceClock(workload.spawns) as clock:
            run = wl.measure(workload, share, MIN_OPS, clock)
        references[plain.name].append(clock.median_reference_ms())
        os.sched_setaffinity(0, mask)
        for name, (value, count) in workload.layer_metrics().items():
            metrics[name] = value
            counts[name] = count
        notes += workload.notes
        overhead = f"trace.overhead_frac.{plain.name}"
        metrics[overhead] = statistics.median(run.scaled) / statistics.median(untraced.scaled) - 1
        counts[overhead] = len(run.latencies)
        attempted += len(untraced.latencies) + len(run.latencies)
        failed += untraced.failed + run.failed
        problems += untraced.problems + run.problems
        notes.append(f"{plain.name}: {len(untraced.latencies)} untraced and {len(run.latencies)} traced operations")
        workload.tracer.dump(Path(config["trace_dir"]) / f"{plain.name}.seed{config['seed']}.json")
    return {"attempted": attempted, "failed": failed, "problems": problems, "notes": notes,
            "metrics": metrics, "counts": counts, "reference_ms": references}

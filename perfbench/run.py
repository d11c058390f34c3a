"""Benchmark entry point for confound-kit.

    python3 perfbench/run.py --workload catalog-float --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It builds the package as setup.py does
(see builder.py), measures set-up time in fresh interpreters, then runs the
workload in one more fresh interpreter (workloads.py) and prints a summary
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, taken from a traced run of every
workload (layers.py).  The exit status is 0 only when every correctness
check passed; a run whose build fails prints no JSON line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import builder
import calibrate

HERE = Path(__file__).resolve().parent
WORKLOADS = ("catalog-float", "catalog-exact", "cli-mix", "classify-stream")
SETUP_PROBES = 15
# What a user runs before the first operation of each workload can start.
SETUP_CODE = {
    "catalog-float": "import confound_kit; confound_kit.clause_lookup('T1', 'a')",
    "catalog-exact": "import confound_kit; confound_kit.clause_lookup('T1', 'a')",
    "cli-mix": "import confound_kit.cli; confound_kit.cli.build_parser()",
    "classify-stream": "import confound_kit; confound_kit.params_type(1)",
}


def child_env(lib: str) -> dict:
    """The environment of every measured interpreter: only the built tree on
    the path, and no confound-kit settings inherited from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CONFOUND_KIT_")}
    env["PYTHONPATH"] = lib
    return env


def setup_seconds(workload: str, env: dict) -> float:
    """Median time from starting an interpreter to its first operation being
    ready, scaled by the spawn reference, and the median reference time in
    ms; the probes run pinned to one CPU."""
    code = SETUP_CODE[workload] + "; print('ready', flush=True)"
    mask = os.sched_getaffinity(0)
    stamps, times = [], []
    with calibrate.ReferenceClock(spawn=True) as clock:
        for _ in range(SETUP_PROBES):
            clock.tick()
            start = time.perf_counter()
            stamps.append(start)
            with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env) as proc:
                line = proc.stdout.readline()
                times.append(time.perf_counter() - start)
                proc.stdout.read()
            if line.strip() != b"ready" or proc.returncode != 0:
                raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
        clock.tick()
    os.sched_setaffinity(0, mask)
    return statistics.median(clock.scale(stamps, times)), clock.median_reference_ms()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small campaigns and few operations (self-test)")
    parser.add_argument("--false-clause", action="store_true",
                        help="add a clause that does not hold to the catalog cycle; the gate must fail it (self-test)")
    args = parser.parse_args()

    root = Path.cwd()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        facts = builder.build(root)
    except builder.BuildError as exc:
        print(f"perfbench: build failed: {exc}", file=sys.stderr)
        return 2
    env = child_env(facts["lib"])

    values = {}
    if not args.trace:
        values["setup_s"], facts["setup_reference_ms"] = setup_seconds(args.workload, env)
    config = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "false_clause": args.false_clause,
        "trace_dir": str(root / builder.BUILD_DIR / "trace"),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), json.dumps(config)],
            env=env, cwd=root, stdout=subprocess.PIPE, text=True, timeout=2 * args.seconds + 120,
        )
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: workload process did not end within {exc.timeout:g} s", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        print(f"perfbench: workload process exited {proc.returncode}", file=sys.stderr)
        return 2
    result = json.loads(proc.stdout.splitlines()[-1])
    values.update(result["metrics"])
    names = {m["name"] for m in declared}
    if set(values) != names:
        print(f"perfbench: measured {sorted(values)}, BENCHMARK.json declares {sorted(names)}", file=sys.stderr)
        return 2

    facts.update({k: result[k] for k in ("backend", "available_backends", "threads", "reference_ms")})
    print("facts " + json.dumps(facts, sort_keys=True))
    for note in result["notes"]:
        print(f"note: {note}")
    for problem in result["problems"][:50]:
        print(f"FAILED {problem}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':40} {failed_frac:.6g} ratio ({result['failed']} of {result['attempted']})")
    metrics = {}
    for m in declared:
        name, count = m["name"], result.get("counts", {}).get(m["name"])
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        print(f"{name:40} {values[name]:.6g} {m['unit']}" + (f" (n={count})" if count is not None else ""))
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

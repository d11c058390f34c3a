"""Self-test of the benchmark; run from the root of a checkout.

    python3 perfbench/selftest.py

Checks that a tiny run of every workload prints every end_to_end metric of
BENCHMARK.json by name with its unit and exits 0, that a tiny traced run
prints every per_layer metric, that runs which compare kernel backends say
so when there is only one to compare, and that a deliberately false clause (model 1,
no conditions, irrelevant_factor) fed through the gate of each catalog
workload gives failed_frac > 0 and a non-zero exit.  Exits 0 when all hold.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "7", "--seconds", "1", "--tiny", *args],
        capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, lines, result, proc.stderr


def metrics_problems(lines, result, declared):
    problems = []
    if result is None:
        return ["no result line"]
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{name} missing from the result or not in {unit}")
        if not any(line.split()[:1] == [name] and line.split()[2:3] == [unit] for line in lines):
            problems.append(f"{name} not printed with unit {unit}")
    if not any(line.startswith("failed_frac") for line in lines):
        problems.append("failed_frac not printed")
    return problems


def parity_problems(lines):
    """With one importable kernel backend, a run that checks parity must say
    that it was not checked."""
    facts = [json.loads(line[len("facts "):]) for line in lines if line.startswith("facts ")]
    if facts and len(facts[0]["available_backends"]) < 2 and not any("kernel parity NOT CHECKED" in line for line in lines):
        return ["one kernel backend, but no 'kernel parity NOT CHECKED' note"]
    return []


def main() -> int:
    failures = []
    runs = [(["--workload", w["name"]], SPEC["end_to_end"]) for w in SPEC["workloads"]]
    runs.append((["--workload", SPEC["workloads"][0]["name"], "--trace", "1"], SPEC["per_layer"]))
    for args, declared in runs:
        code, lines, result, stderr = bench(*args)
        problems = metrics_problems(lines, result, declared)
        if args[1] == "catalog-float":
            problems += parity_problems(lines)
        if code != 0:
            problems.append(f"exit {code}: {stderr.strip()[-500:]}")
        failures += [f"{' '.join(args)}: {p}" for p in problems]
        print(f"{'ok  ' if not problems else 'FAIL'} tiny run {' '.join(args)}")

    for workload in ("catalog-float", "catalog-exact"):
        code, lines, result, _ = bench("--workload", workload, "--false-clause")
        tripped = code != 0 and result is not None and result["failed"] > 0 and not result["correct"]
        frac = [line for line in lines if line.startswith("failed_frac")]
        tripped = tripped and bool(frac) and float(frac[0].split()[1]) > 0
        if not tripped:
            failures.append(f"{workload} --false-clause: the gate did not trip (exit {code}, result {result})")
        print(f"{'ok  ' if tripped else 'FAIL'} false clause rejected on {workload}: exit {code}, {frac[:1]}")

    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

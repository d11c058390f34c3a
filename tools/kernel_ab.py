"""In-process A/B of two builds of the compiled campaign kernel.

Loads two built ``_ckernel`` extension files side by side, each under its own
package name, pins the process to one CPU and runs every catalog clause's
float campaign (``run_campaign``), or with ``--exact`` its exact campaign
(``grid_tally``), on both in alternating rounds: A then B in even rounds, B
then A in odd ones, so a drift in CPU speed falls on both sides alike.  Each
side's time in a round is the fastest of REPEAT calls, and the two sides must
return the same result, bit for bit (the unreduced pair itself for
``grid_tally``), or the script stops with status 1.

Per clause it prints each side's median ns/sample, the median of the paired
ratios A/B (above 1 when B is faster) with its quartiles, and how many rounds
B won.  Build the two files with setup.py, for example from two checkouts:

    python3 setup.py build_ext --build-lib /tmp/a --build-temp /tmp/a/tmp
    python3 tools/kernel_ab.py /tmp/a/confound_kit/_ckernel*.so \\
        /tmp/b/confound_kit/_ckernel*.so --rounds 21 --count 10000 [--exact]

Run it from a checkout whose ``src`` holds the catalog (the script puts
``src`` on ``sys.path``); the kernels are only called, never imported by name.
"""

import argparse
import importlib.machinery
import importlib.util
import statistics
import sys
import time
from pathlib import Path

from ab_stats import pin, quartiles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from confound_kit import CLAUSES  # noqa: E402
from confound_kit.theorems import _campaign_codes  # noqa: E402

TOL = 1e-10  # verify_clause's float default
BUDGET = 1000  # its redraw budget
SEED = 1
REPEAT = 3  # calls per side per round; the fastest counts


def load(path: str, package: str):
    """The extension at path, loaded as ``<package>._ckernel``."""
    name = f"{package}._ckernel"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def best_ns(run, args):
    """(fastest of REPEAT calls in ns, the result)."""
    best = None
    for _ in range(REPEAT):
        t0 = time.perf_counter_ns()
        result = run(*args)
        elapsed = time.perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="the A build's _ckernel extension file")
    parser.add_argument("b", help="the B build's _ckernel extension file")
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--count", type=int, default=10_000, help="samples per campaign")
    parser.add_argument("--exact", action="store_true", help="time grid_tally, the exact campaigns")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.count < 1:
        parser.error("--rounds and --count must be positive")

    kernels = (load(args.a, "kernel_ab_a"), load(args.b, "kernel_ab_b"))
    runs = [k.grid_tally if args.exact else k.run_campaign for k in kernels]
    cpu = pin()
    print(f"A {args.a}\nB {args.b}")
    mode = "exact" if args.exact else "float"
    print(f"cpu {cpu}, {args.rounds} rounds of {args.count}-sample {mode} campaigns, fastest of {REPEAT} calls")
    print(f"{'clause':<8} {'A ns':>8} {'B ns':>8} {'A/B':>6} {'q1':>6} {'q3':>6} {'B won':>7}")
    for clause in CLAUSES:
        codes = _campaign_codes(clause)
        times = ([], [])
        for r in range(args.rounds):
            if args.exact:
                call = codes + (SEED, r * args.count, args.count, BUDGET)
            else:
                call = codes + (r * args.count, args.count, SEED, TOL, BUDGET)
            results = [None, None]
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                ns, results[side] = best_ns(runs[side], call)
                times[side].append(ns / args.count)
            a, b = results
            if not args.exact:  # a float's bits, not its value
                a, b = (a[0].hex(), *a[1:]), (b[0].hex(), *b[1:])
            if a != b:
                print(f"{clause.theorem}{clause.clause}: A gave {a}, B gave {b} for {call}")
                return 1
        ratios = [x / y for x, y in zip(*times)]
        q1, median, q3 = quartiles(ratios)
        won = sum(x > y for x, y in zip(*times))
        label = clause.theorem + clause.clause
        print(
            f"{label:<8} {statistics.median(times[0]):8.2f} {statistics.median(times[1]):8.2f}"
            f" {median:6.3f} {q1:6.3f} {q3:6.3f} {won:>3}/{args.rounds}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

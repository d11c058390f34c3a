"""Cold-start A/B of the command-line interface from two source trees.

Each tree is a directory that holds the ``confound_kit`` package: a
checkout's ``src``, or the ``lib`` of a build.  The script pins itself, and so
every process it starts, to one CPU and times one fresh
``python -m confound_kit.cli`` process per request, with the tree on
``PYTHONPATH``, for each of the seven request kinds of the benchmark's
cli-mix workload.  Rounds alternate the order: A then B in even rounds, B
then A in odd ones, so a drift in CPU speed falls on both sides alike.  An
untimed first round lets each tree write its byte-compiled files (the
processes run without ``PYTHONDONTWRITEBYTECODE``), so the timed ones load
them, as an installed package would.  Both sides must print the same stdout,
byte for byte, and exit with the same code, or the script stops with
status 1.  In that round an untimed probe of each request collects the
modules each side has loaded at exit: per kind the script prints the
modules one side loads and the other does not, or ``same modules``.

Per kind it prints each side's median in ms, the median of the paired ratios
A/B (above 1 when B is faster) with its quartiles, and how many rounds B won:

    python3 tools/cli_ab.py /tmp/parent/src src --rounds 31
    python3 tools/cli_ab.py --base HEAD~1 src --rounds 31

With ``--base REF`` the A tree is the ``src`` of ``git archive REF``, taken
from the git repository of the current directory and unpacked into a
temporary directory that is removed at exit.

The tables the ``analyze`` requests read come from the checkout that holds
this script, so both sides read the same bytes.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab_stats import pin, print_table, unpack

DATA = Path(__file__).resolve().parent.parent / "src" / "confound_kit" / "data"
MODEL1 = ["--model", "1", "--t", "0.4", "--a0", "0.2", "--a1", "0.6",
          "--b0", "0.3", "--b1", "0.7", "--u0", "0.3", "--u1", "0.9"]
MODEL2_EXACT = ["--model", "2", "--a", "3/10", "--c0", "1/4", "--c1", "13/20",
                "--b0", "3/20", "--b1", "7/20", "--u0", "7/20", "--u1", "9/20", "--exact"]
# cli-mix's seven kinds, each as one fixed request
REQUESTS = {
    "classify": ["classify", *MODEL1],
    "classify-exact": ["classify", *MODEL2_EXACT],
    "hypotheses": ["hypotheses", *MODEL1],
    "analyze-table1": ["analyze", str(DATA / "table1.csv"), "--coarsen", "0=1,2,3;1=4"],
    "analyze-table2": ["analyze", str(DATA / "table2_coarse.csv")],
    "verify": ["verify", "--theorem", "T2", "--clause", "a", "--samples", "100", "--seed", "1"],
    "verify-exact": ["verify", "--theorem", "T5", "--clause", "b", "--samples", "3", "--seed", "1", "--exact"],
}


def _env(tree):
    env = dict(os.environ, PYTHONPATH=tree)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(tree, argv):
    """(wall ms of one CLI process on ``argv``, its exit code and stdout)."""
    t0 = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-m", "confound_kit.cli", *argv, "--format", "json"],
                          env=_env(tree), capture_output=True, timeout=120)
    return (time.perf_counter_ns() - t0) / 1e6, (proc.returncode, proc.stdout)


# runs the CLI as ``-m`` does and, at exit, lists the loaded modules on stderr
_PROBE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(*sys.modules, file=sys.stderr))\n"
    "runpy.run_module('confound_kit.cli', run_name='__main__', alter_sys=True)"
)


def loaded_modules(tree, argv):
    """The modules one CLI process on ``argv`` has loaded when it exits.

    ``sys.modules`` rather than ``-X importtime``, which does not list a
    module loaded by ``from . import name``."""
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv, "--format", "json"],
                          env=_env(tree), capture_output=True, text=True, timeout=120)
    return set(proc.stderr.splitlines()[-1].split())


def module_difference(kind, a, b):
    """One line naming the modules only one side loads for ``kind``."""
    parts = [f"{side} alone loads {', '.join(sorted(only))}" for side, only in (("A", a - b), ("B", b - a)) if only]
    return f"{kind}: {'; '.join(parts) or 'same modules'}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="TREE",
                        help="the A and B trees, each a directory that holds confound_kit; with --base, B alone")
    parser.add_argument("--base", metavar="REF", help="take the A tree from git archive REF")
    parser.add_argument("--rounds", type=int, default=31)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    if len(args.trees) != (1 if args.base else 2):
        parser.error("give the A and B trees, or --base REF and the B tree")
    with tempfile.TemporaryDirectory(prefix="cli_ab_base_") as base:
        if args.base:
            unpack(args.base, base)
            args.trees.insert(0, str(Path(base) / "src"))
        trees = tuple(str(Path(tree).resolve()) for tree in args.trees)
        for tree in trees:
            if not (Path(tree) / "confound_kit" / "cli.py").is_file():
                parser.error(f"{tree} holds no confound_kit package")
        return compare(trees, args.rounds)


def compare(trees, rounds) -> int:
    """Time every request kind on the two trees and print a row for each."""
    cpu = pin()
    print(f"A {trees[0]}\nB {trees[1]}")
    print(f"cpu {cpu}, {rounds} rounds of one process per side and kind")
    times = {kind: ([], []) for kind in REQUESTS}
    modules = {}
    for r in range(-1, rounds):  # round -1 warms up and is not timed
        for kind, request in REQUESTS.items():
            results = [None, None]
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                ms, results[side] = spawn(trees[side], request)
                if r >= 0:
                    times[kind][side].append(ms)
            if results[0] != results[1]:
                print(f"{kind}: A gave {results[0]}, B gave {results[1]} for {request}")
                return 1
            if r < 0:
                modules[kind] = [loaded_modules(tree, request) for tree in trees]
    for kind, (a, b) in modules.items():
        print(module_difference(kind, a, b))
    print_table("kind", "ms", times)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""A/B of the in-process verdict path from two source trees.

Each tree is a directory that holds the ``confound_kit`` package: a
checkout's ``src``, or the ``lib`` of a build.  The script pins itself, and so
every process it starts, to one CPU.  Each round runs one fresh Python
process per tree, with the tree on ``PYTHONPATH``; rounds alternate the
order, A then B in even rounds and B then A in odd ones, so a drift in CPU
speed falls on both sides alike.

A process times the layers of the benchmark's classify-stream workload, in
its order and in float and exact arithmetic, on seeded points of all three
models on the thousandths grid: ``build_joint``, ``classify_covariate``,
``check_lemma1``, the seven ``holds_numeric`` and the seven
``holds_algebraic`` checks and ``closed_form_summary``.  Each layer runs over
all points at once, on fresh joints, and its time is the fastest of PASSES
passes after an untimed one; the whole path is the sum of the layers.  The
two sides must give the same results, compared by ``repr`` after the timing,
or the script names the layers that differ and stops with status 1.

The passes run with the cyclic garbage collector off.  With it on, a
collection that one layer's allocations trigger can fall in the next
layer's time, so a change to one layer moves another whose code did not
change: on one pair of trees, 11 rounds, ``closed_form_summary.exact``
read a ratio of 1.091 (quartiles 1.087–1.101, 10 of 11 won) with the
collector on and 0.997 (0.965–1.025, 5 of 11) with it off.

Per layer and for the whole path it prints each side's median in µs per
point, the median of the paired ratios A/B (above 1 when B is faster) with
its quartiles, and how many rounds B won:

    python3 tools/verdict_ab.py /tmp/parent/src src --rounds 21
    python3 tools/verdict_ab.py --base HEAD~1 src --rounds 21

With ``--base REF`` the A tree is the ``src`` of ``git archive REF``, taken
from the git repository of the current directory and unpacked into a
temporary directory that is removed at exit.
"""

import argparse
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from ab_stats import pin, print_table, unpack

PASSES = 5  # timed passes per process; the fastest counts per layer
MODES = (("float", 1e-9), ("exact", 0))  # the tolerances classify-stream passes
LAYERS = (
    "build_joint",
    "classify_covariate",
    "check_lemma1",
    "holds_numeric",
    "holds_algebraic",
    "closed_form_summary",
)


def grid_points(params_type, seed, count):
    """``count`` exact points of each model on the thousandths grid, inside
    (0, 1), drawn as classify-stream draws them, and the same points in
    float."""
    rng = random.Random(seed)
    exact = []
    for _ in range(count):
        for model in (1, 2, 3):
            cls = params_type(model)
            exact.append(cls(*[Fraction(rng.randint(10, 990), 1000) for _ in cls._fields]))
    return {"exact": exact, "float": [type(p)(*map(float, p._astuple())) for p in exact]}


def one_pass(ck, points, tol):
    """(ns per point of each layer, each layer's results) on ``points``."""
    clock = time.perf_counter_ns
    hypotheses = tuple(ck.Hypothesis)
    t0 = clock()
    joints = [ck.build_joint(p) for p in points]
    t1 = clock()
    reports = [ck.classify_covariate(j, tol) for j in joints]
    t2 = clock()
    lemmas = [ck.check_lemma1(j, tol) for j in joints]
    t3 = clock()
    numeric = [[ck.holds_numeric(j, h, tol) for h in hypotheses] for j in joints]
    t4 = clock()
    algebraic = [[ck.holds_algebraic(p, h, tol) for h in hypotheses] for p in points]
    t5 = clock()
    closed = [ck.closed_form_summary(p) for p in points]
    t6 = clock()
    stamps = (t0, t1, t2, t3, t4, t5, t6)
    ns = [(b - a) / len(points) for a, b in zip(stamps, stamps[1:])]
    return ns, (joints, reports, lemmas, numeric, algebraic, closed)


def child(seed, count) -> dict:
    """Time every layer on the tree this process imports the package from."""
    import confound_kit as ck

    points = grid_points(ck.params_type, seed, count)
    out = {"tree": str(Path(ck.__file__).resolve().parent.parent), "us": {}, "results": {}}
    gc.disable()  # the points and joints are acyclic, and the process exits
    for mode, tol in MODES:
        best = [float("inf")] * len(LAYERS)
        for _ in range(PASSES + 1):  # the first pass warms up
            ns, results = one_pass(ck, points[mode], tol)
            best = [min(b, n) for b, n in zip(best, ns)]
        for layer, value, result in zip(LAYERS, best, results):
            key = f"{layer}.{mode}"
            out["us"][key] = value / 1e3
            out["results"][key] = hashlib.sha256(repr(result).encode()).hexdigest()
    return out


def spawn(tree, seed, count) -> dict:
    """One process's timings and result digests, with ``tree`` on the path."""
    env = dict(os.environ, PYTHONPATH=tree)
    proc = subprocess.run(
        [sys.executable, __file__, "--child", "--seed", str(seed), "--points", str(count)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"the process on {tree} failed:\n{proc.stderr}")
    out = json.loads(proc.stdout)
    if out["tree"] != tree:
        raise SystemExit(f"the process on {tree} imported confound_kit from {out['tree']}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="TREE",
                        help="the A and B trees, each a directory that holds confound_kit; with --base, B alone")
    parser.add_argument("--base", metavar="REF", help="take the A tree from git archive REF")
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--points", type=int, default=20, help="points of each model")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.points < 1:
        parser.error("--rounds and --points must be positive")
    if args.child:
        print(json.dumps(child(args.seed, args.points)))
        return 0
    if len(args.trees) != (1 if args.base else 2):
        parser.error("give the A and B trees, or --base REF and the B tree")
    with tempfile.TemporaryDirectory(prefix="verdict_ab_base_") as base:
        if args.base:
            unpack(args.base, base)
            args.trees.insert(0, str(Path(base) / "src"))
        trees = tuple(str(Path(tree).resolve()) for tree in args.trees)
        for tree in trees:
            if not (Path(tree) / "confound_kit" / "measures.py").is_file():
                parser.error(f"{tree} holds no confound_kit package")
        return compare(trees, args.rounds, args.seed, args.points)


def compare(trees, rounds, seed, count) -> int:
    """Time the layers on the two trees and print a row for each."""
    cpu = pin()
    print(f"A {trees[0]}\nB {trees[1]}")
    print(f"cpu {cpu}, {rounds} rounds of one process per side, {count} points of each model"
          f" (seed {seed}), fastest of {PASSES} passes")
    keys = [f"{layer}.{mode}" for mode, _ in MODES for layer in LAYERS]
    times = {key: ([], []) for key in [*keys, "path"]}
    for r in range(rounds):
        outs = [None, None]
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            outs[side] = spawn(trees[side], seed, count)
        differ = [key for key in keys if outs[0]["results"][key] != outs[1]["results"][key]]
        if differ:
            print(f"A and B give different results for {', '.join(differ)}")
            return 1
        for side, out in enumerate(outs):
            for key in keys:
                times[key][side].append(out["us"][key])
            times["path"][side].append(sum(out["us"].values()))
    print_table("layer", "µs", times)
    return 0


if __name__ == "__main__":
    sys.exit(main())

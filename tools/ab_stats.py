"""What the A/B scripts in this directory share: pinning to one CPU, the
quartiles of paired ratios, the result table and a base tree unpacked from
git."""

import io
import os
import statistics
import subprocess
import tarfile


def pin():
    """Run this process, and the processes it starts, on the first CPU it
    may use, and name it."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return q1, q2, q3


def print_table(title, unit, times):
    """Print a row for each entry of ``times``, a name to the (A, B) lists of
    its paired timings in ``unit``: each side's median, the median of the
    paired ratios A/B (above 1 when B is faster) with its quartiles, and how
    many rounds B won."""
    width = max(len(title), *map(len, times))
    print(f"{title:<{width}} {'A ' + unit:>8} {'B ' + unit:>8} {'A/B':>6} {'q1':>6} {'q3':>6} {'B won':>7}")
    for name, (a, b) in times.items():
        q1, median, q3 = quartiles([x / y for x, y in zip(a, b)])
        won = sum(x > y for x, y in zip(a, b))
        print(
            f"{name:<{width}} {statistics.median(a):8.2f} {statistics.median(b):8.2f}"
            f" {median:6.3f} {q1:6.3f} {q3:6.3f} {won:>3}/{len(a)}"
        )


def unpack(ref, into):
    """Unpack the ``src`` of ``git archive ref``, from the current
    directory's repository, into the directory ``into``."""
    proc = subprocess.run(["git", "archive", "--format=tar", ref, "src"], capture_output=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"git archive {ref} failed: {proc.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as archive:
        archive.extractall(into, filter="data")

"""What the A/B scripts in this directory share: pinning to one CPU, the
quartiles of paired ratios and a base tree unpacked from git."""

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


def unpack(ref, into):
    """Unpack the ``src`` of ``git archive ref``, from the current
    directory's repository, into the directory ``into``."""
    proc = subprocess.run(["git", "archive", "--format=tar", ref, "src"], capture_output=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"git archive {ref} failed: {proc.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as archive:
        archive.extractall(into, filter="data")

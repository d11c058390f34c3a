"""What the A/B scripts in this directory share: pinning to one CPU and the
quartiles of paired ratios."""

import os
import statistics


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

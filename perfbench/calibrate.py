"""Reference clock: wall times scaled to a fixed speed of the machine.

The machine the benchmark was tuned on (a 2-vCPU Intel Xeon VM) runs the
same Python code at two speeds, 1.6-1.9x apart, for stretches of seconds to
minutes, independently on each vCPU; no run length averages that out.  So
every reported time is scaled by how fast the CPU ran around it: a fixed
reference task is timed on the one CPU the measured code is pinned to,
before every operation and after the last, and an operation's time t is
reported as t * reference_s / r, where r is the median of the NEAREST
reference times around it (two before, two after) and reference_s is the
task's time on that machine, so scaled times read as its times.  Raw times
are printed alongside.

There are two reference tasks, because the phases do not slow all work
alike.  In-process work is scaled by ``reference_task``, a mix of
interpreter work.  Work that starts interpreters (set-up probes, CLI
requests) is scaled by ``spawn_task``, a fresh interpreter that imports a
few standard modules: over a minute on that VM, CLI request times divided
by the spawn task varied by 1.5%, divided by the in-process task by 13%.

The references measure the machine and nothing else.  Neither imports
confound_kit, and both are timed in CPU time, which on that VM follows the
speed phases exactly (wall time over CPU time was 0.99-1.00 in both
phases): the in-process task runs in a helper process and is timed with
time.thread_time there, and the spawn task is timed by the user and system
time of its process.  So nothing the package does to the measured process,
such as a thread left running that holds the GIL or the CPU, or a hook set
at import, slows a reference; it slows only the measured times.

    python3 perfbench/calibrate.py   # the helper: one reference time per input line
"""

import bisect
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.0012  # reference_task in a tight loop, fast phase
SPAWN_REFERENCE_S = 0.07  # spawn_task
SPAWN_CODE = "import json, fractions, argparse"
NEAREST = 4


@dataclasses.dataclass(frozen=True)
class _Point:
    x: object
    y: object
    z: object

    def __post_init__(self):
        if not all(0 < v < 1 for v in (self.x, self.y, self.z)):
            raise ValueError("outside (0, 1)")


def reference_task() -> float:
    """CPU seconds taken by a fixed mix of the interpreter work the workloads
    do: frozen dataclasses, Fraction and float arithmetic, JSON, sorting."""
    start = time.thread_time()
    rows = []
    for i in range(1, 60):
        exact = _Point(Fraction(i, 100), Fraction(i + 1, 101), Fraction(1, i + 2))
        point = _Point(float(exact.x), float(exact.y), float(exact.z))
        rows.append((str(exact.x * exact.y + (1 - exact.z) * exact.x), point.x * point.y + (1 - point.z) * point.x))
    json.loads(json.dumps(sorted(rows, key=lambda row: row[1])))
    return time.thread_time() - start


def spawn_task() -> float:
    """CPU seconds (user and system) of a fresh interpreter that imports a few
    standard modules: the work of a cold start, without the package."""
    # -I: the interpreter ignores PYTHONPATH, so it cannot import the package.
    proc = subprocess.Popen([sys.executable, "-I", "-c", SPAWN_CODE])
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError(f"reference interpreter exited {proc.returncode}")
    return usage.ru_utime + usage.ru_stime


class ReferenceClock:
    """Pins the process to one CPU, times a reference task there at each
    tick (``spawn_task`` when ``spawn``, else ``reference_task`` in a helper
    process), and scales times taken between ticks by the speed found around
    them.  Threads and child processes started later inherit the pin.  Use
    it in a ``with`` statement, which stops the helper."""

    def __init__(self, spawn=False):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.stamps, self.references = [], []
        self.reference_s = SPAWN_REFERENCE_S if spawn else REFERENCE_S
        self._helper = None
        if not spawn:
            self._helper = subprocess.Popen([sys.executable, "-I", os.path.abspath(__file__)],
                                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._helper:
            self._helper.stdin.close()
            self._helper.wait(timeout=10)
            self._helper.stdout.close()

    def tick(self):
        self.stamps.append(time.perf_counter())
        if self._helper is None:
            self.references.append(spawn_task())
            return
        self._helper.stdin.write(b"\n")
        self._helper.stdin.flush()
        self.references.append(float(self._helper.stdout.readline()))

    def median_reference_ms(self) -> float:
        return statistics.median(self.references) * 1e3

    def scale(self, stamps, durations):
        """``durations`` taken at ``stamps``, scaled to the reference speed."""
        scaled = []
        half = NEAREST // 2
        for stamp, duration in zip(stamps, durations):
            after = bisect.bisect_right(self.stamps, stamp)
            local = self.references[max(0, after - half):after + half]
            scaled.append(duration * self.reference_s / statistics.median(local))
        return scaled


def serve():
    for _ in sys.stdin.buffer:
        print(repr(reference_task()), flush=True)


if __name__ == "__main__":
    serve()

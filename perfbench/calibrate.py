"""Machine-speed calibration of the benchmark's timings.

The benchmark runs on shared machines whose speed drifts: on the 2-core
VM it was built on, the same cold T_1..T_5 took between 0.35 s and 0.69 s
in 2-second windows, and the raw wall time of a workload spread by up to
42% (quartile distance over median) across runs.  Taking the program's
time in proportion to a fixed kernel's time, measured interleaved with it
in the same process, brought that spread to 2% to 8% (ten runs of each
workload).

So every timed workload process carries a Speedometer.  It runs a small
benchmark-owned kernel once at the start, every INTERVAL_S while the work
runs (from a SIGALRM handler, between bytecodes of the work), and once at
the end.  The kernel canonicalises and packs small multisets of diagrams
and looks them up in a dict, the shape of the engine's memo-key work; of
the kernels tried it followed the engine's slowdowns most closely.  The
kernel is fixed code, so a change to tangentcount moves the program's time
but not the kernel's.  Traced processes run it only before and after the
traced work, so that no kernel time lands in a span.

A calibrated time is the measured time, less the kernel's own time, times
REFERENCE_S over the kernel's mean time in that process: seconds at the
reference speed, the speed at which the kernel takes REFERENCE_S.
"""

import random
import signal
import statistics
import time

INTERVAL_S = 0.1
REFERENCE_S = 0.0025
DIAGRAMS = 64
TABLE_SIZE = 10000
PROBES = 500


def _pack(constraints):
    """Sort rows and constraints into a canonical order and pack them into
    bytes, the shape of work the engine does on every memo key."""
    rows = sorted((tuple(sorted(c, reverse=True)) for c in constraints),
                  key=lambda c: (sum(c), c), reverse=True)
    return b"".join(bytes(c) + b"\0" for c in rows)


def _rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * 4096 / 2.0 ** 20


class Speedometer:
    """Kernel timings of one process; build it before the timed work."""

    def __init__(self):
        start, rss0 = time.perf_counter(), _rss_mb()
        rng = random.Random(0)
        diagrams = [tuple(rng.randrange(1, 6)
                          for _ in range(rng.randrange(1, 5)))
                    for _ in range(DIAGRAMS)]
        keys = [tuple(rng.choice(diagrams)
                      for _ in range(rng.randrange(1, 4)))
                for _ in range(TABLE_SIZE)]
        self._table = {_pack(k): i for i, k in enumerate(keys)}
        self._probes = rng.sample(keys, PROBES)
        self.kernel_mb = _rss_mb() - rss0
        self.samples = []
        self.in_timer_s = 0.0
        self.spent_s = time.perf_counter() - start
        self.sample()

    def _kernel(self):
        table, total = self._table, 0
        for k in self._probes:
            total += table[_pack(k)]
        return total

    def sample(self):
        t = time.perf_counter()
        self._kernel()
        took = time.perf_counter() - t
        self.samples.append(took)
        self.spent_s += took
        return took

    def _tick(self, signum, frame):
        self.in_timer_s += self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def report(self):
        return {"samples": self.samples, "spent_s": self.spent_s,
                "in_timer_s": self.in_timer_s, "kernel_mb": self.kernel_mb}


def factor(report):
    """Reference speed over the process's speed: multiply a time by it."""
    return REFERENCE_S / statistics.fmean(report["samples"])

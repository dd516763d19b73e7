"""Host-speed calibration, run in run.py's own process.

On a shared host the same instructions can take 30-100% longer for
fractions of a second to minutes at a time (a busy sibling hyperthread,
frequency changes).  So while a workload process runs, run.py stops it
every PERIOD_S with SIGSTOP, all its threads, wherever it is, times a
fixed calibration task in a short burst on the CPU the process last ran
on, and lets it go on with SIGCONT; it also runs a burst just before the
process starts and just after it ends (``Calibrator``).  The task mixes
interpreter work with small numpy calls, like the program's own hot
paths.  The process that runs it never imports the program, and the
program never runs during a burst, so nothing the program does (its
operation mix, its memory, its threads) can move the calibration.

The workload process times its operations with ``time.perf_counter``, the
system-wide monotonic clock, so run.py can take the stops out of each
time (``net``) and multiply it by the scale of the bursts around it
(``scale_at``): the time of a host that runs the task in REFERENCE_S.  A
stop lands in an operation in proportion to its length: a 1-ms operation
is hit about once in 250 runs, so the cold caches a burst leaves behind
barely touch the cheap operations.
"""
from __future__ import annotations

import bisect
import math
import os
import signal
import statistics
import subprocess
import time

import numpy as np

REFERENCE_S = 2.0e-3
PERIOD_S = 0.25
# Timed runs of the task in a burst; one untimed run before them warms the
# caches.
BURST_RUNS = 2
# Bursts within this much of an operation give its scale.  The host flips
# between a fast and a slow speed about as often as bursts come; what an
# operation's time depends on is the share of time spent at each, which
# the mean task time over a window of bursts estimates.
WINDOW_S = 0.5


def task():
    a = np.linspace(1.0, 2.0, 64)
    acc = 0.0
    for i in range(240):
        b = np.log(a) * (i % 7 + 1)
        acc += float(np.sum(np.exp(b - b.max()))) + math.sqrt(i + 1.0)
        acc += sum(j * j for j in range(24)) * 1e-9
    return acc


def burst(runs=BURST_RUNS):
    """Durations of ``runs`` timed runs of the task, after one untimed run."""
    task()
    durations = []
    for _ in range(runs):
        start = time.perf_counter()
        task()
        durations.append(time.perf_counter() - start)
    return durations


def scale(durations):
    """Factor that converts times taken alongside these task durations to
    the reference speed."""
    return REFERENCE_S / statistics.fmean(durations)


def _stat(pid):
    """State and last CPU of a process (fields 3 and 39 of /proc/<pid>/stat)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return fields[0], int(fields[36])


class Calibrator:
    """Runs workload processes one at a time, stopping each for a burst
    every ``period`` seconds (never when it is None).  Keeps the bursts as
    (clock time, durations) and the stops as (from, to) clock intervals."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.bursts = []
        self.stops = []

    def _burst(self):
        durations = burst()
        self.bursts.append((time.perf_counter(), durations))

    def _stop_and_burst(self, pid):
        cpus = os.sched_getaffinity(0)
        start = time.perf_counter()
        os.kill(pid, signal.SIGSTOP)
        try:
            state, cpu = _stat(pid)
            while state not in "TtZX" and time.perf_counter() - start < 0.05:
                state, cpu = _stat(pid)
            os.sched_setaffinity(0, {cpu})
            self._burst()
        finally:
            os.sched_setaffinity(0, cpus)
            os.kill(pid, signal.SIGCONT)
            self.stops.append((start, time.perf_counter()))

    def run(self, cmd, env, timeout, stdout):
        """Run ``cmd`` (stderr goes with stdout) and return its exit code;
        raises TimeoutError after killing it."""
        deadline = time.monotonic() + timeout
        self._burst()
        proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=subprocess.STDOUT)
        try:
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError
                try:
                    code = proc.wait(left if self.period is None else min(self.period, left))
                    break
                except subprocess.TimeoutExpired:
                    self._stop_and_burst(proc.pid)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self._burst()
        return code

    def net(self, start, end):
        """Length of a clock interval without the stops in it."""
        stopped = sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.stops)
        return end - start - stopped

    def scale_at(self, start, end):
        """Scale for a clock interval, from the bursts within WINDOW_S of it."""
        times = [t for t, _ in self.bursts]
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        near = [d for _, durations in self.bursts[lo:hi] for d in durations]
        return scale(near or [d for _, durations in self.bursts for d in durations])

"""Robust estimators and process-tree accounting for the benchmark.

Every estimator here was chosen against a measured noise source on a
2-core box (numbers in README.md): medians over fixed op counts rather
than whole-run means, block throughput rather than total/wall, and CPU
read per process from ``/proc`` so a worker's spawn cost stays out of
the timed window.
"""

from __future__ import annotations

import bisect
import os
import resource
import statistics
import threading
import time
from pathlib import Path

#: Timed ops are cut into this many equal consecutive blocks; the
#: reported throughput is the median block's.
BLOCKS = 10

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def median(values) -> float:
    return float(statistics.median(values))


def block_ends(n_ops: int) -> set[int]:
    """Completed-op counts at which the ``BLOCKS`` equal consecutive
    blocks end (fewer blocks when there are fewer ops)."""
    size = max(1, n_ops // BLOCKS)
    return set(range(size, min(n_ops, size * BLOCKS) + 1, size))


class HostSpeed:
    """Host-speed index from a fixed slice of work interleaved with the ops.

    On this class of host (2 vCPUs of a shared machine) the same
    instructions take 1.0x to 1.5x as long from one tenth of a second to
    the next, and whole minutes run slow (README.md has the series):
    fixed work costs more *CPU* time, so it is the processor that is
    slower, not a queue that is longer.  The loop that drives a workload
    therefore runs this slice between ops, about every 25 ms, and every
    timing is divided by the slice's cost at that moment relative to
    ``REFERENCE_SECONDS`` — times are reported at reference host speed.

    The slice is timed on the thread's CPU clock (waiting for a core or
    for the GIL is not host speed), after one untimed pass so that it
    does not measure how cold the workload left the caches.
    """

    #: CPU seconds of one slice on a quiet host of the class the
    #: committed numbers come from (index 1.0 = that speed).
    REFERENCE_SECONDS = 100e-6
    INTERVAL_SECONDS = 0.025

    def __init__(self) -> None:
        self._floats = [((i * 7919) % 1009) / 1009.0 for i in range(1000)]
        self._bytes = bytes(range(256)) * 128
        self._table = bytes(reversed(range(256)))
        self.stamps: list[float] = []
        self.costs: list[float] = []
        self._due = 0.0

    def _slice(self) -> None:
        # A third each: interpreter work (dict, list and float traffic —
        # what the scalar map path and the object folds are made of), a
        # branchy C loop, and a C streaming pass over 32 KiB.  None of it
        # releases the GIL, so on a thread that shares the GIL the slice
        # is not charged for lock hand-offs.
        cells: dict[int, list] = {}
        for i in range(300):
            cell = cells.get(i & 31)
            if cell is None:
                cell = cells[i & 31] = [0.0, 0]
            cell[0] += i * 0.5
            cell[1] += 1
        sorted(self._floats)
        self._bytes.translate(self._table)

    def sample(self) -> None:
        now = time.perf_counter()
        self._slice()
        c0 = time.thread_time()
        self._slice()
        self.costs.append(time.thread_time() - c0)
        self.stamps.append(now)
        self._due = time.perf_counter() + self.INTERVAL_SECONDS

    def sample_if_due(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    def index(self, t0: float, t1: float) -> float:
        """Mean slice cost over ``[t0, t1]`` (widened by one sampling
        interval each side) relative to the reference; the nearest
        sample when the interval holds none."""
        lo = bisect.bisect_left(self.stamps, t0 - self.INTERVAL_SECONDS)
        hi = bisect.bisect_right(self.stamps, t1 + self.INTERVAL_SECONDS)
        if lo >= hi:
            lo = max(0, min(lo, len(self.stamps) - 1))
            hi = lo + 1
        return sum(self.costs[lo:hi]) / (hi - lo) / self.REFERENCE_SECONDS

    def latencies(self, starts, ends) -> list[float]:
        """Each op's latency at reference host speed."""
        return [(t1 - t0) / self.index(t0, t1) for t0, t1 in zip(starts, ends)]

    def sample_in_background(self, period: float = 0.005):
        """Sample from a thread of its own, about every ``period`` seconds,
        until the returned function is called.

        For a cold start, which is one long import with no loop to put
        the slice in: the thread takes the GIL between the importing
        thread's turns (~150 samples in a 1.1 s start, ~4 % of it).  Not
        for a timed phase, where it would be one more contender for the
        GIL the program's own threads share.
        """
        stop = threading.Event()

        def loop() -> None:
            while True:
                self.sample()
                if stop.wait(period):
                    return

        thread = threading.Thread(target=loop, name="host-speed", daemon=True)
        thread.start()

        def finish() -> None:
            stop.set()
            thread.join()

        return finish


def tail(latencies) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with fewer than eleven samples the
    maximum is all there is and the percentile says so (100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return float(ordered[-1]), 100.0
    return float(ordered[n - 11]), 100.0 * (n - 10) / n


def _proc_cpu_ticks() -> dict[int, tuple[int, int]]:
    """``pid -> (ppid, utime+stime+cutime+cstime)`` for every process."""
    table = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # exited between listing and reading
            continue
        # The comm field may hold spaces and parentheses: split after
        # the last ')'.  Fields then start at index 2 (state).
        fields = stat[stat.rindex(")") + 2:].split()
        ppid = int(fields[1])
        ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
        table[int(entry.name)] = (ppid, ticks)
    return table


def tree_cpu_seconds() -> float:
    """User+system CPU consumed so far by this process and its live
    descendants (each including the children it has already reaped).

    Read at both ends of the timed window, the difference is the CPU the
    analytics took from the simulation's cores during the window only —
    the imports and pool start-up of worker processes happened before
    the first reading.
    """
    table = _proc_cpu_ticks()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    total, todo = 0, [os.getpid()]
    while todo:
        pid = todo.pop()
        total += table[pid][1]
        todo.extend(children.get(pid, ()))
    return total / _CLK_TCK


def pin_to_one_core() -> set[int]:
    """Keep the calling thread, and the threads and processes it starts
    from now on, on one of the process's cores; returns the cores it had.

    For a workload whose threads share the GIL (the SPMD ranks of the
    sim backend: user+sys CPU equals wall time, so the second core does
    no work) two cores only add a hand-off across cores to every
    collective and every GIL switch: the waiting thread's core has gone
    idle, and how long a shared host takes to run an idle virtual core
    again is the host's business, not the program's.  On one core the
    hand-off is a context switch inside the guest, and the host-speed
    slice runs on the core that does all of the work — which is also why
    a cold start's imports and their sampler thread share one core.
    """
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cores)})
    return cores


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """``ru_maxrss`` in MB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def host_calibration_ns_per_elem() -> float:
    """A fixed numpy kernel (fused multiply-add over 1 Mi float64), for
    normalising absolute numbers across hosts."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 1 << 20)
    b = np.empty_like(a)
    samples = []
    for _ in range(15):
        t0 = time.perf_counter()
        np.multiply(a, 1.0001, out=b)
        np.add(b, a, out=b)
        samples.append(time.perf_counter() - t0)
    return median(samples) / a.size * 1e9

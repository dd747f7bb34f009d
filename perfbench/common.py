"""Measurement helpers shared by the workloads.

Percentiles, the host-speed probe, and resident-memory readings for this
process and its worker children.  Nothing here imports the program.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import resource
import statistics
import time

#: Iterations of the host-speed probe loop (about 20-40 ms of pure Python).
PROBE_ITERATIONS = 300_000


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def host_probe(repeats: int = 3) -> float:
    """Milliseconds a fixed pure-Python loop takes (median of ``repeats``).

    Recorded at the start and end of every run, next to the results, so a
    slowed host is visible.  It never drops, reweights or rescales a run.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc = (acc * 31 + i) % 1_000_003
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_status_kib(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def children_peak_rss_mb() -> float:
    """Sum of the live worker children's peak resident memory, in MB."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            total += _proc_status_kib(child.pid, "VmHWM")
        except OSError:
            continue  # exited between listing and reading
    return total / 1024.0


def children_cpu_s() -> float:
    """CPU seconds (user + system) the live worker children have used."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command name; utime and stime
        # are fields 14 and 15 of the whole line.
        fields = stat.rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / ticks


def usable_cpus() -> int:
    """Processors this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1

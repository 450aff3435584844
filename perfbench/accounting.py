"""Host facts, per-process CPU and peak memory, and small statistics.

CPU time and peak resident memory cover every program process: this
one (the caller, the service threads and the load generator) and its
children (forked pool workers), read from ``/proc``.  Peak memory is
reset at the start of a measured window by writing ``5`` to each
process's ``clear_refs``, so it reports the window's peak rather than
the peak of input generation.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, List, Sequence

import numpy as np

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_TICKS = os.sysconf("SC_CLK_TCK")

#: Typical thread CPU seconds of one :class:`SpeedProbe` run on the
#: reference host (2-core x86_64 VM, scipy-openblas 0.3.31, one BLAS
#: thread): right after an op of a closed loop, and in an idle gap
#: between open-loop arrivals (an idle core runs it slower).
PROBE_BETWEEN_OPS_S = 400e-6
PROBE_BETWEEN_ARRIVALS_S = 510e-6


def host_info() -> Dict[str, object]:
    """Host, cores, interpreter, numpy/BLAS and the thread pins."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
    }


def child_pids() -> List[int]:
    """Live children of this process (the pool's forked workers)."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            children.append(int(entry))
    return children


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (clock-tick resolution)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        stat = handle.read()
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def reset_peak_rss(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as h:
            h.write("5")
        return True
    except OSError:
        return False


class Meter:
    """CPU and peak memory of every program process over one window.

    ``stop()`` must run while the pool workers are still alive.
    """

    def __init__(self) -> None:
        self.children = child_pids()
        self.peak_reset = all([reset_peak_rss(pid) for pid in
                               [os.getpid()] + self.children])
        self._kids0 = {pid: process_cpu_s(pid) for pid in self.children}
        self._cpu0 = time.process_time()

    def stop(self) -> Dict[str, float]:
        parent = time.process_time() - self._cpu0
        workers = sum(process_cpu_s(pid) - start
                      for pid, start in self._kids0.items())
        peak_kb = peak_rss_kb(os.getpid()) + sum(
            peak_rss_kb(pid) for pid in self.children)
        return {"parent_cpu_s": parent, "worker_cpu_s": workers,
                "cpu_s": parent + workers, "peak_rss_mb": peak_kb / 1024.0,
                "peak_reset": self.peak_reset}


class SpeedProbe:
    """How fast the host runs right now, from a fixed CPU probe.

    On a shared host the same work takes 25% more or less CPU time from
    one second to the next, because other tenants share the cores and
    caches.  A workload calls :meth:`run` between its units of work,
    never inside a timed op; :meth:`slowdown` is the mean probe cost
    over the window against the probe's typical cost in that position
    on the reference host, so a time divided by it reads as it would at
    the host's typical speed.  The probe mixes interpreter work and
    small matrix products, like the program's own hot paths, and is
    timed with the calling thread's CPU clock, so waiting for the
    interpreter lock does not count.
    """

    def __init__(self, reference_s: float) -> None:
        self.reference_s = reference_s
        self.samples: List[float] = []
        self._matrix = np.random.default_rng(0).random((48, 48),
                                                       dtype=np.float32)

    def sample(self, repeats: int = 1) -> float:
        """Run the probe; its slowdown over these ``repeats`` runs."""
        first = len(self.samples)
        self.run(repeats)
        return (float(np.mean(self.samples[first:])) / self.reference_s)

    def run(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = time.thread_time()
            x = self._matrix
            for _ in range(20):
                x = (x @ self._matrix) * np.float32(0.04)
            total = 0
            for i in range(3000):
                total += i * i
            self.samples.append(time.thread_time() - start)

    def slowdown(self) -> float:
        if not self.samples:
            return 1.0
        return float(np.mean(self.samples)) / self.reference_s


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0

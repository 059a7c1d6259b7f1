"""Elapsed time less what the hypervisor stole from the benchmark's CPU.

``run.py`` pins itself and its children to one CPU. On a shared virtual
machine the hypervisor runs other guests on that CPU now and then, and the
guest kernel counts that time as *steal* in ``/proc/stat``. On the 2-core
machine this benchmark was built on, steal took up to a quarter of a
second-long interval: one fixed loop read 1.50-2.08 s of wall time but
1.42-1.70 s once the steal was taken off. ``now()`` is
``time.perf_counter()`` minus the steal counted so far on the pinned CPU, so
the difference of two readings is the time the program had the CPU or
waited on its own account. Without a steal counter it is plain wall time.
"""

from __future__ import annotations

import os
import time

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _stolen_s(cpu: int) -> float:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    fields = line.split()
                    return int(fields[8]) * _TICK_S if len(fields) > 8 else 0.0
    except OSError:
        pass
    return 0.0


def now() -> float:
    """perf_counter() less steal on this process's CPU, when it has one CPU."""
    cpus = os.sched_getaffinity(0)
    stolen = _stolen_s(next(iter(cpus))) if len(cpus) == 1 else 0.0
    return time.perf_counter() - stolen

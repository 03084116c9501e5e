"""Moving the benchmark's process from one of its CPUs to the next.

On a shared host the speed of each vCPU moves by about 1.5x within
seconds, as the host's other tenants come and go, and a process may sit
on the slow one for a whole run.  Work that is split into parts (set-ups,
rounds) runs part k on CPU k mod n, so every run samples every CPU it is
given.
"""

from __future__ import annotations

import os

#: The CPUs the process was given at start; none where affinity is not
#: available.
ALL = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _pin(cpus):
    # Every thread of the process: the serve workloads' fabric thread too.
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:  # the thread ended meanwhile
            pass


def cycle(k):
    """Run every thread of the process on the k-th CPU, round robin."""
    if len(ALL) > 1:
        _pin({ALL[k % len(ALL)]})


def release():
    """Let every thread run on every CPU the process was given again."""
    if len(ALL) > 1:
        _pin(ALL)

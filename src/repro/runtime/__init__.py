"""Supervised execution runtime: detection, fallback, and recovery.

The offline fault campaigns classify faults; this package survives them
*online*.  :func:`run_checked` is the one path that runs rows on
self-checking hardware (:mod:`repro.circuits.checkers`): every answer
clears both the gate-level alarms and the software acceptance gate
(:func:`~repro.circuits.checkers.accept_rows`), and failures walk a
graceful degradation ladder — JIT kernel → compiled engine →
interpreter oracle → behavioral ``np.sort`` — governed by a
:class:`RecoveryPolicy` with bounded retry, capped exponential backoff
and a per-attempt deadline.  The :class:`Supervisor` runs one row per
call through it; ``core.api.sort_bits(..., supervised=True)`` routes
through the shared per-network :func:`get_supervisor`.

:mod:`repro.runtime.guard` provides the underlying deadline/retry
primitives, reused by the campaign tools for per-item timeouts and
poison-item quarantine.
"""

from .checked import CheckedRun, RecoveryPolicy, run_checked
from .guard import deadline_supported, run_guarded, time_limit
from .supervisor import (
    CallReport,
    Supervisor,
    SupervisorStats,
    get_supervisor,
    reset_supervisors,
    supervisor_stats,
)

__all__ = [
    "CallReport",
    "CheckedRun",
    "RecoveryPolicy",
    "Supervisor",
    "SupervisorStats",
    "deadline_supported",
    "get_supervisor",
    "reset_supervisors",
    "run_checked",
    "run_guarded",
    "supervisor_stats",
    "time_limit",
]

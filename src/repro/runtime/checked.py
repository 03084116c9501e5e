"""One checked-run path: run rows on self-checking hardware, gate, recover.

:func:`run_checked` is the single way the repo runs a batch of 0/1 rows
through a sorting network and knows the answer is right.  The
supervisor (one row per call), the serve fabric (one batch per pass),
the chaos soak and the fault campaigns all call it.

The rows are the caller-held inputs.  The hardware is a
:class:`~repro.circuits.checkers.CheckedNetlist`, or the fish
``(FishSorter, OutputChecker)`` pair.  :func:`run_checked` walks the
policy's rungs, fastest first:

* ``jit`` — the code-generated bit-slice kernel
  (:func:`~repro.circuits.simulate.simulate_jit`), compiled on first
  use; skipped, without a detection, when the netlist does not
  :func:`~repro.circuits.jit.fits` (more than
  :data:`~repro.circuits.jit.JIT_MAX_ELEMENTS` elements) — the same
  rule :func:`~repro.circuits.simulate.simulate` routes by;
* ``engine`` — the fused-step engine, pinned so the two compiled rungs
  stay independent;
* ``interpreter`` — the element-at-a-time oracle;
* ``behavioral`` — ``np.sort`` of the held input.

The fish pair has only the ``engine`` and ``behavioral`` rungs: its
phases are behavioral objects that already run through both engines.

A row is accepted when its alarm wires are quiet and it passes
:func:`~repro.circuits.checkers.accept_rows` — monotone, with the held
input's ones count, a complete check on 0/1 rows.  Each attempt runs
only the rows not yet answered.  A rung gets ``1 + max_retries``
attempts with capped exponential backoff, each under
``time_limit(deadline_s)``; an alarm, a failed gate, an exception or a
deadline moves on to the next attempt.  Rows the ``behavioral`` rung
answers are *recovered*, never accepted.  If even that rung fails, the
last error is raised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .. import obs
from ..circuits import jit as _jit
from ..circuits.checkers import accept_rows
from ..circuits.simulate import simulate_engine, simulate_interpreted, simulate_jit
from ..errors import BuildError, CheckerAlarm, DeadlineExceeded, ReproError, SimulationError
from .guard import time_limit

__all__ = ["CheckedRun", "INVARIANT", "RecoveryPolicy", "TIERS", "run_checked"]

#: Execution rungs, fastest first.
TIERS = ("jit", "engine", "interpreter", "behavioral")

#: Detection name for a row that fails the software gate with its alarms
#: quiet.
INVARIANT = "invariant"


@dataclass(frozen=True)
class RecoveryPolicy:
    """What :func:`run_checked` does when a rung fails.

    ``max_retries`` re-runs of a failing rung (exponential backoff from
    ``backoff_s`` by ``backoff_factor``) before degrading to the next
    rung; ``deadline_s`` is the per-attempt wall-clock budget (``None``
    disables it); ``control_checker`` additionally attaches the
    duplicate-and-compare steering checker to combinational hardware
    the supervisor builds.

    ``max_backoff_s`` caps each backoff sleep.  Unset, it defaults to
    ``deadline_s`` when a deadline is configured: uncapped,
    ``backoff_s * backoff_factor**k`` grows without bound and a call
    under a deadline storm can burn more wall-clock *sleeping between
    retries* than its entire per-attempt budget — the failure mode the
    chaos soak's deadline injector surfaces.
    """

    max_retries: int = 1
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    max_backoff_s: Optional[float] = None
    deadline_s: Optional[float] = None
    control_checker: bool = False
    tiers: Tuple[str, ...] = TIERS

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise BuildError("max_retries must be >= 0")
        if self.max_backoff_s is not None and self.max_backoff_s < 0:
            raise BuildError("max_backoff_s must be >= 0")
        unknown = set(self.tiers) - set(TIERS)
        if unknown or not self.tiers:
            raise BuildError(f"tiers must be a non-empty subset of {TIERS}")

    @property
    def backoff_cap_s(self) -> Optional[float]:
        """Effective per-sleep cap: ``max_backoff_s``, else the deadline
        budget, else unlimited."""
        if self.max_backoff_s is not None:
            return self.max_backoff_s
        return self.deadline_s


@dataclass
class CheckedRun:
    """What one :func:`run_checked` call did."""

    data: np.ndarray  #: (lanes, width) final rows, every one correct
    accepted: np.ndarray  #: bool mask: rows a hardware rung answered
    tier: str  #: deepest rung any row needed
    detections: Tuple[str, ...]  #: alarm names seen on the way, plus "invariant"
    attempts: int  #: attempts across all rungs
    retries: int  #: attempts beyond the first per rung
    deadline_hits: int  #: attempts killed by the deadline
    fell_back: bool  #: some row resolved below the first rung tried
    alarms: int  #: rows on which a checker alarm fired
    invariant_fails: int  #: rows failing the gate with their alarms quiet
    recovered: int  #: rows answered by the behavioral rung
    wall_s: float  #: wall-clock of the whole run

    @property
    def lanes(self) -> int:
        return int(self.data.shape[0])


def _rungs(hw, policy: RecoveryPolicy) -> List[str]:
    if isinstance(hw, tuple):  # (FishSorter, OutputChecker)
        return [t for t in policy.tiers if t in ("engine", "behavioral")]
    jit_ok = _jit.fits(hw.netlist)
    return [t for t in policy.tiers if jit_ok or t != "jit"]


def _run_tier(tier: str, hw, rows: np.ndarray, pipelined: bool):
    """Run one rung on ``rows``; returns ``(data, alarms)``, where
    ``alarms`` is the (lanes, n_alarms) alarm matrix or ``None``.

    The simulate backends are module globals looked up at call time,
    never bound into a table at import, so a wrapper patched over them
    sees every call.
    """
    if tier == "behavioral":
        return np.sort(rows, axis=1), None
    if isinstance(hw, tuple):
        sorter, checker = hw
        data = np.stack([
            np.asarray(sorter.sort(row, pipelined=pipelined)[0], dtype=np.uint8)
            for row in rows
        ])
        return data, checker.alarms(rows, data)
    run = (simulate_jit if tier == "jit" else
           simulate_engine if tier == "engine" else simulate_interpreted)
    data, alarms = hw.split(run(hw.netlist, rows))
    return np.ascontiguousarray(data), alarms


def run_checked(hw, rows, policy: RecoveryPolicy, *, pipelined: bool = False,
                network: str = "") -> CheckedRun:
    """Run ``rows`` (lanes, width) on checked hardware ``hw`` under
    ``policy``; every returned row is correct (see the module docstring).

    ``pipelined`` is passed to the fish sorter; ``network`` labels the
    ``supervisor.*`` trace events.
    """
    started = time.perf_counter()
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    if rows.ndim != 2:
        raise BuildError(f"rows must be (lanes, width), got {rows.shape}")
    lanes = rows.shape[0]
    rungs = _rungs(hw, policy)
    names = hw[1].alarm_names if isinstance(hw, tuple) else hw.alarm_names
    cap = policy.backoff_cap_s
    data = accepted = alarmed = quiet_fail = None
    pending = None  # indices of rows still unanswered; None = all of them
    detections: List[str] = []
    attempts = retries = deadline_hits = 0
    last_error: Optional[BaseException] = None
    # The trace_event calls are no-ops unless repro.obs is enabled; they
    # journal every decision the ladder takes.
    for index, tier in enumerate(rungs):
        if index:
            obs.trace_event("supervisor.degrade", network=network,
                            to_tier=tier, attempts=attempts)
        hardware = tier != "behavioral"
        delay = policy.backoff_s
        for attempt in range(policy.max_retries + 1):
            attempts += 1
            if attempt:
                retries += 1
                sleep_s = delay if cap is None else min(delay, cap)
                obs.trace_event("supervisor.retry", network=network, tier=tier,
                                attempt=attempt, delay_s=sleep_s)
                if sleep_s > 0:
                    time.sleep(sleep_s)
                delay *= policy.backoff_factor
            sub = rows if pending is None else rows[pending]
            try:
                with time_limit(policy.deadline_s, f"{tier} sort"):
                    out, alarms = _run_tier(tier, hw, sub, pipelined)
            except DeadlineExceeded as exc:
                deadline_hits += 1
                last_error = exc
                obs.trace_event("supervisor.deadline", network=network,
                                tier=tier, attempt=attempt,
                                budget_s=policy.deadline_s)
                continue
            except (ReproError, RuntimeError) as exc:
                last_error = exc
                obs.trace_event("supervisor.error", network=network, tier=tier,
                                attempt=attempt, error=repr(exc))
                continue
            alarm_rows = None if alarms is None else alarms.any(axis=1)
            ok = accept_rows(sub, out, alarm_rows)
            if pending is None and ok.all():  # the common case: one pass
                data, accepted = out, (ok if hardware else ~ok)
            else:
                if data is None:
                    data = np.empty_like(rows)
                    accepted = np.zeros(lanes, dtype=bool)
                    alarmed = np.zeros(lanes, dtype=bool)
                    quiet_fail = np.zeros(lanes, dtype=bool)
                    pending = np.arange(lanes)
                data[pending[ok]] = out[ok]
                accepted[pending[ok]] = hardware
                quiet = ~ok
                fired = []
                if alarms is not None:
                    fired = [n for n, hit in zip(names, alarms.any(axis=0)) if hit]
                    alarmed[pending[alarm_rows]] = True
                    quiet &= ~alarm_rows
                if quiet.any():
                    quiet_fail[pending[quiet]] = True
                    fired.append(INVARIANT)
                if fired:
                    detections.extend(fired)
                    last_error = CheckerAlarm(fired, rows=pending[~ok])
                    obs.trace_event("supervisor.alarm", network=network,
                                    tier=tier, attempt=attempt, alarms=fired)
                pending = pending[~ok]
                if pending.size:
                    continue
            obs.trace_event("supervisor.accept", network=network,
                            tier=tier, attempts=attempts)
            return CheckedRun(
                data=data,
                accepted=accepted,
                tier=tier,
                detections=tuple(dict.fromkeys(detections)),
                attempts=attempts,
                retries=retries,
                deadline_hits=deadline_hits,
                fell_back=index > 0,
                alarms=0 if alarmed is None else int(alarmed.sum()),
                invariant_fails=0 if quiet_fail is None else int(quiet_fail.sum()),
                recovered=lanes - int(accepted.sum()),
                wall_s=time.perf_counter() - started,
            )
    # Every rung (including behavioral) failed: raise the last cause,
    # wrapped in the structured hierarchy.
    obs.trace_event("supervisor.exhausted", network=network,
                    attempts=attempts, error=repr(last_error))
    if isinstance(last_error, ReproError):
        raise last_error
    raise SimulationError(f"checked run failed: {last_error!r}")

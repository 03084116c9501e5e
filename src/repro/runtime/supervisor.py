"""Supervised sort execution: detect, retry, degrade, recover.

The :class:`Supervisor` is the online counterpart of the offline fault
campaigns.  Every sort runs on **self-checking hardware**
(:func:`repro.core.api.make_checked_sorter`: the network with checkers
attached, or the fish sorter paired with a boundary
:class:`~repro.circuits.checkers.OutputChecker`) through
:func:`repro.runtime.checked.run_checked`: the result must have quiet
alarm wires and pass the software gate (output monotone, with the
*caller-held* input's ones count), and any alarm, gate failure,
exception or deadline walks the :class:`RecoveryPolicy`'s retry and
degradation ladder — JIT kernel → compiled engine → interpreter oracle
→ behavioral ``np.sort`` — so a supervised call returns the *correct*
answer even when the circuit itself is faulty.  Per-call statistics
(detections, tier usage, retries, latencies) accumulate in
:class:`SupervisorStats`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..errors import BuildError, SimulationError
from .checked import RecoveryPolicy, run_checked

__all__ = [
    "CallReport",
    "RecoveryPolicy",
    "Supervisor",
    "SupervisorStats",
    "get_supervisor",
    "reset_supervisors",
    "supervisor_stats",
]


@dataclass
class CallReport:
    """What happened during one supervised sort."""

    tier: str  #: tier that produced the accepted result
    attempts: int  #: total attempts across all tiers
    retries: int  #: attempts beyond the first per tier
    detections: Tuple[str, ...]  #: alarm names observed along the way
    fell_back: bool  #: resolved below the first tier
    deadline_hits: int  #: attempts killed by the deadline
    latency_s: float  #: wall-clock of the whole call


@dataclass
class SupervisorStats:
    """Aggregate counters across supervised calls (see :meth:`snapshot`)."""

    calls: int = 0
    detected_calls: int = 0
    fallback_calls: int = 0
    retries: int = 0
    deadline_hits: int = 0
    alarms: Dict[str, int] = field(default_factory=dict)
    tier_used: Dict[str, int] = field(default_factory=dict)
    latency: obs.Histogram = field(
        default_factory=lambda: obs.MetricsRegistry().histogram("latency_s"))

    def record(self, report: CallReport) -> None:
        self.calls += 1
        if report.detections:
            self.detected_calls += 1
        if report.fell_back:
            self.fallback_calls += 1
        self.retries += report.retries
        self.deadline_hits += report.deadline_hits
        for name in report.detections:
            self.alarms[name] = self.alarms.get(name, 0) + 1
        self.tier_used[report.tier] = self.tier_used.get(report.tier, 0) + 1
        self.latency.observe(report.latency_s)

    def snapshot(self) -> Dict[str, object]:
        """Counters plus latency over every call: ``mean_latency_s`` is
        exact, ``max_latency_s`` is within ``rel_err``."""
        lat = self.latency
        return {
            "calls": self.calls,
            "detected_calls": self.detected_calls,
            "fallback_calls": self.fallback_calls,
            "retries": self.retries,
            "deadline_hits": self.deadline_hits,
            "alarms": dict(self.alarms),
            "tier_used": dict(self.tier_used),
            "mean_latency_s": lat.sum / lat.count if lat.count else 0.0,
            "max_latency_s": lat.quantile(1.0),
            "rel_err": obs.REL_ERR,
        }


class Supervisor:
    """Run sorts on self-checking hardware with detection and recovery.

    ``network`` is one of ``core.api.NETWORKS``.  By default the checked
    circuit for a width is the shared
    :func:`~repro.core.api.make_checked_sorter` instance (with the
    steering checker when ``policy.control_checker``).  ``hardware``
    optionally overrides how it is obtained — a callable
    ``n -> CheckedNetlist`` for the combinational networks, or
    ``n -> (FishSorter, OutputChecker)`` for ``"fish"``, called on every
    sort (cache inside the hook if building is costly).  The fault
    campaigns use this hook to hand the supervisor deliberately *broken*
    hardware and assert that every call still returns a correct, sorted
    result (via detection + fallback).
    """

    def __init__(
        self,
        network: str = "mux_merger",
        policy: Optional[RecoveryPolicy] = None,
        hardware: Optional[Callable[[int], object]] = None,
    ) -> None:
        from ..core.api import NETWORKS

        if network not in NETWORKS:
            raise BuildError(
                f"unknown network {network!r}; choose one of {NETWORKS}"
            )
        self.network = network
        self.policy = policy or RecoveryPolicy()
        self.stats = SupervisorStats()
        self._hardware = hardware

    def _get_hardware(self, n: int):
        if self._hardware is not None:
            return self._hardware(n)
        from ..core.api import make_checked_sorter

        return make_checked_sorter(n, self.network,
                                   self.policy.control_checker)

    def reset(self) -> None:
        """Drop the accumulated statistics."""
        self.stats = SupervisorStats()

    # -- public API -----------------------------------------------------------

    def sort(self, bits, pipelined: bool = False) -> np.ndarray:
        """Sort like :func:`repro.core.api.sort_bits`, supervised."""
        out, _report = self.sort_verbose(bits, pipelined=pipelined)
        return out

    def run_many(
        self, seqs, pipelined: bool = False
    ) -> Tuple[List[np.ndarray], List[CallReport]]:
        """Supervised sort of a whole batch; results in input order.

        Returns ``(outputs, reports)`` — one sorted array and one
        :class:`CallReport` per input sequence, each from its own
        :meth:`sort_verbose` call (so every row keeps its own deadline
        budget and folds into this supervisor's :class:`SupervisorStats`).
        It runs in this process: a process pool measured slower than
        this loop at every batch size tried (see ``docs/PERFORMANCE.md``).
        """
        outs, reports = [], []
        for seq in seqs:
            out, report = self.sort_verbose(seq, pipelined=pipelined)
            outs.append(out)
            reports.append(report)
        return outs, reports

    def sort_verbose(
        self, bits, pipelined: bool = False
    ) -> Tuple[np.ndarray, CallReport]:
        """Supervised sort returning the :class:`CallReport` as well."""
        from ..core.api import pad_bits

        arr = np.asarray(bits, dtype=np.uint8).ravel()
        if arr.size and arr.max() > 1:
            raise SimulationError("sort_bits expects a 0/1 sequence")
        started = time.perf_counter()
        if arr.size <= 1:
            report = CallReport("behavioral", 1, 0, (), False, 0,
                                time.perf_counter() - started)
            self.stats.record(report)
            return arr.copy(), report
        padded = pad_bits(arr, self.network)
        hw = self._get_hardware(padded.size)
        if obs.OBS.enabled:
            with obs.OBS.tracer.span(
                "supervisor.sort", network=self.network, n=int(arr.size)
            ) as attrs:
                data, report = self._run(hw, padded, pipelined, started)
                attrs.update(
                    tier=report.tier,
                    attempts=report.attempts,
                    retries=report.retries,
                    detections=list(report.detections),
                    fell_back=report.fell_back,
                    deadline_hits=report.deadline_hits,
                )
            self._record_metrics(report)
        else:
            data, report = self._run(hw, padded, pipelined, started)
        self.stats.record(report)
        return data[: arr.size], report

    def _run(self, hw, padded: np.ndarray, pipelined: bool, started: float
             ) -> Tuple[np.ndarray, CallReport]:
        run = run_checked(hw, padded[None], self.policy,
                          pipelined=pipelined, network=self.network)
        return run.data[0], CallReport(
            run.tier, run.attempts, run.retries, run.detections,
            run.fell_back, run.deadline_hits, time.perf_counter() - started)

    def _record_metrics(self, report: CallReport) -> None:
        """Fold one call's report into the global metrics registry
        (only reached when :mod:`repro.obs` is enabled)."""
        reg = obs.OBS.registry
        net = self.network
        reg.counter("repro_supervisor_calls_total",
                    "Supervised sorts by accepted tier",
                    network=net, tier=report.tier).inc()
        if report.fell_back:
            reg.counter("repro_supervisor_fallbacks_total",
                        "Calls resolved below the first tier",
                        network=net, tier=report.tier).inc()
        if report.retries:
            reg.counter("repro_supervisor_retries_total",
                        "Attempts beyond the first per tier",
                        network=net).inc(report.retries)
        if report.deadline_hits:
            reg.counter("repro_supervisor_deadline_hits_total",
                        "Attempts killed by the deadline",
                        network=net).inc(report.deadline_hits)
        for alarm in report.detections:
            reg.counter("repro_supervisor_alarms_total",
                        "Alarm detections by alarm name",
                        network=net, alarm=alarm).inc()
        reg.histogram("repro_supervisor_latency_seconds",
                      "Wall-clock of supervised sorts",
                      network=net).observe(report.latency_s)

# ---------------------------------------------------------------------------
# Shared per-network supervisors (used by core.api.sort_bits)
# ---------------------------------------------------------------------------

_SUPERVISORS: Dict[str, Supervisor] = {}
_SUPERVISORS_LOCK = threading.RLock()


def get_supervisor(network: str = "mux_merger") -> Supervisor:
    """The process-wide shared :class:`Supervisor` for ``network``
    (created on first use; backs ``sort_bits(..., supervised=True)``)."""
    with _SUPERVISORS_LOCK:
        sup = _SUPERVISORS.get(network)
        if sup is None:
            sup = Supervisor(network)
            _SUPERVISORS[network] = sup
        return sup


def reset_supervisors() -> None:
    """Drop all shared supervisors (tests use this for isolation)."""
    with _SUPERVISORS_LOCK:
        _SUPERVISORS.clear()


def supervisor_stats() -> Dict[str, Dict[str, object]]:
    """Snapshot of every shared supervisor's statistics, by network."""
    with _SUPERVISORS_LOCK:
        return {k: s.stats.snapshot() for k, s in _SUPERVISORS.items()}

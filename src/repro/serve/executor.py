"""Checked batch execution for the service: one checked run per batch.

The executor owns the *fabric*: per-width self-checking netlists
(:func:`repro.core.api.make_checked_sorter` — sortedness + ones-count
+ control duplicate-and-compare alarms) built once and reused across
the whole request stream, the pipelined-reuse pattern Piotrów's
periodic merging networks motivate.

Each flushed batch is one :func:`repro.runtime.checked.run_checked`
call with no retries: one pass of the JIT kernel over every lane
(the bit-slice kernel packs a lane per bit, which is where batching
turns into throughput).  A row is accepted when its alarm wires are
quiet and it is monotone with the caller-held input's popcount — a
*complete* check on 0/1 rows, so an accepted row is provably correct.
Rows that fail get the engine and interpreter rungs, then are
**recovered behaviorally** (``np.sort`` of the held input): a
degraded-but-correct answer, never a silent corruption.  The batch's
``tier`` names the deepest rung any row needed: ``jit``, ``engine``
(under ``REPRO_JIT=0``), ``interpreter`` or ``behavioral``.
"""

from __future__ import annotations

import numpy as np

from ..circuits.checkers import CheckedNetlist
from ..core.api import make_checked_sorter, pad_bits
from ..errors import BuildError
from ..runtime.checked import CheckedRun, RecoveryPolicy, run_checked
from .. import obs

__all__ = ["BatchOutcome", "FabricExecutor"]

#: One batch pass: verified rows plus what it took (see
#: :class:`~repro.runtime.checked.CheckedRun`).
BatchOutcome = CheckedRun

#: No retries: a failing rung degrades at once, so a faulty batch costs
#: one pass per rung.
_POLICY = RecoveryPolicy(max_retries=0)


class FabricExecutor:
    """Per-width checked fabric with batch execution and recovery."""

    def __init__(self, network: str = "mux_merger", control: bool = True) -> None:
        from ..core.api import NETWORKS

        if network not in NETWORKS:
            raise BuildError(
                f"unknown network {network!r}; choose one of {NETWORKS}"
            )
        if network == "fish":
            raise BuildError(
                "the service fabric needs a combinational network "
                "(checkers attach directly); choose prefix or mux_merger"
            )
        self.network = network
        self.control = bool(control)

    # -- hardware -------------------------------------------------------------

    def checked(self, width: int) -> CheckedNetlist:
        """The self-checking netlist for ``width`` (the shared
        :func:`~repro.core.api.make_checked_sorter` instance)."""
        if width < 2 or width & (width - 1):
            raise BuildError(f"fabric width must be a power of two >= 2, got {width}")
        return make_checked_sorter(width, self.network, self.control)

    def pad_width(self, n: int) -> int:
        """Fabric width serving an ``n``-bit row (see
        :func:`~repro.core.api.pad_bits`)."""
        return pad_bits(np.empty((0, int(n)), dtype=np.uint8),
                        self.network).shape[1]

    # -- execution ------------------------------------------------------------

    def run_batch(self, width: int, rows: np.ndarray) -> BatchOutcome:
        """Execute one same-width batch with checking and recovery.

        ``rows`` is ``(lanes, width)`` uint8, already padded to the
        fabric width.  Never raises for hardware/checker trouble — every
        failure mode degrades to a behaviorally recovered (correct) row.
        """
        if np.ndim(rows) != 2 or np.shape(rows)[1] != width:
            raise BuildError(f"batch must be (lanes, {width}), got {np.shape(rows)}")
        outcome = run_checked(self.checked(width), rows, _POLICY,
                              network=self.network)
        if obs.OBS.enabled:
            self._record_metrics(width, outcome)
        return outcome

    def _record_metrics(self, width: int, outcome: BatchOutcome) -> None:
        reg = obs.OBS.registry
        net = self.network
        reg.counter("repro_serve_batches_total",
                    "Batches executed by the deepest rung any row needed",
                    network=net, tier=outcome.tier).inc()
        reg.counter("repro_serve_lanes_total",
                    "Fabric lanes executed", network=net).inc(outcome.lanes)
        if outcome.alarms:
            reg.counter("repro_serve_alarm_rows_total",
                        "Batch rows with checker alarms",
                        network=net).inc(outcome.alarms)
        if outcome.recovered:
            reg.counter("repro_serve_recovered_rows_total",
                        "Rows replaced by behavioral recovery",
                        network=net).inc(outcome.recovered)
        reg.histogram("repro_serve_batch_seconds",
                      "Wall-clock per batch pass", network=net,
                      width=width).observe(outcome.wall_s)

"""The asyncio front-end: admission -> coalescing -> checked execution.

:class:`SortingService` is the serving surface over the adaptive
sorting fabric.  A request's life:

1. **Admission** — the request's lane count (1, or ``lg n`` for a
   route) is charged against the :class:`~repro.serve.admission.CreditGate`.
   No credits → an immediate ``shed`` response with a ``retry_after_s``
   hint; the queue is bounded by construction and a flood degrades into
   explicit backpressure, not latency collapse.
2. **Coalescing** — admitted lanes join the per-width buckets of the
   :class:`~repro.serve.coalescer.BatchCoalescer`; a bucket flushes when
   full (``max_lanes``) or when its oldest lane has waited
   ``max_delay_s`` (the age bound — no request starves waiting for a
   fuller batch).
3. **Execution** — each flushed batch is one pass of the
   :class:`~repro.serve.executor.FabricExecutor` on self-checking
   hardware (run on a worker thread so the event loop keeps accepting),
   rows failing the alarm/invariant gates recovered behaviorally.
4. **Completion** — lane futures resolve, credits return to the pool,
   and the response is assembled per kind (sorted row, concentrated
   mask + grant count, or the routed output-port map).

Metrics flow into the :mod:`repro.obs` registry (Prometheus exposition
via ``repro.obs.registry().to_prometheus()``) when observability is
enabled; see docs/SERVING.md for the full metric table and runbook.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.api import pad_bits
from ..errors import BuildError, ReproError
from .admission import CreditGate
from .coalescer import Batch, BatchCoalescer, Lane
from .executor import BatchOutcome, FabricExecutor
from .protocol import KINDS, ServeRequest, ServeResponse, lanes_for

__all__ = ["ServeConfig", "SortingService", "serve_requests"]


@dataclass(frozen=True)
class ServeConfig:
    """Service knobs (environment mapping in docs/SERVING.md).

    ``max_lanes`` is the batch size the coalescer aims for: a healthy
    batch is one pass of the JIT kernel, which packs one lane per bit,
    so larger batches amortize the pass's fixed cost.
    ``credits`` bounds queued + in-flight lanes; with a mean batch
    service time *s* the worst-case queueing delay is roughly
    ``credits / max_lanes * s``, which is the lever for tuning a p99
    SLO.  ``max_delay_s`` is the most latency a lane may spend waiting
    for co-batched lanes.
    """

    network: str = "mux_merger"
    max_lanes: int = 256
    max_delay_s: float = 0.002
    credits: int = 2048
    control_checker: bool = True

    def __post_init__(self) -> None:
        if self.credits < self.max_lanes:
            raise BuildError(
                "credits must cover at least one full batch "
                f"({self.credits} < {self.max_lanes})"
            )


@dataclass
class _LaneTicket:
    """Completion handle carried through the coalescer per lane."""

    future: "asyncio.Future"
    admitted_at: float
    queued_s: float = 0.0


@dataclass
class _LaneResult:
    row: np.ndarray
    accepted: bool
    tier: str
    batch_lanes: int
    queued_s: float
    service_s: float


class SortingService:
    """Async sort/route/concentrate service over one checked fabric.

    Use as an async context manager::

        async with SortingService(ServeConfig(max_lanes=128)) as svc:
            resp = await svc.submit(sort_request(bits))

    or start()/stop() explicitly.  ``submit`` is safe to call from many
    tasks concurrently; the fabric executes batches on a single worker
    thread (one fabric, pipelined reuse) while the loop keeps admitting.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.gate = CreditGate(self.config.credits)
        self.coalescer = BatchCoalescer(
            max_lanes=self.config.max_lanes,
            max_delay_s=self.config.max_delay_s,
        )
        self.executor = FabricExecutor(
            self.config.network, control=self.config.control_checker
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool = None  # ThreadPoolExecutor(1): the fabric thread
        self._task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._ready: Deque[Batch] = deque()
        self._running = False
        self._ema_lane_s = 1e-4  # per-lane service time estimate (EMA)
        self.stats: Dict[str, int] = {
            "requests": 0, "ok": 0, "shed": 0, "error": 0,
            "batches": 0, "lanes": 0, "recovered": 0, "alarms": 0,
        }

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        if self._running:
            return
        import concurrent.futures

        self._loop = asyncio.get_running_loop()
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-fabric"
        )
        self._wake = asyncio.Event()
        self._running = True
        self._task = self._loop.create_task(self._batch_loop())

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._wake.set()
        await self._task
        # Drain whatever is still queued so no submitter hangs.
        for batch in self.coalescer.drain(self._now()):
            await self._execute(batch)
        while self._ready:
            await self._execute(self._ready.popleft())
        self._pool.shutdown(wait=True)
        self._task = None

    async def __aenter__(self) -> "SortingService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def _now(self) -> float:
        return self._loop.time() if self._loop else time.monotonic()

    # -- submission -----------------------------------------------------------

    async def submit(self, request: ServeRequest) -> ServeResponse:
        """Serve one request; always returns a response, never raises
        for load or hardware trouble (``shed``/``error`` statuses)."""
        if not self._running:
            raise BuildError("service is not started (use 'async with' or start())")
        if request.kind not in KINDS:
            return self._finish(ServeResponse(
                status="error", kind=str(request.kind), tag=request.tag,
                error=f"unknown kind {request.kind!r}",
            ))
        t0 = self._now()
        n_lanes = lanes_for(request)
        if not self.gate.try_acquire(n_lanes):
            return self._finish(ServeResponse(
                status="shed", kind=request.kind, tag=request.tag,
                retry_after_s=self._retry_hint(),
                credits_left=self.gate.available,
                total_s=self._now() - t0,
            ))
        try:
            rows = self._lanes(request)
            tickets = []
            for width, row in rows:
                fut = self._loop.create_future()
                ticket = _LaneTicket(future=fut, admitted_at=t0)
                tickets.append(ticket)
                for batch in self.coalescer.add(
                    Lane(width=width, bits=row, ticket=ticket), t0
                ):
                    self._ready.append(batch)
            self._wake.set()
            results: List[_LaneResult] = [await t.future for t in tickets]
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # lane build/execution trouble -> error resp
            self.gate.release(n_lanes)
            return self._finish(ServeResponse(
                status="error", kind=request.kind, tag=request.tag,
                error=repr(exc), total_s=self._now() - t0,
            ))
        self.gate.release(n_lanes)
        response = self._assemble(request, results)
        response.total_s = self._now() - t0
        response.credits_left = self.gate.available
        return self._finish(response)

    async def submit_many(
        self, requests: Sequence[ServeRequest]
    ) -> List[ServeResponse]:
        """Submit a burst concurrently; responses in request order."""
        return list(await asyncio.gather(
            *(self.submit(r) for r in requests)
        ))

    # -- internals ------------------------------------------------------------

    def _lanes(self, request: ServeRequest) -> List[Tuple[int, np.ndarray]]:
        """Expand a request into (width, padded-row) fabric lanes."""
        if request.kind == "route":
            from ..workloads.models import permutation_bit_planes

            return [
                (request.n, plane)
                for plane in permutation_bit_planes(request.payload)
            ]
        row = pad_bits(request.payload, self.executor.network)
        return [(row.size, row)]

    def _retry_hint(self) -> float:
        """Suggested backoff: time to drain the in-flight lanes at the
        current per-lane service rate, floored at one coalescing window."""
        return max(
            self.config.max_delay_s,
            self.gate.in_flight * self._ema_lane_s,
        )

    async def _batch_loop(self) -> None:
        while self._running:
            while self._ready:
                await self._execute(self._ready.popleft())
            now = self._now()
            for batch in self.coalescer.poll(now):
                await self._execute(batch)
            if self._ready:
                continue
            deadline = self.coalescer.next_deadline()
            timeout = None if deadline is None else max(0.0, deadline - self._now())
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()

    async def _execute(self, batch: Batch) -> None:
        started = self._now()
        rows = batch.rows()
        try:
            outcome: BatchOutcome = await self._loop.run_in_executor(
                self._pool, self.executor.run_batch, batch.width, rows
            )
        except Exception as exc:  # config-level trouble: fail the lanes
            for lane in batch.lanes:
                if not lane.ticket.future.done():
                    lane.ticket.future.set_exception(
                        exc if isinstance(exc, ReproError) else ReproError(repr(exc))
                    )
            return
        per_lane = outcome.wall_s / max(1, len(batch))
        self._ema_lane_s = 0.8 * self._ema_lane_s + 0.2 * per_lane
        self.stats["batches"] += 1
        self.stats["lanes"] += len(batch)
        self.stats["recovered"] += outcome.recovered
        self.stats["alarms"] += outcome.alarms
        if obs.OBS.enabled:
            self._record_batch_metrics(batch, outcome)
        for i, lane in enumerate(batch.lanes):
            ticket: _LaneTicket = lane.ticket
            if ticket.future.done():
                continue
            ticket.future.set_result(_LaneResult(
                row=outcome.data[i],
                accepted=bool(outcome.accepted[i]),
                tier=outcome.tier,
                batch_lanes=len(batch),
                queued_s=max(0.0, started - ticket.admitted_at),
                service_s=per_lane,
            ))

    def _assemble(
        self, request: ServeRequest, results: List[_LaneResult]
    ) -> ServeResponse:
        queued_s = max(r.queued_s for r in results)
        service_s = sum(r.service_s for r in results)
        batch_lanes = max(r.batch_lanes for r in results)
        # A lane the hardware did not answer names the rung that did.
        detections = tuple(dict.fromkeys(r.tier for r in results if not r.accepted))
        base = dict(
            status="ok", kind=request.kind, tag=request.tag,
            queued_s=queued_s, service_s=service_s, batch_lanes=batch_lanes,
            recovered=bool(detections), detections=detections,
        )
        n = request.n
        if request.kind == "sort":
            return ServeResponse(result=results[0].row[:n], **base)
        if request.kind == "concentrate":
            concentrated = results[0].row[:n][::-1].copy()
            return ServeResponse(
                result=concentrated,
                granted=int(request.payload.sum()),
                **base,
            )
        # route: the fabric sorted (and verified) every destination
        # bit-plane; the output-port map is the LSD radix cascade over
        # those planes — stable partition by each plane in turn, exactly
        # the movement Fig. 10's distributor stages perform.
        perm = request.payload
        order = np.arange(n, dtype=np.int64)
        for b in range(len(results)):
            bits = (perm[order] >> b) & 1
            order = order[np.argsort(bits, kind="stable")]
        if not np.array_equal(perm[order], np.arange(n)):
            # Cannot happen for a validated permutation, but the service
            # never returns an unverified route.
            return ServeResponse(
                status="error", kind=request.kind, tag=request.tag,
                error="route assembly failed validation",
            )
        return ServeResponse(result=order, **base)

    def _finish(self, response: ServeResponse) -> ServeResponse:
        self.stats["requests"] += 1
        self.stats[response.status] = self.stats.get(response.status, 0) + 1
        if obs.OBS.enabled:
            reg = obs.OBS.registry
            reg.counter("repro_serve_requests_total",
                        "Service requests by kind and status",
                        kind=response.kind, status=response.status).inc()
            if response.shed:
                reg.counter("repro_serve_shed_total",
                            "Requests refused by admission control",
                            kind=response.kind).inc()
            else:
                reg.histogram("repro_serve_request_latency_seconds",
                              "End-to-end request latency",
                              kind=response.kind).observe(response.total_s)
            reg.gauge("repro_serve_queue_depth",
                      "Lanes queued in the coalescer").set(self.coalescer.depth)
            reg.gauge("repro_serve_credits_available",
                      "Admission credits currently free").set(self.gate.available)
        return response

    def _record_batch_metrics(self, batch: Batch, outcome: BatchOutcome) -> None:
        reg = obs.OBS.registry
        reg.histogram("repro_serve_batch_fill",
                      "Flushed batch fill fraction (lanes / max_lanes)",
                      reason=batch.reason).observe(batch.fill)
        reg.histogram("repro_serve_batch_lanes",
                      "Lanes per executed batch").observe(len(batch))
        obs.trace_event("serve.batch", width=batch.width, lanes=len(batch),
                        reason=batch.reason, tier=outcome.tier,
                        recovered=outcome.recovered, wall_s=outcome.wall_s)


def serve_requests(
    requests: Sequence[ServeRequest],
    config: Optional[ServeConfig] = None,
) -> List[ServeResponse]:
    """Synchronous convenience: start a service, submit a burst, stop.

    For scripts and tests; long-lived callers should manage a
    :class:`SortingService` inside their own event loop.
    """
    async def _run() -> List[ServeResponse]:
        async with SortingService(config) as svc:
            return await svc.submit_many(requests)

    return asyncio.run(_run())

"""Sorting/routing as a service: async batching front-end for the fabric.

The paper's Section IV applications — concentrators and the Fig. 10
radix permuter — are a switching fabric; :mod:`repro.serve` serves
them.  An asyncio :class:`SortingService` accepts **sort / concentrate
/ route** requests, coalesces them into batches (the JIT kernel packs
one lane per bit — batching is free throughput), executes each batch
on self-checking hardware through the checked-run path
(:func:`repro.runtime.run_checked`: one JIT pass when healthy, the
degradation ladder when not), and applies **credit-based admission
control**: bounded queues, explicit ``shed`` responses with retry
hints, never unbounded latency.  The request framing and credit loop
follow the zamlet NoC switch exemplar (header-routed packets,
per-output occupancy, credit flow control).

Quick start::

    import asyncio
    from repro.serve import ServeConfig, SortingService, sort_request

    async def main():
        async with SortingService(ServeConfig(max_lanes=128)) as svc:
            resp = await svc.submit(sort_request([1, 0, 1, 1, 0]))
            print(resp.status, resp.result)

    asyncio.run(main())

Drive it under load with ``tools/loadgen.py`` (arrival models from
:mod:`repro.workloads`, latency percentiles to ``BENCH_serve.json``).
Architecture, ops runbook, and measured numbers: docs/SERVING.md.
"""

from .admission import CreditGate
from .coalescer import Batch, BatchCoalescer, Lane
from .executor import BatchOutcome, FabricExecutor
from .protocol import (
    KINDS,
    ServeRequest,
    ServeResponse,
    concentrate_request,
    lanes_for,
    route_request,
    sort_request,
)
from .service import ServeConfig, SortingService, serve_requests

__all__ = [
    "Batch",
    "BatchCoalescer",
    "BatchOutcome",
    "CreditGate",
    "FabricExecutor",
    "KINDS",
    "Lane",
    "ServeConfig",
    "ServeRequest",
    "ServeResponse",
    "SortingService",
    "concentrate_request",
    "lanes_for",
    "route_request",
    "serve_requests",
    "sort_request",
]

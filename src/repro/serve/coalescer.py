"""Batch coalescer: turn a request trickle into engine-sized batches.

A healthy batch is one pass of the JIT kernel, which packs one lane
per bit, so a pass's fixed costs amortize over the whole batch and
coalescing same-width lanes into one pass is free throughput.  The
coalescer keeps one bucket per padded width and
flushes a bucket when either

* it reaches ``max_lanes`` (a full batch — flush immediately), or
* its **oldest** lane has waited ``max_delay_s`` (the age bound: a lane
  is never held longer than one coalescing window, no matter how empty
  its bucket is — the no-starvation property ``tests/test_serve.py``
  proves).

The class is deliberately synchronous and clock-parameterized (every
method takes ``now``): the asyncio service drives it with the loop's
clock, while property tests drive it with a virtual clock and exhaust
the flush logic deterministically.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..errors import BuildError

__all__ = ["Batch", "BatchCoalescer", "Lane"]


@dataclass(frozen=True)
class Lane:
    """One fabric lane: a width-padded 0/1 row plus an opaque ticket the
    service uses to find the waiting request again."""

    width: int  #: padded power-of-two width
    bits: np.ndarray  #: uint8 row of exactly ``width`` entries
    ticket: Any = None  #: opaque completion handle (e.g. an asyncio Future)


@dataclass(frozen=True)
class Batch:
    """A flushed group of same-width lanes, ready for one checked fabric pass."""

    width: int
    lanes: Tuple[Lane, ...]
    reason: str  #: ``"full"`` | ``"age"`` | ``"drain"``
    oldest_age_s: float  #: wait of the longest-queued lane at flush time
    fill: float  #: ``len(lanes) / max_lanes`` — the batch-fill metric

    def __len__(self) -> int:
        return len(self.lanes)

    def rows(self) -> np.ndarray:
        """Stack the lanes into the ``(lanes, width)`` engine batch."""
        return np.stack([lane.bits for lane in self.lanes]).astype(np.uint8)


class BatchCoalescer:
    """Per-width lane buckets with size- and age-triggered flushing."""

    def __init__(self, max_lanes: int = 256, max_delay_s: float = 0.002) -> None:
        if max_lanes < 1:
            raise BuildError("max_lanes must be >= 1")
        if max_delay_s < 0:
            raise BuildError("max_delay_s must be >= 0")
        self.max_lanes = int(max_lanes)
        self.max_delay_s = float(max_delay_s)
        # width -> deque of (enqueue_time, Lane); OrderedDict so flush
        # order across widths is deterministic (insertion order).
        self._buckets: "OrderedDict[int, Deque[Tuple[float, Lane]]]" = OrderedDict()
        self._depth = 0

    # -- state ---------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Total queued lanes across all width buckets."""
        return self._depth

    def next_deadline(self) -> Optional[float]:
        """Earliest time any bucket must age-flush, or ``None`` if empty."""
        oldest = None
        for bucket in self._buckets.values():
            if bucket:
                t0 = bucket[0][0]
                if oldest is None or t0 < oldest:
                    oldest = t0
        return None if oldest is None else oldest + self.max_delay_s

    # -- mutation ------------------------------------------------------------

    def add(self, lane: Lane, now: float) -> List[Batch]:
        """Enqueue one lane; returns any batches that became full."""
        if lane.width < 1 or lane.bits.size != lane.width:
            raise BuildError(
                f"lane bits must match its width ({lane.bits.size} != {lane.width})"
            )
        bucket = self._buckets.get(lane.width)
        if bucket is None:
            bucket = deque()
            self._buckets[lane.width] = bucket
        bucket.append((now, lane))
        self._depth += 1
        if len(bucket) >= self.max_lanes:
            return [self._flush_bucket(lane.width, now, "full")]
        return []

    def poll(self, now: float) -> List[Batch]:
        """Flush every bucket whose oldest lane has aged out."""
        out = []
        for width in list(self._buckets):
            bucket = self._buckets[width]
            if bucket and now - bucket[0][0] >= self.max_delay_s:
                out.append(self._flush_bucket(width, now, "age"))
        return out

    def drain(self, now: float) -> List[Batch]:
        """Flush everything regardless of age (service shutdown)."""
        return [
            self._flush_bucket(width, now, "drain")
            for width in list(self._buckets)
            if self._buckets[width]
        ]

    def _flush_bucket(self, width: int, now: float, reason: str) -> Batch:
        bucket = self._buckets[width]
        taken = []
        while bucket and len(taken) < self.max_lanes:
            taken.append(bucket.popleft())
        if not bucket:
            del self._buckets[width]
        self._depth -= len(taken)
        oldest_age = now - taken[0][0] if taken else 0.0
        return Batch(
            width=width,
            lanes=tuple(lane for _, lane in taken),
            reason=reason,
            oldest_age_s=max(0.0, oldest_age),
            fill=len(taken) / self.max_lanes,
        )

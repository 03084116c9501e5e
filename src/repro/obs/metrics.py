"""Thread-safe metrics registry: counters, gauges, histograms.

A deliberately small, zero-dependency metrics core in the shape of the
usual production clients (prometheus_client, OpenTelemetry): named
instruments with optional label sets, a process-wide registry, and two
export formats —

* :meth:`MetricsRegistry.snapshot` — a plain JSON-able dict, the format
  the campaign tools persist next to their result files;
* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` + one line per sample), so a scrape
  endpoint or a textfile collector can ingest the same numbers.

Every :class:`Histogram` shares one log-bucketed scheme, so its
quantiles are within :data:`REL_ERR` of the exact ones and histograms
from any two registries merge bucket for bucket.

Every mutation takes the registry lock; instruments are cheap enough
that the instrumented hot paths (one counter bump per *fused step*, not
per element) stay far below the noise floor — see
``benchmarks/bench_observability_overhead.py``.

Instruments are created lazily and idempotently::

    from repro.obs import metrics as m
    reg = m.MetricsRegistry()
    reg.counter("engine_executions_total", mode="packed").inc()
    reg.histogram("engine_execute_seconds").observe(0.0021)
    print(reg.to_prometheus())
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, Iterable, List, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REL_ERR",
]

#: Relative error of every :meth:`Histogram.quantile` (1%).  It fixes
#: the one bucket scheme all histograms share.
REL_ERR = 0.01

_GAMMA = (1.0 + REL_ERR) / (1.0 - REL_ERR)
_LOG_GAMMA = math.log(_GAMMA)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_pairs(labels: Dict[str, object]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(pairs: LabelPairs) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


class _Instrument:
    """Base: a named instrument bound to one label set."""

    kind = "untyped"

    def __init__(self, name: str, pairs: LabelPairs, lock: threading.Lock):
        self.name = name
        self.pairs = pairs
        self._lock = lock


class Counter(_Instrument):
    """Monotonically increasing counter."""

    kind = "counter"

    def __init__(self, name, pairs, lock):
        super().__init__(name, pairs, lock)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self.value += amount


class Gauge(_Instrument):
    """Last-written value (can go up and down)."""

    kind = "gauge"

    def __init__(self, name, pairs, lock):
        super().__init__(name, pairs, lock)
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram(_Instrument):
    """Log-bucketed histogram whose quantiles carry a relative error bound.

    Bucket ``i`` holds the values in ``(γ^(i-1), γ^i]``, with
    ``γ = (1 + REL_ERR) / (1 - REL_ERR)``; one extra bucket holds values
    <= 0.  Only occupied buckets are stored, so the scheme needs no
    range or bucket list from the caller.  ``observe`` is O(1);
    :meth:`quantile` answers within :data:`REL_ERR` of the exact order
    statistic, and two histograms merge by adding counts per bucket
    index (the DDSketch construction: Masson, Rim & Lee, VLDB 2019).
    """

    kind = "histogram"

    def __init__(self, name, pairs, lock):
        super().__init__(name, pairs, lock)
        self.counts: Dict[int, int] = {}  #: bucket index -> count
        self.zero_count = 0  #: values <= 0
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value > 0.0:
                i = math.ceil(math.log(value) / _LOG_GAMMA)
                self.counts[i] = self.counts.get(i, 0) + 1
            else:
                self.zero_count += 1

    def quantile(self, q: float) -> float:
        """The ``q``-quantile, within :data:`REL_ERR` of the order
        statistic of rank ``floor(q * (count - 1))`` (numpy's
        ``method="lower"``): bucket ``i`` reports ``2γ^i / (γ + 1)``,
        values <= 0 report 0.  An empty histogram reports 0."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile needs 0 <= q <= 1, got {q}")
        with self._lock:
            rank = math.floor(q * (self.count - 1))
            seen = self.zero_count
            if rank < seen:
                return 0.0
            for i in sorted(self.counts):
                seen += self.counts[i]
                if rank < seen:
                    return 2.0 * _GAMMA ** i / (_GAMMA + 1.0)
        return 0.0

    def cumulative(self) -> List[Tuple[float, int]]:
        """``[(upper_bound, cumulative_count), ...]`` over the occupied
        buckets (``0.0`` for the <= 0 bucket, ``γ^i`` for bucket ``i``),
        ending at ``+Inf``."""
        with self._lock:
            out, running = [], self.zero_count
            if running:
                out.append((0.0, running))
            for i in sorted(self.counts):
                running += self.counts[i]
                out.append((_GAMMA ** i, running))
            out.append((math.inf, self.count))
        return out


class MetricsRegistry:
    """Thread-safe collection of named, labelled instruments.

    One registry is process-global (``repro.obs.registry()``); tests and
    tools may build private ones.  ``counter``/``gauge``/``histogram``
    get-or-create: the same (name, labels) always returns the same
    instrument, and a name can only be used with one instrument kind.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelPairs], _Instrument] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    # -- get-or-create --------------------------------------------------------

    def _get(self, cls, name: str, help: str,
             labels: Dict[str, object]) -> _Instrument:
        pairs = _label_pairs(labels)
        key = (name, pairs)
        with self._lock:
            seen = self._kinds.get(name)
            if seen is not None and seen != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {seen}"
                )
            inst = self._metrics.get(key)
            if inst is None:
                inst = cls(name, pairs, self._lock)
                self._metrics[key] = inst
                self._kinds[name] = cls.kind
                if help:
                    self._help[name] = help
            return inst

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "", **labels) -> Histogram:
        return self._get(Histogram, name, help, labels)

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def reset(self) -> None:
        """Drop every instrument (tests and tool re-runs)."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()
            self._help.clear()

    def _sorted_items(self) -> List[Tuple[Tuple[str, LabelPairs], _Instrument]]:
        with self._lock:
            return sorted(self._metrics.items(), key=lambda kv: kv[0])

    # -- cross-process merging ------------------------------------------------

    def dump_state(self) -> List[Dict[str, object]]:
        """Structured, picklable state for cross-process merging.

        Worker processes (see :mod:`repro.parallel`) dump their private
        registry on exit and ship it to the parent, which folds it in
        with :meth:`merge_state` — counters and histograms *add*,
        gauges take the incoming value (last writer wins).
        """
        out: List[Dict[str, object]] = []
        for (name, pairs), inst in self._sorted_items():
            entry: Dict[str, object] = {
                "name": name,
                "kind": inst.kind,
                "labels": dict(pairs),
                "help": self._help.get(name, ""),
            }
            if isinstance(inst, Histogram):
                with self._lock:
                    entry["zero_count"] = inst.zero_count
                    entry["buckets"] = [[i, c] for i, c
                                        in sorted(inst.counts.items())]
                    entry["count"] = inst.count
                    entry["sum"] = inst.sum
            else:
                entry["value"] = inst.value
            out.append(entry)
        return out

    def merge_state(self, state: Iterable[Dict[str, object]]) -> None:
        """Fold a :meth:`dump_state` payload from another process in.

        Counter values and histogram bucket counts (by bucket index)
        are added; gauges are overwritten.
        """
        for entry in state:
            name = str(entry["name"])
            kind = entry.get("kind", "counter")
            labels = dict(entry.get("labels", {}))
            help_text = str(entry.get("help", ""))
            if kind == "counter":
                self.counter(name, help_text, **labels).inc(
                    float(entry.get("value", 0.0))
                )
            elif kind == "gauge":
                self.gauge(name, help_text, **labels).set(
                    float(entry.get("value", 0.0))
                )
            elif kind == "histogram":
                hist = self.histogram(name, help_text, **labels)
                with self._lock:
                    hist.zero_count += int(entry.get("zero_count", 0))
                    for i, c in entry.get("buckets", ()):
                        i = int(i)
                        hist.counts[i] = hist.counts.get(i, 0) + int(c)
                    hist.count += int(entry.get("count", 0))
                    hist.sum += float(entry.get("sum", 0.0))
            else:
                raise ValueError(f"unknown instrument kind {kind!r}")

    # -- exporters ------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-able dict: one entry per (name, labels) series."""
        out: Dict[str, object] = {}
        for (name, pairs), inst in self._sorted_items():
            key = name + _format_labels(pairs)
            if isinstance(inst, Histogram):
                out[key] = {
                    "type": "histogram",
                    "count": inst.count,
                    "sum": inst.sum,
                    "buckets": [
                        ["+Inf" if math.isinf(b) else b, c]
                        for b, c in inst.cumulative()
                    ],
                }
            else:
                out[key] = {"type": inst.kind, "value": inst.value}
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent) + "\n"

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        emitted_header = set()
        for (name, pairs), inst in self._sorted_items():
            if name not in emitted_header:
                help_text = self._help.get(name, "")
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {inst.kind}")
                emitted_header.add(name)
            if isinstance(inst, Histogram):
                for bound, cum in inst.cumulative():
                    le = "+Inf" if math.isinf(bound) else repr(bound)
                    bucket_pairs = pairs + (("le", le),)
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_pairs)} {cum}"
                    )
                lines.append(f"{name}_sum{_format_labels(pairs)} {inst.sum}")
                lines.append(f"{name}_count{_format_labels(pairs)} {inst.count}")
            else:
                lines.append(f"{name}{_format_labels(pairs)} {inst.value}")
        return "\n".join(lines) + "\n"

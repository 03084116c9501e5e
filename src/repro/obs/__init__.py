"""Observability for the reproduction: metrics, tracing, switch activity.

``repro.obs`` is the zero-required-dependency observability layer the
rest of the package reports into:

* a process-global **metrics registry** (:mod:`repro.obs.metrics`) —
  counters, gauges, histograms with labels; JSON and Prometheus-text
  export; every histogram quantile is within :data:`REL_ERR` (1%);
* **span tracing** (:mod:`repro.obs.tracing`) — nestable
  :func:`trace_span` / :func:`trace_event` emitting JSON-lines records
  with monotonic timestamps into a ring buffer and/or a crash-safe
  append-only file;
* **switch-activity profiling** (:mod:`repro.obs.activity`) — per-element
  toggle counts for every routing element and tagged steering wire, the
  empirical counterpart of the paper's adaptive control (Table I).

Everything is **off by default** and adds <2% overhead while off (the
hot paths check one flag; see
``benchmarks/bench_observability_overhead.py``).  Turn it on
programmatically::

    import repro.obs as obs
    obs.enable(trace_path="trace.jsonl")   # tracing + metrics + activity
    ... run simulations ...
    obs.export_metrics("metrics.prom")     # activity -> trace, metrics -> file
    obs.disable()

or from the environment, with no code changes::

    REPRO_OBS=1 REPRO_OBS_TRACE=trace.jsonl python tools/sweep.py ...

then read the trace with ``tools/trace_report.py``.

Instrumented call sites (all gated on :func:`enabled`):

======================  ====================================================
where                   what is recorded
======================  ====================================================
``circuits.engine``     ``engine.execute`` spans with per-(level, kind)
                        kernel timings and gather/scatter byte counts;
                        switch-activity accumulation per plan
``circuits.simulate``   ``interp.execute`` spans for the oracle
                        interpreters (engine spans cover ``simulate``)
``circuits.jit``        ``jit.compile`` / ``jit.execute`` spans,
                        ``jit.cache_hit`` events, plus a
                        ``repro_jit_codegen_seconds`` histogram and
                        compile/hit/execution counters — the inputs to
                        ``tools/trace_report.py``'s compile-amortization
                        section
``runtime.supervisor``  ``supervisor.sort`` spans plus an instant event
                        for every alarm / deadline / retry / degradation
                        / acceptance decision
``tools/sweep.py``      ``sweep.item`` spans, quarantine events
``tools/fault_…py``     ``campaign.item`` spans, quarantine events
======================  ====================================================

The differential guarantee — instrumentation never changes simulation
outputs — is property-tested in ``tests/test_obs_differential.py``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from .activity import (
    ActivityProfile,
    activity_profiles,
    record_execution,
    reset_activity,
    summarize_profile,
)
from .metrics import REL_ERR, Counter, Gauge, Histogram, MetricsRegistry
from .tracing import (
    FileSink,
    RingBufferSink,
    TraceReadResult,
    Tracer,
    merge_shards,
    read_trace,
    shard_paths,
)

__all__ = [
    "ActivityProfile",
    "Counter",
    "FileSink",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS",
    "REL_ERR",
    "RingBufferSink",
    "TraceReadResult",
    "Tracer",
    "activity_profiles",
    "activity_summary",
    "counter",
    "disable",
    "enable",
    "enabled",
    "export_metrics",
    "flush_activity",
    "histogram",
    "merge_shards",
    "merge_trace_shards",
    "read_trace",
    "shard_paths",
    "trace_paths",
    "record_execution",
    "registry",
    "reset",
    "reset_activity",
    "ring_events",
    "summarize_profile",
    "trace_event",
    "trace_span",
    "tracer",
]

#: Environment variables honoured at import time.
ENV_ENABLE = "REPRO_OBS"
ENV_TRACE = "REPRO_OBS_TRACE"


class _ObsState:
    """The one mutable switchboard the instrumented hot paths consult.

    ``enabled`` is the master flag — reading it is the *only* cost the
    disabled configuration pays on hot paths (callers guard with
    ``if OBS.enabled:`` before building spans or attrs).  ``activity``
    additionally gates switch-activity accumulation, which is the
    costliest collector.
    """

    __slots__ = ("enabled", "activity", "registry", "tracer", "ring")

    def __init__(self) -> None:
        self.enabled = False
        self.activity = True
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.ring: Optional[RingBufferSink] = None

    def __repr__(self) -> str:
        return (f"<obs {'enabled' if self.enabled else 'disabled'}, "
                f"{len(self.tracer.sinks)} sinks, "
                f"{len(self.registry)} metrics>")


OBS = _ObsState()


def enable(trace_path=None, *, activity: bool = True,
           ring_capacity: int = 4096) -> None:
    """Turn observability on.

    ``trace_path`` adds a crash-safe JSON-lines :class:`FileSink` (the
    file is appended to, so several runs may share it).  ``activity``
    gates switch-activity profiling; ``ring_capacity`` sizes the
    in-memory ring buffer (pass 0 to skip it).
    """
    if ring_capacity and OBS.ring is None:
        OBS.ring = RingBufferSink(ring_capacity)
        OBS.tracer.add_sink(OBS.ring)
    if trace_path is not None:
        paths = {getattr(s, "path", None) for s in OBS.tracer.sinks}
        if os.fspath(trace_path) not in paths:
            OBS.tracer.add_sink(FileSink(trace_path))
    OBS.activity = activity
    OBS.enabled = True


def disable() -> None:
    """Turn observability off (keeps collected data for inspection)."""
    OBS.enabled = False


def enabled() -> bool:
    """Whether instrumentation is currently on."""
    return OBS.enabled


def reset() -> None:
    """Disable and drop all sinks, metrics, and activity profiles."""
    OBS.enabled = False
    OBS.tracer.clear_sinks()
    OBS.ring = None
    OBS.registry.reset()
    reset_activity()


# -- metrics conveniences -----------------------------------------------------

def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return OBS.registry


def counter(name: str, help: str = "", **labels) -> Counter:
    return OBS.registry.counter(name, help, **labels)


def histogram(name: str, help: str = "", **labels) -> Histogram:
    return OBS.registry.histogram(name, help, **labels)


# -- tracing conveniences -----------------------------------------------------

def tracer() -> Tracer:
    """The process-global tracer."""
    return OBS.tracer


@contextmanager
def trace_span(name: str, **attrs) -> Iterator[Dict[str, Any]]:
    """Span on the global tracer; a plain pass-through when disabled."""
    if not OBS.enabled:
        yield attrs
        return
    with OBS.tracer.span(name, **attrs) as a:
        yield a


def trace_event(name: str, **attrs) -> None:
    """Instant event on the global tracer; no-op when disabled."""
    if OBS.enabled:
        OBS.tracer.event(name, **attrs)


def ring_events() -> List[Dict[str, Any]]:
    """Records currently held by the in-memory ring sink."""
    return OBS.ring.events() if OBS.ring is not None else []


def trace_paths() -> List[str]:
    """Base paths of every :class:`FileSink` attached to the tracer."""
    return [
        s._base_path for s in OBS.tracer.sinks if isinstance(s, FileSink)
    ]


def merge_trace_shards(remove: bool = True) -> int:
    """Fold forked workers' per-pid trace shards into every attached
    :class:`FileSink`'s base file (see :func:`tracing.merge_shards`).
    The parent of a :mod:`repro.parallel` pool calls this after the
    workers exit; returns the number of records merged."""
    merged = 0
    for base in trace_paths():
        merged += merge_shards(base, remove=remove)
    return merged


# -- activity conveniences ----------------------------------------------------

def activity_summary() -> Dict[str, Dict[str, Any]]:
    """Summaries of every accumulated activity profile, by netlist."""
    return {
        name: summarize_profile(prof)
        for name, prof in sorted(activity_profiles().items())
    }


def flush_activity() -> Dict[str, Dict[str, Any]]:
    """Emit one ``engine.activity`` event per profile to the trace
    stream and return the summaries.  Long-running tools call this
    before exiting so ``tools/trace_report.py`` can render the heatmap
    from the trace file alone."""
    summaries = activity_summary()
    if OBS.tracer.sinks:
        for summary in summaries.values():
            OBS.tracer.event("engine.activity", **summary)
    return summaries


def export_metrics(path=None) -> None:
    """The tools' exit epilogue: :func:`flush_activity`, then write the
    registry to ``path`` (if given) — Prometheus text when the name ends
    in ``.prom``, JSON otherwise.  A no-op while disabled."""
    if not OBS.enabled:
        return
    flush_activity()
    if path is None:
        return
    from ..ioutil import atomic_write_text

    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    atomic_write_text(path, OBS.registry.to_prometheus()
                      if os.fspath(path).endswith(".prom")
                      else OBS.registry.to_json())


# -- environment opt-in -------------------------------------------------------

def _env_truthy(value: Optional[str]) -> bool:
    return bool(value) and value.strip().lower() not in ("0", "false", "no", "off")


_env_trace = os.environ.get(ENV_TRACE)
if _env_truthy(os.environ.get(ENV_ENABLE)) or _env_trace:
    enable(trace_path=_env_trace or None)

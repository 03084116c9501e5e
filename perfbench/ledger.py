"""Per-layer ledger: spans around the program's public entry points.

The traced run wraps each layer's entry point from the benchmark side
(no file under ``src/`` is touched): a wrapper notes start and end on a
per-thread span stack, charges its duration to the enclosing span, and
folds calls, total time and self time (total minus time in wrapped
children) into per-(phase, layer) aggregates.  A few wrappers also keep
what a layer returned (batch outcomes, supervisor reports, flush
reasons) or join serve lanes to the request that submitted them, so
the per-layer metrics in ``run.py`` can be computed where the work
happens.

Spans are recorded only while ``Ledger.phase`` is set, so set-up work is
kept apart from the timed phases.
"""

from __future__ import annotations

import contextvars
import importlib
import sys
import threading
import time
from collections import defaultdict

perf = time.perf_counter

#: The serve request whose ``submit`` is running in the current task; the
#: coalescer wrapper uses it to join lanes to requests.
REQUEST = contextvars.ContextVar("perfbench_request", default=None)


class Agg:
    """Calls, total seconds and self seconds of one layer in one phase."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Ledger:
    def __init__(self):
        self.phase = None
        self.aggs = defaultdict(Agg)  # (phase, layer) -> Agg
        self.items = defaultdict(list)  # (phase, key) -> per-call values
        self._local = threading.local()
        self._undo = []
        # serve joins: lane -> (request record, add time); rows -> batch record
        self._lanes = {}
        self._batch_recs = {}
        self._rows = {}

    # -- spans ------------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn, after=None):
        """Return ``fn`` wrapped in a span named ``layer``; ``after(args,
        result, seconds, start)`` runs on success while a phase is set."""
        ledger = self

        def wrapper(*args, **kwargs):
            phase = ledger.phase
            if phase is None:
                return fn(*args, **kwargs)
            stack = ledger._stack()
            frame = [0.0]  # seconds spent in wrapped children
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                agg = ledger.aggs[(phase, layer)]
                agg.calls += 1
                agg.total_s += dur
                agg.self_s += dur - frame[0]
            if after is not None:
                after(args, result, dur, t0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def note(self, key, value):
        if self.phase is not None:
            self.items[(self.phase, key)].append(value)

    def patch_function(self, module, name, layer, after=None):
        """Wrap ``module.name`` and every ``repro`` module attribute bound
        to the same function object (``from x import name`` copies)."""
        orig = getattr(module, name)
        wrapped = self.wrap(layer, orig, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    getattr(mod, name, None) is orig:
                setattr(mod, name, wrapped)
                self._undo.append((mod, name, orig))

    def patch_method(self, cls, name, layer, after=None):
        orig = cls.__dict__[name]
        setattr(cls, name, self.wrap(layer, orig, after))
        self._undo.append((cls, name, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    # -- installation -------------------------------------------------------------

    def install(self):
        from repro.circuits import jit
        from repro.core import api
        from repro.networks.permutation import RadixPermuter
        from repro.runtime.supervisor import Supervisor
        from repro.serve.admission import CreditGate
        from repro.serve.coalescer import Batch, BatchCoalescer
        from repro.serve.executor import FabricExecutor
        from repro.serve.service import SortingService

        # The module, not the function ``repro.circuits`` re-exports.
        sim = importlib.import_module("repro.circuits.simulate")

        def sim_after(args, result, dur, t0):
            self.note("sim_rows", int(getattr(result, "shape", (1,))[0]))

        for name in ("simulate", "simulate_engine", "simulate_jit",
                     "simulate_interpreted", "simulate_payload"):
            self.patch_function(sim, name, "circuits.simulate", sim_after)
        self.patch_method(jit.JitPlan, "execute", "circuits.jit.execute")
        self.patch_function(jit, "compile_jit", "circuits.jit.compile")

        def run_batch_after(args, outcome, dur, t0):
            brec = self._rows.pop(id(args[2]), None)
            if brec is not None:
                brec["run"] = (t0, t0 + dur)
            self.note("recovered_rows", outcome.recovered)

        self.patch_method(FabricExecutor, "run_batch",
                          "serve.executor.run_batch", run_batch_after)

        def lane_after(args, batches, dur, t0):
            lane = args[1]
            self._lanes[id(lane)] = (REQUEST.get(), t0)
            self._flushed(batches, t0 + dur)

        def poll_after(args, batches, dur, t0):
            self._flushed(batches, t0 + dur)

        self.patch_method(BatchCoalescer, "add", "serve.coalescer.add",
                          lane_after)
        self.patch_method(BatchCoalescer, "poll", "serve.coalescer.poll",
                          poll_after)

        def rows_after(args, rows, dur, t0):
            brec = self._batch_recs.pop(id(args[0]), None)
            if brec is not None:
                self._rows[id(rows)] = brec

        self.patch_method(Batch, "rows", "serve.coalescer.rows", rows_after)

        def acquire_after(args, granted, dur, t0):
            self.note("granted", bool(granted))
            self.note("in_flight", args[0].in_flight)

        self.patch_method(CreditGate, "try_acquire",
                          "serve.admission.try_acquire", acquire_after)

        def assemble_after(args, response, dur, t0):
            rec = REQUEST.get()
            if rec is not None:
                rec["assemble_s"] = dur

        # _assemble is the service's private per-kind response builder;
        # it is wrapped only while it exists under that name.
        if "_assemble" in SortingService.__dict__:
            self.patch_method(SortingService, "_assemble",
                              "serve.service.assemble", assemble_after)

        def verbose_after(args, result, dur, t0):
            self.note("sup_report", result[1])

        self.patch_method(Supervisor, "sort_verbose",
                          "runtime.supervisor.sort_verbose", verbose_after)

        def many_after(args, result, dur, t0):
            self.note("api_rows", len(result))

        self.patch_function(api, "sort_bits_many", "core.api.sort_bits_many",
                            many_after)

        self._misses = api.cache_info()["misses"]

        def sorter_after(args, result, dur, t0):
            misses = api.cache_info()["misses"]
            if misses > self._misses:
                self.note("make_sorter_miss", 1)
            self._misses = misses

        self.patch_function(api, "make_sorter", "core.api.make_sorter",
                            sorter_after)
        self.patch_method(RadixPermuter, "permute",
                          "networks.permuter.permute")

    def _flushed(self, batches, t_flush):
        for batch in batches:
            brec = {"flush": t_flush, "lanes": len(batch),
                    "reason": batch.reason, "run": None}
            self._batch_recs[id(batch)] = brec
            self.note("batch", brec)
            for lane in batch.lanes:
                req, t_add = self._lanes.pop(id(lane), (None, t_flush))
                self.note("coalesce_wait_s", t_flush - t_add)
                if req is not None:
                    req["batches"].append(brec)

    # -- reading ------------------------------------------------------------------

    def agg(self, layer, phases):
        out = Agg()
        for phase in phases:
            a = self.aggs.get((phase, layer))
            if a is not None:
                out.calls += a.calls
                out.total_s += a.total_s
                out.self_s += a.self_s
        return out

    def values(self, key, phases):
        return [v for phase in phases for v in self.items.get((phase, key), ())]

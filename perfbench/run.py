#!/usr/bin/env python3
"""Repository benchmark: serve and library workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-sort --seed 1 --seconds 50 --trace 0

Workloads (settings in ``serve_load.py`` and ``batch_load.py``):

* ``serve-sort`` — n=64 ``sort`` requests through one ``SortingService``;
* ``serve-mixed`` — widths {16, 64, 256}, sort/concentrate/route 0.5/0.2/0.3
  (run by hand; not in ``BENCHMARK.json``, see ``perfbench/README.md``);
* ``batch-lib`` — ``Supervisor.run_many``, ``sort_bits_many`` and
  ``RadixPermuter.permute`` called directly, with no event loop.

Each workload has three timed phases, run interleaved in rounds.  On the
serve workloads ``lo`` and ``hi`` are open-loop Poisson arrivals at a low
and a high fixed rate and ``closed`` is a fixed number of client
coroutines.  On ``batch-lib`` ``lo`` is a supervised sort per call on
healthy hardware, ``hi`` the same on hardware with a stuck-at fault
(every call recovers through the tier ladder), and ``closed``
back-to-back library jobs (two ``sort_bits_many`` calls of 64 rows and
one permutation).

End-to-end metrics (``--trace 0``), each reported on every workload:

* ``setup_s`` — median over several set-ups of the time from cold
  caches (sorter cache, engine plans, an empty JIT disk cache) until the
  first timed operation: builds, checkers, plans, JIT compiles and a
  warm-up that drives every netlist to the JIT tier;
* ``lo_p50_ms``, ``lo_p99_ms``, ``hi_p50_ms``, ``hi_p99_ms`` — latency of one
  operation in the ``lo`` and ``hi`` phases, over the pooled operations of
  the phase's fastest segments (see ``FAST_SHARE``): a request timed from
  its due time, or one library call; a shed, errored or wrong operation
  of any segment counts as infinitely late;
* ``closed_rps`` — operations completed per second in the ``closed`` phase,
  the mean over its fastest segments (requests, or library jobs);
* ``peak_rss_mb`` — peak resident memory of the process.

The per-layer metrics (``--trace 1``) and the end-to-end metric each
layer should move are listed in ``perfbench/README.md``.  A traced run
measures the workload untraced and then traced; the traced pass wraps
the program's entry points from ``ledger.py``.

Every answer is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` (shed + error + wrong) and
``metrics``.  A wrong answer makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile

import numpy as np

import cpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("serve-sort", "serve-mixed", "batch-lib")
#: Set-ups per untraced run, run on each CPU in turn (even, so on two CPUs
#: each runs half); setup_s is their median.
SETUPS = 8
FAILED_MS = 1e9  #: value of a percentile that lands on a failed operation
#: The timed phases run interleaved, one segment each per round, so each
#: phase samples the whole run.
ROUNDS = 50
#: A figure is taken over the fastest 15% of a phase's segments (ranked
#: by that figure): on a shared host the speed of a CPU moves by
#: ~1.5x within seconds, as the host's other tenants come and go, so a
#: median over all segments measures the neighbours as much as the
#: program.
FAST_SHARE = 0.15


def pct_ms(values, q):
    if len(values) == 0:
        return 0.0
    v = float(np.percentile(np.asarray(values, dtype=float), q, method="higher"))
    return FAILED_MS if v == float("inf") else 1e3 * v


def fastest(values, key, reverse=False):
    """The fastest ``FAST_SHARE`` (at least one) of a phase's segments by
    ``key``, and the rest."""
    ranked = sorted(values, key=key, reverse=reverse)
    k = max(1, math.ceil(FAST_SHARE * len(ranked)))
    return ranked[:k], ranked[k:]


def fast_pct_ms(segments, q):
    """q-th percentile latency over the pooled operations of the segments
    with the lowest q-th percentile, plus every failed operation of the
    other segments, so a failure anywhere still counts as infinitely late."""
    def key(seg):
        return np.percentile(seg, q, method="higher")

    chosen, rest = fastest([np.asarray(s, dtype=float) for s in segments if len(s)], key)
    failed = [np.full(int(np.isinf(s).sum()), np.inf) for s in rest]
    return pct_ms(np.concatenate(chosen + failed), q) if chosen else 0.0


def fast_rate(rates):
    """Mean rate of the fastest segments."""
    return statistics.mean(fastest(rates, key=float, reverse=True)[0])


def mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def ratio(num, den):
    """``num / den``, or 0 where the layer did no work."""
    return num / den if den else 0.0


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def fresh_caches(work_dir):
    """Drop every in-process sorter, plan and JIT cache and point the JIT
    disk cache at a new empty directory."""
    from repro.circuits import engine
    from repro.core.api import clear_cache

    clear_cache()
    engine.clear_plan_cache()
    os.environ["REPRO_JIT_CACHE"] = tempfile.mkdtemp(dir=work_dir)


def run_workload(args, work_dir, tracing, ledger, setups):
    def fresh():
        fresh_caches(work_dir)

    if args.workload == "batch-lib":
        import batch_load

        return batch_load.run(args.seed, args.seconds, ROUNDS, ledger, fresh, setups)
    import serve_load

    return serve_load.run(args.workload, args.seed, args.seconds, ROUNDS, tracing,
                          ledger, fresh, setups)


def tallies(data):
    return {p: rec["tally"] for p, rec in data["phases"].items()}


def end_to_end(data):
    ph = data["phases"]
    lo, hi = ph["lo"]["latencies"], ph["hi"]["latencies"]
    return {
        "setup_s": metric(statistics.median(data["setup_s"]), "s"),
        "lo_p50_ms": metric(fast_pct_ms(lo, 50), "ms"),
        "lo_p99_ms": metric(fast_pct_ms(lo, 99), "ms"),
        "hi_p50_ms": metric(fast_pct_ms(hi, 50), "ms"),
        "hi_p99_ms": metric(fast_pct_ms(hi, 99), "ms"),
        "closed_rps": metric(fast_rate(ph["closed"]["rates"]), "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def library_rates(data):
    """The batch-lib phases as rates, for the human summary."""
    import batch_load

    ph = data["phases"]
    closed = ph["closed"]
    jobs = closed["tally"].attempted
    out = {
        "supervised_rows_per_s": (ph["lo"]["tally"].ok / ph["lo"]["wall_s"], "1/s"),
        "recovered_rows_per_s": (ph["hi"]["tally"].ok / ph["hi"]["wall_s"], "1/s"),
        "permute_per_s": (ratio(jobs, closed["perm_s"]), "1/s"),
    }
    for (network, n), s in closed["sort_s"].items():
        out[f"rows_per_s.{network}{n}"] = (ratio(jobs * batch_load.JOB_ROWS, s), "1/s")
    return out


def exact_stats():
    """Simulated statistics that any simulator-only change leaves alone."""
    from repro.core.fish_sorter import FishSorter
    from repro.networks.permutation import RadixPermuter
    from repro.serve import FabricExecutor

    out = {}
    fabric = FabricExecutor()
    for w in (16, 64, 256):
        net = fabric.checked(w).netlist
        out[f"circuits.fabric.elements.w{w}"] = len(net.elements)
        out[f"circuits.fabric.depth.w{w}"] = net.depth()
    _, report = FishSorter(64).sort(np.zeros(64, np.uint8), pipelined=True)
    out["core.fish.sorting_time"] = report.sorting_time
    out["networks.permuter.routing_time"] = RadixPermuter(64, backend="fish").routing_time()
    return out


def per_layer(ledger, plain, traced, extra):
    """Per-layer metrics from the traced pass (``traced``) and the
    untraced pass (``plain``) of one traced run."""
    timed = ("lo", "hi", "closed")
    agg = lambda layer, phases=timed: ledger.agg(layer, phases)  # noqa: E731
    vals = lambda key, phases=timed: ledger.values(key, phases)  # noqa: E731
    m = {}

    sim, jit_exec = agg("circuits.simulate"), agg("circuits.jit.execute")
    lanes = sum(vals("sim_rows"))
    m["circuits.simulate.calls"] = metric(sim.calls, "count")
    m["circuits.simulate.busy_ms"] = metric(1e3 * sim.total_s, "ms")
    m["circuits.simulate.us_per_lane"] = metric(ratio(1e6 * sim.total_s, lanes), "us")
    m["circuits.simulate.lanes_per_call"] = metric(ratio(lanes, sim.calls), "count")
    m["circuits.simulate.jit_frac"] = metric(ratio(jit_exec.calls, sim.calls), "frac")
    m["circuits.jit.compile_s"] = metric(agg("circuits.jit.compile", ("setup",)).total_s, "s")
    for key, value in extra["exact"].items():
        m[key] = metric(value, "count")

    closed = traced["phases"]["closed"]
    run_batch = agg("serve.executor.run_batch")
    closed_batch = agg("serve.executor.run_batch", ("closed",))
    m["serve.executor.batches"] = metric(run_batch.calls, "count")
    m["serve.executor.ms_per_batch"] = metric(ratio(1e3 * run_batch.total_s, run_batch.calls), "ms")
    m["serve.executor.gate_ms"] = metric(ratio(1e3 * run_batch.self_s, run_batch.calls), "ms")
    m["serve.executor.recovered_rows"] = metric(sum(vals("recovered_rows")), "count")
    m["serve.executor.fabric_frac"] = metric(closed_batch.total_s / closed["wall_s"], "frac")

    batches = vals("batch")
    m["serve.coalescer.lanes_per_batch"] = metric(mean([b["lanes"] for b in batches]), "count")
    m["serve.coalescer.flush_age_frac"] = metric(
        mean([b["reason"] == "age" for b in batches]), "frac")
    m["serve.coalescer.wait_ms_p50"] = metric(pct_ms(vals("coalesce_wait_s"), 50), "ms")

    granted = vals("granted")
    m["serve.admission.attempts"] = metric(len(granted), "count")
    m["serve.admission.shed_frac"] = metric(ratio(granted.count(False), len(granted)), "frac")
    m["serve.admission.in_flight_max"] = metric(max(vals("in_flight"), default=0), "count")

    queued = [q for rec in traced["phases"].values() for q in rec.get("queued", ())]
    requests = [r for rec in traced["phases"].values() for r in rec.get("requests", ())]
    ran = [b for b in batches if b["run"] is not None]
    hand_in = mean([b["run"][0] - b["flush"] for b in ran])
    hand_out = mean([
        r["t_resp"] - max(b["run"][1] for b in r["batches"]) - r["assemble_s"]
        for r in requests
        if r["batches"] and all(b["run"] is not None for b in r["batches"])
    ])
    assemble = agg("serve.service.assemble")
    loop_layers = ("serve.admission.try_acquire", "serve.coalescer.add",
                   "serve.coalescer.poll", "serve.coalescer.rows",
                   "serve.service.assemble")
    loop_spans = sum(agg(layer, ("closed",)).total_s for layer in loop_layers)
    loop_busy = closed["wall_s"] - closed.get("idle_s", closed["wall_s"])
    m["serve.service.queue_ms_p50"] = metric(pct_ms(queued, 50), "ms")
    m["serve.service.handoff_ms"] = metric(1e3 * (hand_in + hand_out), "ms")
    m["serve.service.assemble_ms"] = metric(ratio(1e3 * assemble.total_s, assemble.calls), "ms")
    m["serve.service.loop_other_frac"] = metric(
        ratio(loop_busy - loop_spans, closed["wall_s"]) if loop_busy else 0, "frac")

    sup = agg("runtime.supervisor.sort_verbose")
    reports = vals("sup_report")
    m["runtime.supervisor.ms_per_call"] = metric(ratio(1e3 * sup.total_s, sup.calls), "ms")
    m["runtime.supervisor.attempts_per_call"] = metric(mean([r.attempts for r in reports]), "count")
    m["runtime.supervisor.fallback_frac"] = metric(mean([r.fell_back for r in reports]), "frac")
    for tier in ("jit", "engine", "interpreter", "behavioral"):
        m[f"runtime.supervisor.tier.{tier}"] = metric(
            sum(r.tier == tier for r in reports), "count")
    m["runtime.fault.wire"] = metric(traced.get("fault_wire", 0), "count")

    many = agg("core.api.sort_bits_many")
    rows = sum(vals("api_rows"))
    m["core.api.ms_per_row"] = metric(ratio(1e3 * many.total_s, rows), "ms")
    m["core.api.make_sorter.misses"] = metric(len(vals("make_sorter_miss")), "count")

    perm = agg("networks.permuter.permute")
    m["networks.permuter.ms_per_perm"] = metric(ratio(1e3 * perm.total_s, perm.calls), "ms")
    m["parallel.dispatch_ms_per_item"] = metric(extra["dispatch_ms"], "ms")

    base = end_to_end(plain)["closed_rps"]["value"]
    with_trace = end_to_end(traced)["closed_rps"]["value"]
    m["obs.trace_overhead_frac"] = metric(ratio(base, with_trace) - 1, "frac")
    late = [x for p in ("lo", "hi") for x in plain["phases"][p].get("lateness", ())]
    m["gen.lateness_p99_ms"] = metric(pct_ms(late, 99), "ms")
    counted = [t for d in (plain, traced) for t in tallies(d).values()]
    attempted = sum(t.attempted for t in counted)
    m["failed_frac"] = metric(ratio(sum(t.failed for t in counted), attempted), "frac")
    return m


def settings(args, data, cfg_extra):
    phases = {p: rec["tally"].as_dict() | {"wall_s": round(rec["wall_s"], 3)}
              for p, rec in data["phases"].items()}
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": ROUNDS, "fast_share": FAST_SHARE,
            "cpus": os.cpu_count(), "cpus_cycled": len(cpus.ALL),
            "phases": phases,
            "setup_s": [round(s, 4) for s in data["setup_s"]], **cfg_extra}


def workload_settings(args, data):
    if args.workload == "batch-lib":
        import batch_load

        return {"fault": data["fault"], "phase_share": batch_load.PHASE_SHARE,
                "supervised_n": batch_load.SUP_N, "fault_n": batch_load.FAULT_N,
                "job": [list(k) for k in batch_load.SORT_JOB],
                "job_rows": batch_load.JOB_ROWS, "permuter_n": batch_load.PERM_N}
    import serve_load

    cfg = data["cfg"]
    return {"lo_rate": cfg["lo_rate"], "hi_rate": cfg["hi_rate"],
            "clients": cfg["clients"], "mix": cfg["mix"], "widths": data["widths"],
            "phase_share": serve_load.PHASE_SHARE,
            "warmup_requests": data["warmup_requests"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    for var in ("REPRO_JIT", "REPRO_OBS", "REPRO_OBS_TRACE"):
        os.environ.pop(var, None)
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="perfbench-", dir=build)
    os.environ["REPRO_JIT_CACHE"] = work_dir
    sys.path.insert(0, SRC)
    try:
        if args.trace:
            from ledger import Ledger
            import batch_load

            args.seconds /= 2  # the untraced and the traced pass share the run
            plain = run_workload(args, work_dir, False, None, 1)
            ledger = Ledger()
            ledger.install()
            try:
                data = run_workload(args, work_dir, True, ledger, 1)
            finally:
                ledger.uninstall()
            extra = {"exact": exact_stats(),
                     "dispatch_ms": batch_load.dispatch_ms_per_item(args.seed)}
            metrics = per_layer(ledger, plain, data, extra)
            runs = (plain, data)
        else:
            data = run_workload(args, work_dir, False, None, SETUPS)
            extra = {}
            metrics = end_to_end(data)
            runs = (data,)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    counted = [t for d in runs for t in tallies(d).values()]
    attempted = sum(t.attempted for t in counted)
    failed = sum(t.failed for t in counted)
    wrong = sum(t.wrong for t in counted)
    info = settings(args, data, workload_settings(args, data))
    if extra:
        info["exact"] = extra["exact"]
    info["failed_frac"] = ratio(failed, attempted)
    print(json.dumps({"settings": info}))
    if args.workload == "batch-lib":
        for name, (value, unit) in library_rates(data).items():
            print(f"  {name:<36} {value:14.4f} {unit}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:14.4f} {m['unit']}")
    if "failed_frac" not in metrics:
        print(f"  {'failed_frac':<36} {info['failed_frac']:14.4f} frac")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

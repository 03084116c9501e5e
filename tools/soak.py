#!/usr/bin/env python
"""Chaos-soak reliability harness: trace-driven load + concurrent chaos.

Usage::

    python tools/soak.py --requests 50000 --chaos all --jobs 2 \
        [--workloads uniform,poisson,bursty,zipf,adversarial,mixed] \
        [--network mux_merger] [--n 16] [--out SOAK.json] \
        [--bench-out benchmarks/results/BENCH_workloads.json] \
        [--trace soak_trace.jsonl] [--metrics soak_metrics.json]

The soak pushes a deterministic request matrix — one *cell* per
:mod:`repro.workloads` workload — through the repo's real serving
surfaces while :mod:`repro.chaos` injectors attack the run, and then
holds the outcome to SLOs:

* **p99 request latency** below ``--slo-p99``;
* **zero silent corruption** — every accepted answer is replayed
  against ``np.sort`` ground truth; one accepted wrong answer fails
  the soak;
* **bounded quarantine rate** — chunks lost to killed/hung workers,
  re-run in-process, must stay under ``--slo-quarantine-rate``;
* **no-progress watchdog** — a worker stuck past ``--watchdog``
  seconds on one chunk is killed (``parallel.stalled`` in the trace)
  and its chunk quarantined, so a wedged pool cannot stall the soak;
* **chaos efficacy** — every enabled injector must demonstrably bite
  (faults detected, deadlines hit, kills landed, cache bytes flipped,
  trace truncated-yet-readable); a chaos soak whose chaos never fired
  proves nothing and FAILs.

Each cell's requests are cut into *chunks* (the parallel work unit,
``--chunk`` requests each, shipped to :func:`repro.parallel.run_items`
workers) and chunks into *rounds* (the checkpoint unit).  A seeded
draw runs each chunk in one of two modes:

* ``batch`` — the whole chunk run on self-checking hardware
  (:func:`repro.core.api.make_checked_sorter`) by one
  :func:`repro.runtime.run_checked` call with no retries; rows with
  alarms or failing the software gate (monotone + caller-held ones
  count) get the lower rungs and are recovered behaviorally;
* ``supervised`` — request-at-a-time through a live
  :class:`repro.runtime.Supervisor` (retry, backoff cap, degradation
  ladder), the path deadline storms genuinely preempt.

Chaos comes in two shapes.  *Payload* injectors (``faults``,
``deadlines``) resolve to per-chunk flags in the parent — a seeded
fault to rewrite into the worker's netlist, a tiny per-attempt
deadline — so they are exactly reproducible.  *Environment* injectors
(``kills``, ``jitcache``, ``obstrunc``) attack shared state from the
parent: SIGKILL storms against live pool workers during a round, byte
flips in warm ``*.rjit`` JIT cache entries and trace-file tail
truncation between rounds.

**Crash safety and determinism.**  The ``--out`` document is also the
checkpoint: :class:`repro.parallel.Campaign` rewrites it atomically
after every round and resumes from it after SIGKILL (``--no-resume`` or
removing ``--out`` starts over).  The complete document contains only
seed-determined content — config, schedules, per-chunk output digests,
the verdict — so the same seed reproduces it byte-for-byte, interrupted
or not, at any ``--jobs``.
Wall-clock facts (latency, throughput, quarantine events, the chaos
log) go to the sibling ``--measured-out`` document, and per-cell
records to ``--bench-out`` in the ``BENCH_workloads.json`` format
gated by ``tools/compare_sweeps.py``.  See docs/SOAK.md.
"""

import argparse
import dataclasses
import hashlib
import math
import os
import pathlib
import sys
import time

# Allow `python tools/soak.py` without an exported PYTHONPATH.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if os.path.isdir(_SRC) and os.path.abspath(_SRC) not in map(os.path.abspath, sys.path):
    sys.path.insert(0, os.path.abspath(_SRC))

import numpy as np

FORMAT_VERSION = 2
NETWORKS = ("mux_merger", "prefix")  # combinational: checkers attach directly

# ---------------------------------------------------------------------------
# Worker-side execution
#
# Each process (pool workers and the parent's in-process re-run path)
# builds hardware lazily from the payload alone: everything is keyed on
# (network, width, fault_seed), so any process derives identical state.
# Healthy hardware is the library's shared make_checked_sorter instance;
# only the fault-rewritten variants are cached here.
# ---------------------------------------------------------------------------

_WCTX = {"faulty": {}, "sups": {}}


def _soak_worker_init(_arg) -> None:
    _WCTX["faulty"] = {}
    _WCTX["sups"] = {}


def _checked_hardware(network: str, n: int, fault_seed):
    """Self-checking (and, under a fault storm, deliberately broken)
    hardware for width ``n``."""
    from repro.core.api import make_checked_sorter

    checked = make_checked_sorter(n, network, control=True)
    if fault_seed is None:
        return checked
    key = (network, n, fault_seed)
    hw = _WCTX["faulty"].get(key)
    if hw is None:
        from repro.chaos import realize_fault
        from repro.circuits import apply_faults
        from repro.core.api import make_sorter

        # Enumerate on the plain netlist (the fault targets the sorter,
        # not the checker logic); checked hardware keeps all wire ids
        # valid, so the same fault objects apply to the checked netlist.
        faults = realize_fault(make_sorter(n, network), fault_seed)
        hw = dataclasses.replace(
            checked, netlist=apply_faults(checked.netlist, faults)
        )
        _WCTX["faulty"][key] = hw
    return hw


def _supervisor_for(network: str, fault_seed, deadline_s):
    """A supervisor wired to (possibly broken) checked hardware with the
    soak's recovery policy — cached per process."""
    from repro.runtime import RecoveryPolicy, Supervisor

    key = (network, fault_seed, deadline_s)
    sup = _WCTX["sups"].get(key)
    if sup is None:
        policy = RecoveryPolicy(
            max_retries=1,
            backoff_s=5e-4,
            backoff_factor=2.0,
            max_backoff_s=1e-3,  # a deadline storm must not become a sleep storm
            deadline_s=deadline_s,
            control_checker=True,
        )
        sup = Supervisor(
            network, policy=policy,
            hardware=lambda n: _checked_hardware(network, n, fault_seed),
        )
        _WCTX["sups"][key] = sup
    return sup


def _soak_chunk(payload) -> dict:
    """Execute one chunk of requests; returns the chunk record.

    The record's ``digest`` covers every final output row in request
    order; because every wrong or unverifiable answer is recovered to
    ground truth before digesting, the digest is a pure function of the
    input stream — the anchor of the soak's byte-for-byte determinism.
    """
    from repro.core.api import pad_bits
    from repro.errors import ReproError
    from repro.obs import MetricsRegistry

    (cid, cell, chunk_index, mode, network, rows, fault_seed,
     deadline_s) = payload
    started = time.perf_counter()
    stats = {
        "alarms": 0, "invariant": 0, "recovered": 0, "silent": 0,
        "deadline_hits": 0, "retries": 0, "fallbacks": 0, "exhausted": 0,
    }
    latency = MetricsRegistry()
    hist = latency.histogram("soak_latency_seconds", cell=cell)
    outputs = [None] * len(rows)

    if mode == "batch":
        from repro.runtime import RecoveryPolicy, run_checked

        by_width = {}
        for pos, row in enumerate(rows):
            by_width.setdefault(row.size, []).append(pos)
        for width, positions in sorted(by_width.items()):
            batch = pad_bits(np.stack([rows[p] for p in positions]), network)
            run = run_checked(
                _checked_hardware(network, batch.shape[1], fault_seed),
                batch, RecoveryPolicy(max_retries=0))
            # Ground-truth replay: an accepted wrong row is a silent
            # corruption the gate missed.
            wrong = (run.data != np.sort(batch, axis=1)).any(axis=1)
            stats["alarms"] += run.alarms
            stats["invariant"] += run.invariant_fails
            stats["silent"] += int((run.accepted & wrong).sum())
            stats["recovered"] += run.recovered
            for local, pos in enumerate(positions):
                outputs[pos] = run.data[local, :width]
    else:  # supervised
        sup = _supervisor_for(network, fault_seed, deadline_s)
        for pos, row in enumerate(rows):
            t0 = time.perf_counter()
            try:
                out, report = sup.sort_verbose(row)
                stats["alarms"] += len(report.detections)
                stats["deadline_hits"] += report.deadline_hits
                stats["retries"] += report.retries
                stats["fallbacks"] += int(report.fell_back)
                if report.fell_back or report.detections:
                    stats["recovered"] += 1
            except ReproError:
                # Every tier (including behavioral) lost to the storm:
                # the driver is the recovery of last resort.
                out = np.sort(row)
                stats["exhausted"] += 1
                stats["recovered"] += 1
            expected = np.sort(row)
            if not np.array_equal(out, expected):
                stats["silent"] += 1
                out = expected
            outputs[pos] = out
            hist.observe(time.perf_counter() - t0)

    wall_s = time.perf_counter() - started
    if mode == "batch":
        for _ in rows:
            hist.observe(wall_s / len(rows))

    digest = hashlib.sha256()
    for out in outputs:
        digest.update(np.uint32(out.size).tobytes())
        digest.update(np.ascontiguousarray(out, dtype=np.uint8).tobytes())
    return {
        "id": cid,
        "cell": cell,
        "chunk": chunk_index,
        "mode": mode,
        "rows": len(rows),
        "fault_seed": fault_seed,
        "deadline": deadline_s is not None,
        "digest": digest.hexdigest(),
        "_measured": {"latency": latency.dump_state(), **stats},
    }


# ---------------------------------------------------------------------------
# Parent-side enumeration and chaos wiring
# ---------------------------------------------------------------------------


def _build_chaos(args, active):
    """Instantiate the enabled injectors with seeded schedules.

    ``faults``/``deadlines`` schedule over the per-cell *chunk* index
    (period ``--chaos-period``); the environment injectors schedule over
    the global *round* counter at a denser cadence so that a short soak
    still exercises them several times.
    """
    from repro.chaos import (
        DeadlineStorm,
        FaultStorm,
        JitCacheCorruptor,
        TraceTruncator,
        WorkerKillStorm,
        seeded_schedule,
    )

    chaos = {}
    if "faults" in active:
        chaos["faults"] = FaultStorm(
            seeded_schedule(args.seed, "faults", args.chaos_period, args.chaos_duty),
            args.seed,
        )
    if "deadlines" in active:
        chaos["deadlines"] = DeadlineStorm(
            seeded_schedule(args.seed, "deadlines", args.chaos_period, args.chaos_duty),
            deadline_s=args.deadline_s,
        )
    round_period, round_duty = 4, 0.5
    if "kills" in active:
        # One kill per active round keeps the quarantine-rate SLO
        # honest: the storm must hurt, not dominate.
        chaos["kills"] = WorkerKillStorm(
            seeded_schedule(args.seed, "kills", round_period, round_duty),
            args.seed, interval_s=0.02, kill_prob=1.0, max_kills=1,
        )
    if "jitcache" in active:
        chaos["jitcache"] = JitCacheCorruptor(
            seeded_schedule(args.seed, "jitcache", round_period, round_duty),
            os.path.join(args.workdir, "jit-cache"), args.seed,
        )
    if "obstrunc" in active:
        chaos["obstrunc"] = TraceTruncator(
            seeded_schedule(args.seed, "obstrunc", round_period, round_duty),
            args.trace, args.seed,
        )
    return chaos


def _schedule_doc(chaos) -> dict:
    return {
        name: {
            "period": inj.schedule.period,
            "duty": inj.schedule.duty,
            "phase": inj.schedule.phase,
        }
        for name, inj in sorted(chaos.items())
    }


def _enumerate_cell(args, cell: str, per_cell: int, chaos):
    """Deterministic chunk list for one cell: ``[(chunk_id, payload),
    ...]`` plus the cell's input-stream digest."""
    from repro.workloads import make_workload, stable_hash, stream_digest

    wl = make_workload(cell, n=args.n, rate=args.rate, seed=args.seed)
    requests = list(wl.stream(per_cell))
    inputs_digest = stream_digest(requests)
    faults = chaos.get("faults")
    deadlines = chaos.get("deadlines")
    items = []
    for chunk_index in range(0, math.ceil(len(requests) / args.chunk)):
        sl = requests[chunk_index * args.chunk:(chunk_index + 1) * args.chunk]
        mode_rng = np.random.default_rng(np.random.SeedSequence(
            [args.seed, stable_hash(cell, chunk_index, "mode")]
        ))
        mode = ("supervised" if mode_rng.random() < args.supervised_fraction
                else "batch")
        cid = f"{cell}/c{chunk_index:05d}"
        payload = (
            cid, cell, chunk_index, mode, args.network,
            [req.bits for req in sl],
            faults.fault_seed(chunk_index) if faults else None,
            deadlines.deadline(chunk_index) if deadlines else None,
        )
        items.append((cid, payload))
    return items, inputs_digest


# ---------------------------------------------------------------------------
# SLO evaluation
# ---------------------------------------------------------------------------


def _evaluate_slo(args, active, totals, p99, quarantine, total_chunks,
                  chaos_totals, obs_consistent) -> dict:
    from repro.obs import REL_ERR

    q_rate = (len(quarantine) / total_chunks) if total_chunks else 0.0
    gates = {
        "p99_latency": {
            "bound_s": args.slo_p99, "value_s": p99, "rel_err": REL_ERR,
            "ok": p99 <= args.slo_p99,
        },
        "silent_corruption": {
            "bound": 0, "value": totals["silent"],
            "ok": totals["silent"] == 0,
        },
        "quarantine_rate": {
            "bound": args.slo_quarantine_rate, "value": q_rate,
            "ok": q_rate <= args.slo_quarantine_rate,
        },
        # Reaching evaluation at all means every round made progress
        # under the watchdog; stalls surface as quarantines above.
        "progress": {"watchdog_s": args.watchdog, "ok": True},
    }
    if obs_consistent is not None:
        gates["metrics_consistent"] = {"ok": bool(obs_consistent)}
    if "faults" in active:
        detections = totals["alarms"] + totals["invariant"]
        gates["chaos_faults_detected"] = {
            "value": detections, "ok": detections > 0,
        }
    if "deadlines" in active:
        gates["chaos_deadlines_hit"] = {
            "value": totals["deadline_hits"], "ok": totals["deadline_hits"] > 0,
        }
    if "kills" in active:
        gates["chaos_kills_landed"] = {
            "value": chaos_totals["kills_sent"],
            "ok": chaos_totals["kills_sent"] > 0,
        }
    if "jitcache" in active:
        gates["chaos_jitcache_corrupted"] = {
            "value": chaos_totals["jit_files"],
            "ok": chaos_totals["jit_files"] > 0,
        }
    if "obstrunc" in active:
        gates["chaos_trace_truncated"] = {
            "value": chaos_totals["trunc_bytes"],
            "trace_events": chaos_totals["trace_events"],
            "ok": (chaos_totals["trunc_bytes"] > 0
                   and chaos_totals["trace_events"] > 0),
        }
    return gates


def _read_trace_survivors(trace_path) -> int:
    """Parsed record count of the (possibly truncated) trace file —
    the obstrunc injector's readability proof."""
    import repro.obs as obs

    try:
        return len(obs.read_trace(trace_path, strict=False))
    except (OSError, ValueError):
        return 0


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--requests", type=int, default=50_000,
                        help="total requests across the whole matrix")
    parser.add_argument("--workloads",
                        default="uniform,poisson,bursty,zipf,adversarial,mixed")
    parser.add_argument("--chaos", default="",
                        help="comma list of injectors, or 'all' "
                             "(faults,kills,deadlines,jitcache,obstrunc)")
    parser.add_argument("--network", default="mux_merger", choices=NETWORKS)
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--rate", type=float, default=2000.0,
                        help="declared mean request rate per workload")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--chunk", type=int, default=128,
                        help="requests per parallel work unit")
    parser.add_argument("--round-chunks", type=int, default=16,
                        help="chunks per round (the checkpoint unit)")
    parser.add_argument("--supervised-fraction", type=float, default=0.25,
                        help="fraction of chunks run request-at-a-time "
                             "through a live Supervisor")
    parser.add_argument("--chaos-period", type=int, default=8,
                        help="fault/deadline schedule period in chunks")
    parser.add_argument("--chaos-duty", type=float, default=0.25,
                        help="fault/deadline schedule duty cycle")
    parser.add_argument("--deadline-s", type=float, default=2e-4,
                        help="per-attempt budget during deadline storms")
    parser.add_argument("--watchdog", type=float, default=60.0,
                        help="per-chunk no-progress budget; a worker "
                             "stuck longer is killed and the chunk "
                             "quarantined")
    parser.add_argument("--slo-p99", type=float, default=0.25,
                        help="p99 request latency bound in seconds")
    parser.add_argument("--slo-quarantine-rate", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0x50AC)
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path("SOAK.json"))
    parser.add_argument("--measured-out", type=pathlib.Path, default=None,
                        help="wall-clock report (default: <out>_measured.json)")
    parser.add_argument("--bench-out", type=pathlib.Path, default=None,
                        help="emit BENCH_workloads.json records here")
    parser.add_argument("--workdir", type=pathlib.Path, default=None,
                        help="scratch dir (JIT cache); default <out>.work")
    parser.add_argument("--trace", type=pathlib.Path, default=None,
                        help="enable repro.obs and append a JSON-lines trace")
    parser.add_argument("--metrics", type=pathlib.Path, default=None,
                        help="export the metrics registry on exit")
    parser.add_argument("--no-resume", action="store_true")
    args = parser.parse_args(argv)

    from repro.chaos import CHAOS_INJECTORS
    from repro.workloads import WORKLOADS

    workloads = [s for s in args.workloads.split(",") if s]
    for name in workloads:
        if name not in WORKLOADS:
            print(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")
            return 2
    if args.chaos.strip() == "all":
        active = list(CHAOS_INJECTORS)
    else:
        active = [s for s in args.chaos.split(",") if s]
    for name in active:
        if name not in CHAOS_INJECTORS:
            print(f"unknown injector {name!r} (choose from {', '.join(CHAOS_INJECTORS)})")
            return 2
    if "obstrunc" in active and args.trace is None:
        print("obstrunc chaos needs --trace (there is no trace file to truncate)")
        return 2
    if not workloads or args.requests < len(workloads):
        print("need at least one request per workload")
        return 2

    if args.measured_out is None:
        args.measured_out = args.out.with_name(args.out.stem + "_measured.json")
    if args.workdir is None:
        args.workdir = args.out.with_name(args.out.stem + ".work")
    args.workdir = pathlib.Path(args.workdir)
    args.workdir.mkdir(parents=True, exist_ok=True)
    # Keep JIT artifacts inside the soak's scratch dir (hermetic, and the
    # jitcache injector needs to know where the warm plans live).  The
    # checked ladder compiles its jit rung on first use, so the cache
    # fills without any switch.
    os.environ["REPRO_JIT_CACHE"] = str(args.workdir / "jit-cache")
    if "jitcache" in active:
        (args.workdir / "jit-cache").mkdir(parents=True, exist_ok=True)
    args.workdir = str(args.workdir)

    import repro.obs as obs
    from repro.ioutil import atomic_write_json
    from repro.parallel import Campaign

    if args.trace or args.metrics:
        obs.enable(trace_path=args.trace)

    chaos = _build_chaos(args, active)
    per_cell = args.requests // len(workloads)
    meta = {
        "version": FORMAT_VERSION,
        "seed": args.seed,
        "requests": args.requests,
        "workloads": workloads,
        "chaos": sorted(active),
        "network": args.network,
        "n": args.n,
        "rate": args.rate,
        "chunk": args.chunk,
        "supervised_fraction": args.supervised_fraction,
        "chaos_period": args.chaos_period,
        "chaos_duty": args.chaos_duty,
        "deadline_s": args.deadline_s,
    }

    latency = obs.MetricsRegistry()  # per-cell soak_latency_seconds

    def cell_stats(cell):
        return measured["cells"].setdefault(cell, {
            "alarms": 0, "invariant": 0, "recovered": 0, "silent": 0,
            "deadline_hits": 0, "retries": 0, "fallbacks": 0,
            "exhausted": 0, "requests": 0, "wall_s": 0.0,
            "quarantine_events": 0,
        })

    session = {"requests": 0}  # this process only: the metrics registry
    # resets on restart, so the consistency cross-check below must not
    # count requests resumed from the checkpoint.

    def emit(record):
        m = record.pop("_measured")
        cell = record["cell"]
        session["requests"] += record["rows"]
        stats = cell_stats(cell)
        for key in ("alarms", "invariant", "recovered", "silent",
                    "deadline_hits", "retries", "fallbacks", "exhausted"):
            stats[key] += m[key]
        stats["requests"] += record["rows"]
        latency.merge_state(m["latency"])
        if obs.enabled():
            obs.counter("repro_soak_requests_total",
                        "Soak requests by (cell, mode).",
                        cell=cell, mode=record["mode"]).inc(record["rows"])
            if m["silent"]:
                obs.counter("repro_soak_silent_total",
                            "Accepted-but-wrong soak answers.",
                            cell=cell).inc(m["silent"])

    # -- resume: chunk records, quarantine events and the measured tallies --
    camp = Campaign(args.out, meta, "soak", resume=not args.no_resume,
                    on_record=emit, extras={"measured": {
                        "latency": [], "cells": {}, "chaos_log": [],
                        "kills_sent": 0, "rounds": 0,
                    }})
    if camp.prior is not None and camp.prior["meta"]["complete"]:
        print(f"{args.out} is already a complete soak document "
              f"(--no-resume to re-run)")
        return 0 if camp.prior.get("verdict") == "PASS" else 1
    measured = camp.extras["measured"]
    latency.merge_state(measured["latency"])

    # -- the matrix -----------------------------------------------------------
    kills = chaos.get("kills")
    if kills is not None:  # carry the landed-kill tally across resumes
        kills.kills_sent = int(measured.get("kills_sent", 0))
    started = time.perf_counter()
    round_counter = int(measured.get("rounds", 0))
    inputs_digests = {}
    all_ids = []
    for cell in workloads:
        items, inputs_digests[cell] = _enumerate_cell(args, cell, per_cell, chaos)
        all_ids.extend(cid for cid, _payload in items)
        todo = camp.pending(items)
        print(f"[{cell}] {len(items)} chunks ({len(items) - len(todo)} done, "
              f"{len(todo)} to run)")
        for at in range(0, len(todo), args.round_chunks):
            round_items = todo[at:at + args.round_chunks]
            # Environment chaos between rounds: corrupt warm JIT cache
            # entries and chop the trace tail while nothing is in flight
            # (the *next* round's fresh workers pay the recovery).
            for name in ("jitcache", "obstrunc"):
                injector = chaos.get(name)
                if injector is not None:
                    summary = injector.perturb(round_counter)
                    if summary is not None:
                        measured["chaos_log"].append(
                            {"round": round_counter, **summary})
                        obs.trace_event("soak.chaos", round=round_counter,
                                        **summary)

            with obs.trace_span("soak.round", cell=cell, round=round_counter,
                                chunks=len(round_items)):
                storming = kills.start(round_counter) if kills else False
                # A cell's wall_s is the parent's clock over its rounds, so
                # throughput counts pool dispatch and worker respawns.
                round_started = time.perf_counter()
                try:
                    requeue = camp.run(
                        round_items, _soak_chunk, jobs=args.jobs,
                        worker_init=_soak_worker_init, span="soak.chunk",
                        hang_budget_s=args.watchdog,
                    )
                finally:
                    if storming:
                        kills.stop()
                        measured["kills_sent"] = kills.kills_sent
            # Chunks lost to the storm re-run in-process: the storm may
            # cost latency and quarantine events, never answers.
            cell_stats(cell)["quarantine_events"] += len(requeue)
            for _cid, payload in requeue:
                camp.add(_soak_chunk(payload))
            cell_stats(cell)["wall_s"] += time.perf_counter() - round_started
            round_counter += 1
            measured["rounds"] = round_counter
            measured["latency"] = latency.dump_state()
            camp.checkpoint()

    wall_s = time.perf_counter() - started

    # -- verdict --------------------------------------------------------------
    quarantine = camp.quarantine
    totals = {key: sum(s[key] for s in measured["cells"].values())
              for key in ("alarms", "invariant", "recovered", "silent",
                          "deadline_hits", "retries", "fallbacks",
                          "exhausted", "requests")}
    total_chunks = len(camp.records)
    chaos_totals = {
        "kills_sent": int(measured.get("kills_sent", 0)),
        "jit_files": sum(len(e.get("files", []))
                         for e in measured["chaos_log"]
                         if e.get("injector") == "jitcache"),
        "trunc_bytes": sum(int(e.get("truncated_bytes", 0))
                           for e in measured["chaos_log"]
                           if e.get("injector") == "obstrunc"),
        "trace_events": (_read_trace_survivors(args.trace)
                         if args.trace else 0),
    }
    obs_consistent = None
    if obs.enabled():
        counted = sum(
            inst.value
            for (name, _pairs), inst in obs.registry()._sorted_items()
            if name == "repro_soak_requests_total"
        )
        obs_consistent = int(counted) == session["requests"]
    overall = obs.MetricsRegistry()  # every cell's buckets, unlabelled
    overall.merge_state({**e, "labels": {}} for e in latency.dump_state())
    p99 = overall.histogram("soak_latency_seconds").quantile(0.99)
    gates = _evaluate_slo(args, active, totals, p99, quarantine,
                          total_chunks, chaos_totals, obs_consistent)
    verdict = "PASS" if all(g["ok"] for g in gates.values()) else "FAIL"
    obs.trace_event("soak.verdict", verdict=verdict,
                    **{name: g["ok"] for name, g in gates.items()})

    # -- the deterministic soak document --------------------------------------
    camp.sort(all_ids)
    cells_doc = {}
    for cell in workloads:
        # The id keys the checkpoint; the document's chunks go without it.
        records = [{k: v for k, v in r.items() if k != "id"}
                   for r in camp.records if r["cell"] == cell]
        combined = hashlib.sha256()
        for rec in records:
            combined.update(rec["digest"].encode())
        cells_doc[cell] = {
            "requests": sum(r["rows"] for r in records),
            "inputs_digest": inputs_digests[cell],
            "outputs_digest": combined.hexdigest(),
            "chunks": records,
        }
    # Only the gates' pass/fail bits enter the deterministic document;
    # their measured values (p99, kill counts, ...) are wall-clock facts
    # and live in the measured companion.
    camp.finish(
        schedules=_schedule_doc(chaos),
        cells=cells_doc,
        slo={name: gate["ok"] for name, gate in gates.items()},
        verdict=verdict,
    )

    # -- measured companions --------------------------------------------------
    cell_reports = {}
    for cell in workloads:
        stats = measured["cells"].get(cell, {})
        cwall = stats.get("wall_s", 0.0)
        cell_reports[cell] = {
            **stats,
            "p99_s": latency.histogram("soak_latency_seconds",
                                       cell=cell).quantile(0.99),
            "rel_err": obs.REL_ERR,
            "throughput_rps": (stats.get("requests", 0) / cwall) if cwall else 0.0,
        }
    atomic_write_json(args.measured_out, {
        "soak": str(args.out),
        "verdict": verdict,
        "wall_s": wall_s,
        "p99_s": p99,
        "rel_err": obs.REL_ERR,
        "slo": gates,
        "quarantine": quarantine,
        "chaos": {"log": measured["chaos_log"], **chaos_totals},
        "cells": cell_reports,
    })
    if args.bench_out is not None:
        chaos_label = "+".join(sorted(active)) if active else "none"
        bench = [
            {
                "workload": cell,
                "chaos": chaos_label,
                "network": args.network,
                "n": args.n,
                "requests": cell_reports[cell].get("requests", 0),
                "throughput_rps": cell_reports[cell]["throughput_rps"],
                "p99_s": cell_reports[cell]["p99_s"],
                "rel_err": obs.REL_ERR,
                "quarantine_rate": (
                    cell_reports[cell].get("quarantine_events", 0)
                    / max(len(cells_doc[cell]["chunks"]), 1)
                ),
                "silent_corruption": cell_reports[cell].get("silent", 0),
                "slo_pass": verdict == "PASS",
                "floor_rps": 200.0,
            }
            for cell in workloads
        ]
        args.bench_out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(args.bench_out, bench)
        print(f"wrote {args.bench_out}: {len(bench)} workload records")

    obs.export_metrics(args.metrics)
    print(f"wrote {args.out} (+ {args.measured_out})")
    print(f"requests: {totals['requests']}  chunks: {total_chunks}  "
          f"quarantined: {len(quarantine)}  wall: {wall_s:.1f}s")
    print(f"detections: alarms={totals['alarms']} "
          f"invariant={totals['invariant']} recovered={totals['recovered']} "
          f"deadline_hits={totals['deadline_hits']} "
          f"exhausted={totals['exhausted']}")
    print(f"p99 latency: {p99 * 1e3:.2f} ms (±{obs.REL_ERR:.0%})  "
          f"silent corruption: {totals['silent']}")
    for name, gate in gates.items():
        print(f"  [{'ok' if gate['ok'] else 'FAIL'}] {name}: "
              + ", ".join(f"{k}={v}" for k, v in gate.items() if k != "ok"))
    print(f"verdict: {verdict}")
    return 0 if verdict == "PASS" else 1


if __name__ == "__main__":
    raise SystemExit(main())

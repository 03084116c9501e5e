#!/usr/bin/env python
"""Measurement sweep: dump cost/depth/time series to JSON for plotting.

Usage::

    python tools/sweep.py [--max-lg 12] [--out sweep.json] [--jobs 4]
    python tools/sweep.py --engine-bench [--out BENCH_engine.json]
    python tools/sweep.py --jit-bench [--out BENCH_jit.json]
    python tools/sweep.py --max-lg 5 --trace trace.jsonl --metrics metrics.json

The default mode emits one record per (network, n) with measured and
claimed values — the raw data behind EXPERIMENTS.md, in machine-readable
form.  ``--engine-bench`` instead times the element-at-a-time
interpreter against the compiled level-batched engine
(:mod:`repro.circuits.engine`) and records the speedup series; feed two
such files to ``tools/compare_sweeps.py`` to gate throughput drift.
``--jit-bench`` is the same idea one tier up: it times the engine's
packed path against the straight-line bit-slice kernels from
:mod:`repro.circuits.jit`, recording per-record floors plus the one-off
``compile_s`` codegen cost.

Every (network, n) item runs under a per-item deadline with retry
(``--item-timeout`` / ``--item-retries``, via
:func:`repro.runtime.guard.run_guarded`); an item that keeps failing is
quarantined and recorded in a sibling ``<out>.quarantine.json`` (kept
out of the main file so ``compare_sweeps.py`` record formats are
unchanged), letting the rest of the sweep complete.

``--jobs N`` shards the items over N crash-isolated worker processes
(:mod:`repro.parallel`): records come back in the same deterministic
order as a serial run, a worker that dies or hangs mid-item costs
exactly that item (quarantined, pool replenished), and deadlines are
enforced on each worker's main thread.  Timing fields will of course
vary run to run; every *non-timing* field is identical to serial.

``--trace FILE`` enables :mod:`repro.obs` and appends a JSON-lines trace
(one ``sweep.item`` span per (network, n), ``engine.execute`` spans with
per-level kernel timings underneath, quarantine events, and final
``engine.activity`` switch-activity summaries; parallel workers write
per-pid shards that are merged back on exit) — read it with
``tools/trace_report.py``.  ``--metrics FILE`` exports the metrics
registry on exit (Prometheus text if the name ends in ``.prom``, JSON
otherwise).  See docs/OBSERVABILITY.md.
"""

import argparse
import json
import os
import pathlib
import sys
import time

# Allow `python tools/sweep.py` without an exported PYTHONPATH.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if os.path.isdir(_SRC) and os.path.abspath(_SRC) not in map(os.path.abspath, sys.path):
    sys.path.insert(0, os.path.abspath(_SRC))

NETWORKS = [
    "prefix",
    "mux_merger",
    "fish",
    "batcher_oem",
    "batcher_bitonic",
    "balanced",
    "columnsort_tm",
    "muller_preparata",
]


def _warm_caches(_arg) -> None:
    """Per-worker warm-up: pay imports and one plan compilation before
    the first real item, so long-lived workers start with hot caches."""
    import repro.analysis  # noqa: F401 - heavy transitive imports
    from repro.circuits import get_plan
    from repro.core import build_prefix_sorter

    get_plan(build_prefix_sorter(8))


def _measure_item(payload) -> dict:
    """One sweep record; runs in whichever process holds the item."""
    from repro.analysis import measure_network

    name, n = payload
    m = measure_network(name, n)
    return {
        "network": m.network,
        "n": m.n,
        "cost": m.cost,
        "depth": m.depth,
        "time": m.time,
        "claimed_cost": m.claimed_cost,
        "claimed_depth": m.claimed_depth,
        "claimed_time": m.claimed_time,
    }


def bench_items(series) -> list:
    """Items for an ``--engine-bench`` / ``--jit-bench`` series; each
    payload carries its series index, which seeds its random batch."""
    return [
        (f"{name}/n={n}/{mode}", (i, name, n, rows, mode, floor))
        for i, (name, n, rows, mode, floor) in enumerate(series)
    ]


def run_series(items, task, args):
    """``(records, quarantine)`` of ``task`` over ``items``: records in
    item order, under the CLI's ``--jobs`` and per-item guard.

    Timing series on a busy multi-worker pool measure contended
    hardware: ``--jobs`` works for every mode, but a serial run is the
    honest configuration for the bench floors.
    """
    from repro.parallel import report_quarantine, run_items

    quarantine = []

    def on_outcome(outcome) -> None:
        if not outcome.ok:
            quarantine.append(report_quarantine("sweep", outcome))

    outcomes = run_items(
        items, task, jobs=args.jobs,
        worker_init=_warm_caches,
        timeout_s=args.item_timeout or None,
        retries=max(args.item_retries, 0),
        backoff_s=args.item_backoff,
        span="sweep.item",
        on_outcome=on_outcome,
    )
    return [o.value for o in outcomes if o.ok], quarantine


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


#: (builder name, n, batch rows, mode, floor) series for --engine-bench.
#: mode "batched" times a 64-row random batch; "packed-exhaustive" times
#: all 2**n vectors through the bit-packed path.  ``floor`` is the
#: minimum acceptable speedup recorded with the measurement so
#: compare_sweeps.py can gate regressions without external config: the
#: acceptance bars are 5x at the n=1024 prefix sorter and 10x for the
#: packed exhaustive path at n=16; smaller instances have less
#: interpreter overhead to amortize and get proportionally lower floors.
ENGINE_BENCH_SERIES = [
    ("prefix", 64, 64, "batched", 1.5),
    ("prefix", 256, 64, "batched", 3.0),
    ("prefix", 1024, 64, "batched", 5.0),
    ("mux_merger", 256, 64, "batched", 3.0),
    ("mux_merger", 512, 64, "batched", 5.0),
    ("prefix", 16, 1 << 16, "packed-exhaustive", 10.0),
    ("mux_merger", 16, 1 << 16, "packed-exhaustive", 10.0),
]


def _engine_bench_item(payload) -> dict:
    """One interpreter-vs-engine timing record.

    The random batch is seeded per item (not from one shared stream) so
    serial and ``--jobs N`` runs measure identical inputs no matter
    which worker draws them.
    """
    import numpy as np

    from repro.circuits import exhaustive_inputs, get_plan
    from repro.circuits.simulate import simulate_interpreted
    from repro.core import build_mux_merger_sorter, build_prefix_sorter

    index, name, n, rows, mode, floor = payload
    builders = {"prefix": build_prefix_sorter,
                "mux_merger": build_mux_merger_sorter}
    net = builders[name](n)
    plan = get_plan(net)  # compile outside the timed region
    if mode == "packed-exhaustive":
        batch = exhaustive_inputs(n)
    else:
        rng = np.random.default_rng((0xE9, index))
        batch = rng.integers(0, 2, (rows, n)).astype(np.uint8)
    run_engine = lambda: plan.execute(batch)
    if not np.array_equal(run_engine(), simulate_interpreted(net, batch)):
        raise AssertionError(f"engine mismatch on {name} n={n} ({mode})")
    interp_s = _best_of(lambda: simulate_interpreted(net, batch))
    engine_s = _best_of(run_engine)
    record = {
        "network": name,
        "n": n,
        "batch": rows,
        "mode": mode,
        "elements": len(net.elements),
        "interp_s": round(interp_s, 6),
        "engine_s": round(engine_s, 6),
        "speedup": round(interp_s / engine_s, 2),
        "floor": floor,
    }
    print(
        f"  {name} n={n} ({mode}): interp {interp_s:.4f}s "
        f"engine {engine_s:.5f}s -> {record['speedup']}x"
    )
    return record


#: (builder name, n, batch rows, mode, floor) series for --jit-bench.
#: mode "jit-batched" times a B-row random batch through the bit-slice
#: JIT kernel against the level-batched engine's packed path; "jit-single"
#: is the same with one row (worst case for pack/unpack amortization).
#: ``floor`` is the minimum acceptable jit-over-engine speedup: the
#: acceptance bar is 3x at n >= 256 on the mux-merger network (steering
#: muxes fold to 3-op XOR chains, which numpy levels can't fuse); prefix
#: sorters lean on wide prefix-adder cones the engine already batches
#: well, so their floors are proportionally lower.  Floors sit ~25%
#: under values measured on a 1-CPU container to absorb timer noise.
JIT_BENCH_SERIES = [
    ("mux_merger", 256, 192, "jit-batched", 3.0),
    ("mux_merger", 512, 128, "jit-batched", 2.0),
    ("prefix", 256, 128, "jit-batched", 1.5),
    ("prefix", 512, 128, "jit-batched", 1.0),
    ("mux_merger", 256, 1, "jit-single", 4.0),
]


def _jit_bench_item(payload) -> dict:
    """One engine-vs-JIT timing record.

    Both plans are compiled outside the timed region (the JIT's one-off
    codegen cost is recorded separately as ``compile_s``); the engine
    side is timed through the pinned :func:`simulate_engine` path so the
    baseline can never silently route through the JIT itself.  A full
    differential check runs before any timing.
    """
    import numpy as np

    from repro.circuits import get_plan
    from repro.circuits.jit import compile_jit
    from repro.core import build_mux_merger_sorter, build_prefix_sorter

    index, name, n, rows, mode, floor = payload
    builders = {"prefix": build_prefix_sorter,
                "mux_merger": build_mux_merger_sorter}
    net = builders[name](n)
    plan = get_plan(net)
    jplan = compile_jit(net)  # fresh compile so compile_s is honest
    rng = np.random.default_rng((0x717, index))
    batch = rng.integers(0, 2, (rows, n)).astype(np.uint8)
    if not np.array_equal(jplan.execute(batch), plan.execute(batch)):
        raise AssertionError(f"jit mismatch on {name} n={n} ({mode})")
    # Sub-10ms timings on a shared container are noisy; more repeats
    # cost microseconds and keep the floor gate out of the noise band.
    engine_s = _best_of(lambda: plan.execute(batch), repeats=10)
    jit_s = _best_of(lambda: jplan.execute(batch), repeats=10)
    record = {
        "network": name,
        "n": n,
        "batch": rows,
        "mode": mode,
        "elements": len(net.elements),
        "ops": jplan.n_ops,
        "engine_s": round(engine_s, 6),
        "jit_s": round(jit_s, 6),
        "speedup": round(engine_s / jit_s, 2),
        "floor": floor,
        "compile_s": jplan.stats.get("codegen_s"),
    }
    print(
        f"  {name} n={n} B={rows} ({mode}): engine {engine_s:.5f}s "
        f"jit {jit_s:.5f}s -> {record['speedup']}x "
        f"(compile {record['compile_s']:.2f}s, {jplan.n_ops} ops)"
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-lg", type=int, default=10)
    parser.add_argument("--min-lg", type=int, default=4)
    parser.add_argument(
        "--engine-bench",
        action="store_true",
        help="time interpreter vs compiled engine instead of cost/depth/time",
    )
    parser.add_argument(
        "--jit-bench",
        action="store_true",
        help="time compiled engine vs bit-slice JIT kernels",
    )
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial in-process); "
                             "records are identical to serial either way")
    parser.add_argument("--item-timeout", type=float, default=0.0,
                        help="per-item wall-clock budget in seconds (0 = off)")
    parser.add_argument("--item-retries", type=int, default=1,
                        help="retries (with exponential backoff) before quarantining an item")
    parser.add_argument("--item-backoff", type=float, default=0.05,
                        help="initial retry backoff in seconds")
    parser.add_argument("--trace", type=pathlib.Path, default=None,
                        help="enable repro.obs and append a JSON-lines trace here")
    parser.add_argument("--metrics", type=pathlib.Path, default=None,
                        help="export the metrics registry on exit "
                             "(.prom => Prometheus text, else JSON)")
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    import repro.obs as obs
    from repro.ioutil import atomic_write_text

    if args.engine_bench:
        out = args.out or pathlib.Path("BENCH_engine.json")
        items, task = bench_items(ENGINE_BENCH_SERIES), _engine_bench_item
        what = "engine-bench records"
    elif args.jit_bench:
        out = args.out or pathlib.Path("BENCH_jit.json")
        items, task = bench_items(JIT_BENCH_SERIES), _jit_bench_item
        what = "jit-bench records"
    else:
        if not 2 <= args.min_lg <= args.max_lg <= 14:
            print("need 2 <= min-lg <= max-lg <= 14")
            return 2
        out = args.out or pathlib.Path("sweep.json")
        items = [(f"{name}/n={1 << p}", (name, 1 << p))
                 for name in NETWORKS
                 for p in range(args.min_lg, args.max_lg + 1)]
        task = _measure_item
        what = (f"records ({len(NETWORKS)} networks x "
                f"n = 2^{args.min_lg}..2^{args.max_lg})")
    if args.trace or args.metrics:
        obs.enable(trace_path=args.trace)

    records, quarantine = run_series(items, task, args)
    atomic_write_text(out, json.dumps(records, indent=1))
    qpath = out.with_suffix(out.suffix + ".quarantine.json")
    if quarantine:
        atomic_write_text(qpath, json.dumps(quarantine, indent=1))
        print(f"wrote {qpath}: {len(quarantine)} quarantined items")
    elif qpath.is_file():
        qpath.unlink()  # stale quarantine from an earlier run
    obs.export_metrics(args.metrics)
    print(f"wrote {out}: {len(records)} {what}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

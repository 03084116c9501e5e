#!/usr/bin/env python
"""Load generator for the ``repro.serve`` sorting/routing service.

Usage::

    python tools/loadgen.py --requests 4000 --workloads uniform,zipf \
        --n 64 --out benchmarks/results/BENCH_serve.json \
        [--network mux_merger] [--mix sort=0.8,concentrate=0.1,route=0.1] \
        [--paced] [--overload] [--metrics serve_metrics.prom] \
        [--slo-p99-ms 250]

For every workload cell (arrival/request models from
:mod:`repro.workloads`, byte-deterministic under ``--seed``) the tool
drives a live :class:`repro.serve.SortingService` twice:

* **batched** — the real configuration (``--max-lanes`` coalescing,
  credit admission), submitted through a credit-aware client window
  that honours ``shed`` responses with the suggested backoff;
* **naive** — the same requests with coalescing disabled
  (``max_lanes=1``): one engine pass per request, the per-request
  baseline the batched path must beat.

Every accepted answer is **replayed against ground truth** (``np.sort``
for sorts/concentrations, permutation identity for routes); a single
accepted-but-wrong answer fails the run.  Per-cell records go to
``--out`` in the engine-benchmark schema gated by
``tools/compare_sweeps.py``: ``speedup`` is batched/naive throughput
with an absolute ``floor`` (default 2.0 — the packed path's batching
dividend), plus latency percentiles (p50/p90/p99, each within
``rel_err`` of the exact order statistic), mean batch fill, and shed
counts.

``--overload`` adds a seeded overload cell: a burst far beyond the
credit pool against a deliberately small gate, with *no* client
retry — admission must shed the excess via credits (zero sheds fails:
the overload proved nothing), credits must never go negative, and the
accepted subset must still be perfectly correct.  Its record's
``speedup`` is goodput vs the naive baseline (floor 1.0: shedding must
protect throughput, not collapse it).

Exit status: 0 on success, 1 on any correctness/SLO/efficacy failure,
2 on usage errors.
"""

import argparse
import asyncio
import os
import pathlib
import sys
import time

# Allow `python tools/loadgen.py` without an exported PYTHONPATH.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if os.path.isdir(_SRC) and os.path.abspath(_SRC) not in map(os.path.abspath, sys.path):
    sys.path.insert(0, os.path.abspath(_SRC))

import numpy as np

DEFAULT_WORKLOADS = "uniform,poisson,zipf"
SHED_RETRY_LIMIT = 200


def build_requests(workload_name, n, count, rate, seed, mix):
    """Materialize one cell's deterministic request list.

    Workload rows become ``sort`` payloads; a seeded per-index draw
    promotes some to ``concentrate`` (same row as the request mask) or
    ``route`` (a seeded permutation — the row is only an arrival).
    """
    from repro.serve import concentrate_request, route_request, sort_request
    from repro.workloads import make_workload, stable_hash

    wl = make_workload(workload_name, n=n, rate=rate, seed=seed)
    kind_rng = np.random.default_rng(
        np.random.SeedSequence([seed, stable_hash(workload_name, "loadgen-mix")])
    )
    kinds, probs = zip(*mix.items())
    picks = kind_rng.choice(len(kinds), size=count, p=list(probs))
    requests, arrivals = [], []
    for req, pick in zip(wl.stream(count), picks):
        kind = kinds[int(pick)]
        tag = f"{req.tag}/{req.index}"
        if kind == "route":
            width = max(2, 1 << max(1, int(req.n - 1).bit_length()))
            requests.append(route_request(kind_rng.permutation(width), tag))
        elif kind == "concentrate":
            requests.append(concentrate_request(req.bits, tag))
        else:
            requests.append(sort_request(req.bits, tag))
        arrivals.append(req.t)
    return requests, arrivals


def replay(request, response):
    """Ground-truth check of one accepted answer; True = correct."""
    if request.kind == "sort":
        return np.array_equal(response.result, np.sort(request.payload))
    if request.kind == "concentrate":
        ok = np.array_equal(response.result, np.sort(request.payload)[::-1])
        return ok and response.granted == int(request.payload.sum())
    # route: result[j] must be the source whose destination is j
    return np.array_equal(
        request.payload[response.result], np.arange(request.n)
    )


async def drive(requests, arrivals, config, window, paced, retry_sheds):
    """Run one cell against a live service; returns (responses, wall_s,
    shed_count).  ``retry_sheds`` implements the client credit loop."""
    from repro.serve import SortingService, sort_request

    async with SortingService(config) as svc:
        # Warm the fabric (netlist build + plan compile) outside timing.
        widths = sorted({svc.executor.pad_width(r.n) for r in requests})
        for w in widths:
            await svc.submit(sort_request(np.zeros(w, dtype=np.uint8)))

        sem = asyncio.Semaphore(window)
        sheds = 0
        t_start = time.perf_counter()

        async def one(i, req):
            nonlocal sheds
            if paced:
                delay = arrivals[i] - (time.perf_counter() - t_start)
                if delay > 0:
                    await asyncio.sleep(delay)
            async with sem:
                for _ in range(SHED_RETRY_LIMIT if retry_sheds else 1):
                    resp = await svc.submit(req)
                    if not resp.shed:
                        return resp
                    sheds += 1
                    if retry_sheds:
                        await asyncio.sleep(resp.retry_after_s)
                return resp  # still shedding after the retry budget

        responses = await asyncio.gather(
            *(one(i, r) for i, r in enumerate(requests))
        )
        wall_s = time.perf_counter() - t_start
        return list(responses), wall_s, sheds


def run_cell(args, workload_name, mix):
    """Measure one workload cell in batched and naive modes."""
    from repro.obs import REL_ERR, MetricsRegistry
    from repro.serve import ServeConfig

    requests, arrivals = build_requests(
        workload_name, args.n, args.requests, args.rate, args.seed, mix
    )
    results = {}
    for mode in ("batched", "naive"):
        if mode == "batched":
            config = ServeConfig(
                network=args.network, max_lanes=args.max_lanes,
                max_delay_s=args.max_delay_ms * 1e-3, credits=args.credits,
            )
        else:
            config = ServeConfig(
                network=args.network, max_lanes=1, max_delay_s=0.0,
                credits=args.credits,
            )
        responses, wall_s, sheds = asyncio.run(drive(
            requests, arrivals, config,
            window=args.window, paced=args.paced, retry_sheds=True,
        ))
        ok = [r for r in responses if r.ok]
        wrong = sum(
            not replay(req, resp)
            for req, resp in zip(requests, responses) if resp.ok
        )
        latency = MetricsRegistry().histogram("latency_s")
        for r in ok:
            latency.observe(r.total_s)
        results[mode] = {
            "throughput_rps": len(ok) / wall_s if wall_s else 0.0,
            "completed": len(ok),
            "sheds": sheds,
            "wrong": wrong,
            "p50_ms": latency.quantile(0.5) * 1e3,
            "p90_ms": latency.quantile(0.9) * 1e3,
            "p99_ms": latency.quantile(0.99) * 1e3,
            "mean_batch_lanes": float(np.mean([r.batch_lanes for r in ok]))
            if ok else 0.0,
            "recovered": sum(r.recovered for r in ok),
        }
    b, nv = results["batched"], results["naive"]
    speedup = b["throughput_rps"] / max(nv["throughput_rps"], 1e-9)
    record = {
        "network": args.network,
        "n": args.n,
        "mode": f"batched/{workload_name}",
        "model": workload_name,
        "requests": args.requests,
        "speedup": round(speedup, 2),
        "floor": args.floor,
        "throughput_rps": round(b["throughput_rps"], 1),
        "naive_rps": round(nv["throughput_rps"], 1),
        "p50_ms": round(b["p50_ms"], 3),
        "p90_ms": round(b["p90_ms"], 3),
        "p99_ms": round(b["p99_ms"], 3),
        "naive_p99_ms": round(nv["p99_ms"], 3),
        "rel_err": REL_ERR,
        "mean_batch_lanes": round(b["mean_batch_lanes"], 1),
        "sheds": b["sheds"],
        "silent_wrong": b["wrong"] + nv["wrong"],
        "recovered": b["recovered"],
        "cpus": os.cpu_count() or 1,
    }
    failures = []
    if record["silent_wrong"]:
        failures.append(
            f"{workload_name}: {record['silent_wrong']} accepted-but-wrong answers"
        )
    if args.slo_p99_ms is not None and record["p99_ms"] > args.slo_p99_ms:
        failures.append(
            f"{workload_name}: p99 {record['p99_ms']:.1f} ms exceeds SLO "
            f"{args.slo_p99_ms} ms"
        )
    return record, failures


def run_overload(args):
    """Seeded overload: flood a small credit pool with no client retry."""
    from repro.serve import ServeConfig

    mix = {"sort": 1.0}
    count = max(args.overload_requests, 4 * args.overload_credits)
    requests, arrivals = build_requests(
        "poisson", args.n, count, args.rate, args.seed + 1, mix
    )
    over_cfg = ServeConfig(
        network=args.network, max_lanes=args.max_lanes,
        max_delay_s=args.max_delay_ms * 1e-3,
        credits=args.overload_credits,
    )
    responses, wall_s, _ = asyncio.run(drive(
        requests, arrivals, over_cfg,
        window=count, paced=False, retry_sheds=False,
    ))
    ok = [r for r in responses if r.ok]
    shed = [r for r in responses if r.shed]
    wrong = sum(
        not replay(req, resp)
        for req, resp in zip(requests, responses) if resp.ok
    )
    # Naive baseline on the accepted volume, for the goodput ratio.
    naive_cfg = ServeConfig(
        network=args.network, max_lanes=1, max_delay_s=0.0,
        credits=args.credits,
    )
    naive_reqs = requests[: max(1, len(ok))]
    naive_resps, naive_wall, _ = asyncio.run(drive(
        naive_reqs, arrivals, naive_cfg,
        window=args.window, paced=False, retry_sheds=True,
    ))
    naive_rps = sum(r.ok for r in naive_resps) / max(naive_wall, 1e-9)
    goodput = len(ok) / max(wall_s, 1e-9)
    record = {
        "network": args.network,
        "n": args.n,
        "mode": "overload",
        "model": "poisson",
        "requests": count,
        "speedup": round(goodput / max(naive_rps, 1e-9), 2),
        "floor": 1.0,
        "throughput_rps": round(goodput, 1),
        "naive_rps": round(naive_rps, 1),
        "accepted": len(ok),
        "sheds": len(shed),
        "shed_rate": round(len(shed) / len(responses), 3),
        "silent_wrong": wrong,
        "retry_after_ms_mean": round(
            1e3 * float(np.mean([r.retry_after_s for r in shed])), 3
        ) if shed else 0.0,
        "cpus": os.cpu_count() or 1,
    }
    failures = []
    if not shed:
        failures.append(
            "overload: zero sheds — the overload run proved nothing "
            "(raise the flood or shrink --overload-credits)"
        )
    if wrong:
        failures.append(f"overload: {wrong} accepted-but-wrong answers")
    if record["accepted"] == 0:
        failures.append("overload: nothing was accepted — gate wedged shut")
    return record, failures


def parse_mix(spec):
    """``sort=0.8,concentrate=0.1,route=0.1`` -> normalized dict."""
    from repro.serve import KINDS

    mix = {}
    for part in spec.split(","):
        if not part:
            continue
        kind, _, weight = part.partition("=")
        kind = kind.strip()
        if kind not in KINDS:
            raise SystemExit(f"unknown request kind {kind!r} in --mix")
        mix[kind] = float(weight) if weight else 1.0
    total = sum(mix.values())
    if not mix or total <= 0:
        raise SystemExit("--mix must name at least one kind with weight > 0")
    return {k: v / total for k, v in mix.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--requests", type=int, default=4000)
    parser.add_argument("--workloads", default=DEFAULT_WORKLOADS,
                        help="comma list from repro.workloads.WORKLOADS")
    parser.add_argument("--n", type=int, default=64, help="request width")
    parser.add_argument("--network", default="mux_merger",
                        choices=("mux_merger", "prefix"))
    parser.add_argument("--rate", type=float, default=20000.0,
                        help="declared workload arrival rate (used when --paced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mix", default="sort=0.8,concentrate=0.1,route=0.1")
    parser.add_argument("--max-lanes", type=int, default=256)
    parser.add_argument("--max-delay-ms", type=float, default=2.0)
    parser.add_argument("--credits", type=int, default=4096)
    parser.add_argument("--window", type=int, default=512,
                        help="client-side in-flight request window")
    parser.add_argument("--floor", type=float, default=2.0,
                        help="absolute batched/naive speedup floor per record")
    parser.add_argument("--paced", action="store_true",
                        help="replay workload arrival times (open loop) "
                             "instead of saturating (closed loop)")
    parser.add_argument("--slo-p99-ms", type=float, default=None)
    parser.add_argument("--overload", action="store_true",
                        help="add the seeded overload/shed cell")
    parser.add_argument("--overload-credits", type=int, default=256)
    parser.add_argument("--overload-requests", type=int, default=2000)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write records here (BENCH_serve.json schema)")
    parser.add_argument("--metrics", type=pathlib.Path, default=None,
                        help="enable repro.obs and export the metrics registry "
                             "here on exit (.prom => Prometheus text, else JSON)")
    parser.add_argument("--trace", type=pathlib.Path, default=None,
                        help="enable repro.obs tracing to this JSONL file")
    args = parser.parse_args(argv)

    import repro.obs as obs

    if args.metrics or args.trace:
        obs.enable(trace_path=str(args.trace) if args.trace else None)

    mix = parse_mix(args.mix)
    records, failures = [], []
    for workload_name in [w for w in args.workloads.split(",") if w]:
        record, cell_failures = run_cell(args, workload_name, mix)
        records.append(record)
        failures.extend(cell_failures)
        print(f"[{workload_name:>11}] batched {record['throughput_rps']:>9.1f} rps "
              f"(p99 {record['p99_ms']:.2f} ms ±{record['rel_err']:.0%}, "
              f"fill {record['mean_batch_lanes']:.0f} lanes) "
              f"vs naive {record['naive_rps']:>9.1f} rps -> {record['speedup']}x "
              f"(floor {record['floor']}x)")
    if args.overload:
        record, over_failures = run_overload(args)
        records.append(record)
        failures.extend(over_failures)
        print(f"[   overload] accepted {record['accepted']}/{record['requests']} "
              f"(shed rate {record['shed_rate']:.0%}), goodput "
              f"{record['throughput_rps']:.1f} rps = {record['speedup']}x naive, "
              f"{record['silent_wrong']} wrong answers")

    obs.export_metrics(args.metrics)
    if args.out is not None:
        from repro.ioutil import atomic_write_json

        args.out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(args.out, records)
        print(f"wrote {args.out} ({len(records)} records)")

    if failures:
        print(f"{len(failures)} failure(s):")
        for line in failures:
            print(" ", line)
        return 1
    print("loadgen ok: all accepted answers verified against ground truth")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

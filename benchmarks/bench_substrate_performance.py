"""Substrate performance benchmarks (library engineering, not paper claims).

Times the hot paths a downstream user pays for: netlist construction,
vectorized simulation throughput, payload-carrying simulation, the
register-transfer pipeline, and gate-level lowering.  These establish a
performance baseline so regressions in the simulator are caught.

The interpreter-vs-compiled-engine series assert the engine's headline
speedups (≥ 5× on the n=1024 prefix sorter, ≥ 10× for the bit-packed
exhaustive path at n=16); ``tools/sweep.py --engine-bench`` records the
same series to ``BENCH_engine.json`` for the drift gate in
``tools/compare_sweeps.py``.
"""

import time

import numpy as np

from repro.analysis import format_table
from repro.circuits import (
    PipelinedNetlist,
    exhaustive_inputs,
    get_plan,
    lower_to_gates,
    simulate,
    simulate_interpreted,
    simulate_payload,
)
from repro.core import build_mux_merger_sorter, build_prefix_sorter


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_perf_construction(benchmark, emit):
    net = benchmark(build_mux_merger_sorter, 1024)
    emit(
        f"construction throughput: mux-merger n=1024 -> "
        f"{len(net.elements)} elements per build call"
    )


def test_perf_vectorized_simulation(benchmark, emit, rng):
    net = build_mux_merger_sorter(512)
    batch = rng.integers(0, 2, (64, 512)).astype(np.uint8)
    out = benchmark(simulate, net, batch)
    assert np.array_equal(out, np.sort(batch, axis=1))
    evals = len(net.elements) * batch.shape[0]
    emit(
        f"vectorized simulation: {len(net.elements)} elements x 64-row "
        f"batch = {evals} element-evaluations per call"
    )


def test_perf_payload_simulation(benchmark, emit, rng):
    net = build_mux_merger_sorter(256)
    tags = rng.integers(0, 2, (16, 256)).astype(np.uint8)
    pays = np.tile(np.arange(256, dtype=np.int64), (16, 1))
    t, p = benchmark(simulate_payload, net, tags, pays)
    assert sorted(p[0].tolist()) == list(range(256))
    emit("payload simulation: 256-input sorter, 16-row batch per call")


def test_perf_pipeline_step(benchmark, emit, rng):
    net = build_mux_merger_sorter(64)
    pipe = PipelinedNetlist(net)
    vec = rng.integers(0, 2, 64).tolist()

    def run():
        pipe.reset()
        for _ in range(8):
            pipe.step(vec)

    benchmark(run)
    emit(
        f"register-transfer pipeline: 8 cycles of a {pipe.latency}-stage "
        f"64-input sorter per call"
    )


def test_perf_engine_vs_interpreter(benchmark, emit, rng):
    """Compiled engine ≥ 5× over the interpreter at n=1024 (acceptance)."""
    lines = ["n    batch  interp_s   engine_s   speedup"]
    speedups = {}
    for n in (256, 512, 1024):
        net = build_prefix_sorter(n)
        batch = rng.integers(0, 2, (64, n)).astype(np.uint8)
        plan = get_plan(net)  # compile outside the timed region
        ti = _best_of(lambda: simulate_interpreted(net, batch))
        te = _best_of(lambda: plan.execute(batch))
        assert np.array_equal(plan.execute(batch), simulate_interpreted(net, batch))
        speedups[n] = ti / te
        lines.append(
            f"{n:<4} {64:<6} {ti:<10.4f} {te:<10.5f} {ti / te:.1f}x"
        )
    net = build_prefix_sorter(1024)
    batch = rng.integers(0, 2, (64, 1024)).astype(np.uint8)
    benchmark(simulate, net, batch)
    emit("\n".join(lines))
    assert speedups[1024] >= 5.0, (
        f"engine speedup {speedups[1024]:.1f}x below the 5x acceptance bar"
    )


def test_perf_engine_packed_exhaustive(benchmark, emit):
    """Bit-packed exhaustive path ≥ 10× at n=16 (acceptance)."""
    net = build_prefix_sorter(16)
    batch = exhaustive_inputs(16)  # all 65536 vectors
    plan = get_plan(net)
    ti = _best_of(lambda: simulate_interpreted(net, batch))
    tp = _best_of(lambda: plan.execute(batch))
    assert np.array_equal(plan.execute(batch), simulate_interpreted(net, batch))
    benchmark(plan.execute, batch)
    speedup = ti / tp
    emit(
        f"bit-packed exhaustive n=16 (2^16 vectors): interpreter {ti:.4f}s, "
        f"packed engine {tp:.5f}s -> {speedup:.1f}x"
    )
    assert speedup >= 10.0, (
        f"packed speedup {speedup:.1f}x below the 10x acceptance bar"
    )


def test_perf_lowering(benchmark, emit):
    net = build_prefix_sorter(128)
    lowered = benchmark(lower_to_gates, net)
    emit(
        f"gate lowering: {len(net.elements)} elements -> "
        f"{len(lowered.elements)} gates per call"
    )

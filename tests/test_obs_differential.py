"""Differential guarantee: instrumentation never changes simulation output.

The observed execution path drives the *same* kernels one fused step at
a time, so enabling :mod:`repro.obs` must be bit-invisible to every
simulator — interpreter and compiled engine, bit path (partial and
multi-word batches) and payload path, on healthy and on faulted
netlists.  These tests run each
simulation once with observability off and once fully on (tracing +
metrics + activity) and require identical arrays.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.circuits import apply_faults, enumerate_faults, get_plan, sample_faults
from repro.circuits.simulate import (
    simulate_interpreted,
    simulate_payload_interpreted,
)
from repro.core import build_mux_merger_sorter, build_prefix_sorter

BUILDERS = {"prefix": build_prefix_sorter, "mux_merger": build_mux_merger_sorter}


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


def _with_obs(fn):
    """Run ``fn`` twice — observability off, then fully on — and return
    both results."""
    obs.reset()
    plain = fn()
    obs.enable()  # ring sink + metrics + activity: every collector live
    try:
        observed = fn()
    finally:
        obs.reset()
    return plain, observed


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_engine_partial_word_identical(name, rng):
    net = BUILDERS[name](16)
    batch = rng.integers(0, 2, (33, 16)).astype(np.uint8)  # < one word
    plain, observed = _with_obs(lambda: get_plan(net).execute(batch))
    assert np.array_equal(plain, observed)
    assert np.array_equal(plain, np.sort(batch, axis=1))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_engine_packed_identical(name, rng):
    net = BUILDERS[name](16)
    batch = rng.integers(0, 2, (130, 16)).astype(np.uint8)  # >1 word + pad
    plain, observed = _with_obs(lambda: get_plan(net).execute(batch))
    assert np.array_equal(plain, observed)
    assert np.array_equal(plain, np.sort(batch, axis=1))


def test_engine_taps_identical(rng):
    """Tap reads (fault-activation probes) are part of the output too."""
    net = build_prefix_sorter(8)
    batch = rng.integers(0, 2, (20, 8)).astype(np.uint8)
    taps = [0, 3, 7]

    def run():
        out, tapped = get_plan(net).execute(batch, taps=taps)
        return out, tapped

    (o1, t1), (o2, t2) = _with_obs(run)
    assert np.array_equal(o1, o2) and np.array_equal(t1, t2)


def test_interpreter_identical(rng):
    net = build_prefix_sorter(8)
    batch = rng.integers(0, 2, (25, 8)).astype(np.uint8)
    plain, observed = _with_obs(lambda: simulate_interpreted(net, batch))
    assert np.array_equal(plain, observed)


def test_payload_paths_identical(rng):
    """Tag+payload runs through both the engine and the interpreter."""
    n = 8
    net = build_prefix_sorter(n)
    tags = rng.integers(0, 2, (12, n)).astype(np.uint8)
    payloads = rng.integers(0, 1000, (12, n)).astype(np.int64)

    plain, observed = _with_obs(
        lambda: get_plan(net).execute_payload(tags, payloads)
    )
    assert np.array_equal(plain[0], observed[0])
    assert np.array_equal(plain[1], observed[1])

    plain_i, observed_i = _with_obs(
        lambda: simulate_payload_interpreted(net, tags, payloads)
    )
    assert np.array_equal(plain_i[0], observed_i[0])
    assert np.array_equal(plain_i[1], observed_i[1])


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_faulted_netlists_identical(name, rng):
    """The guarantee must hold on broken circuits as well — campaigns
    run instrumented, and a divergence there would corrupt the study."""
    net = BUILDERS[name](8)
    batch = rng.integers(0, 2, (70, 8)).astype(np.uint8)  # > one word
    small = batch[:16]  # a partial word, also run on the interpreter
    faults = sample_faults(enumerate_faults(net), 6, seed=0xD1FF)
    for fault in faults:
        mutant = apply_faults(net, (fault,))
        plan = get_plan(mutant)
        p1, p2 = _with_obs(lambda: plan.execute(batch))
        assert np.array_equal(p1, p2), fault.id
        u1, u2 = _with_obs(lambda: plan.execute(small))
        assert np.array_equal(u1, u2), fault.id
        i1, i2 = _with_obs(lambda: simulate_interpreted(mutant, small))
        assert np.array_equal(i1, i2), fault.id
        # and the engine still matches the interpreter while observed
        obs.enable()
        try:
            assert np.array_equal(
                plan.execute(small),
                simulate_interpreted(mutant, small),
            ), fault.id
        finally:
            obs.reset()


def test_supervisor_identical(rng):
    """Supervised sorts (healthy hardware) return the same answer and
    report with instrumentation on."""
    from repro.runtime import Supervisor

    row = rng.integers(0, 2, 16).astype(np.uint8)

    def run():
        out, report = Supervisor("prefix").sort_verbose(row)
        return out, report.tier

    (o1, t1), (o2, t2) = _with_obs(run)
    assert np.array_equal(o1, o2)
    assert t1 == t2

"""Differential tests: compiled engine ≡ element-at-a-time interpreter.

The engine (:mod:`repro.circuits.engine`) must be bit-identical to the
retained interpreters on every construction in the repository — the
interpreter is the oracle.  Coverage:

* exhaustive (all ``2**n`` vectors) for every netlist with ≤ 16 inputs:
  prefix sorter, mux-merger sorter, fish-sorter components,
  concentrator, radix-permuter distributors;
* random + corner batches for wider interfaces;
* hypothesis-driven single vectors and random-netlist fuzz
  (:func:`repro.circuits.fuzz.random_netlist`) exercising every element
  kind, on both engine paths (the bit path and the payload path) and
  through ``simulate``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    CircuitBuilder,
    exhaustive_inputs,
    get_plan,
    random_netlist,
    simulate,
    simulate_interpreted,
    simulate_payload,
    simulate_payload_interpreted,
)
from repro.core import build_mux_merger_sorter, build_prefix_sorter
from repro.core.fish_sorter import FishSorter, fish_sort_behavioral
from repro.networks.concentrator import SortingConcentrator
from repro.networks.permutation import RadixPermuter


def _check_all_paths(net, batch):
    """Interpreter vs the engine's bit path vs ``simulate``, bit for bit."""
    expect = simulate_interpreted(net, batch)
    assert np.array_equal(get_plan(net).execute(batch), expect)
    assert np.array_equal(simulate(net, batch), expect)


def _check_payload(net, tags, pays):
    t_ref, p_ref = simulate_payload_interpreted(net, tags, pays)
    t, p = simulate_payload(net, tags, pays)
    assert np.array_equal(t, t_ref)
    assert np.array_equal(p, p_ref)


def _batch_for(net, rng, trials=128):
    """Exhaustive for ≤ 16 inputs, random + corners otherwise."""
    n = len(net.inputs)
    if n <= 16:
        return exhaustive_inputs(n)
    corners = np.vstack([np.zeros(n, np.uint8), np.ones(n, np.uint8)])
    return np.vstack(
        [corners, rng.integers(0, 2, (trials, n)).astype(np.uint8)]
    )


class TestConstructionDifferential:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_prefix_sorter_exhaustive(self, n, rng):
        net = build_prefix_sorter(n)
        _check_all_paths(net, _batch_for(net, rng))

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_mux_merger_sorter_exhaustive(self, n, rng):
        net = build_mux_merger_sorter(n)
        _check_all_paths(net, _batch_for(net, rng))

    def test_fish_sorter_components(self, rng):
        fs = FishSorter(16)
        for net in (fs.input_mux, fs.group_sorter, fs.output_demux):
            _check_all_paths(net, _batch_for(net, rng))

    def test_fish_sorter_end_to_end(self, rng):
        fs = FishSorter(16)
        for _ in range(16):
            bits = rng.integers(0, 2, 16).astype(np.uint8)
            out, _ = fs.sort(bits)
            assert np.array_equal(out, fish_sort_behavioral(bits, fs.k))

    def test_fish_sorter_payload_multiset(self, rng):
        fs = FishSorter(16)
        bits = rng.integers(0, 2, 16).astype(np.uint8)
        pays = np.arange(16, dtype=np.int64)
        out, out_pays, _ = fs.sort_with_payload(bits, pays)
        assert sorted(out_pays.tolist()) == list(range(16))
        for tag, pay in zip(out, out_pays):
            assert tag == bits[pay]

    def test_concentrator_netlist_exhaustive(self, rng):
        conc = SortingConcentrator(8, 4)  # truncated + dead-pruned
        _check_all_paths(conc.netlist, _batch_for(conc.netlist, rng))
        pays = np.arange(8, dtype=np.int64)
        tags = rng.integers(0, 2, (32, 8)).astype(np.uint8)
        _check_payload(conc.netlist, tags, np.tile(pays, (32, 1)))

    def test_concentrator_routing(self, rng):
        conc = SortingConcentrator(8, 4)
        req = np.array([1, 0, 0, 1, 0, 1, 0, 0], dtype=np.uint8)
        res = conc.concentrate(req, np.arange(8))
        assert sorted(res.granted.tolist()) == [0, 3, 5]

    def test_radix_permuter_distributors_exhaustive(self, rng):
        perm = RadixPermuter(8, backend="mux_merger")
        for net in perm._combinational.values():
            _check_all_paths(net, _batch_for(net, rng))

    def test_radix_permuter_routes(self, rng):
        permuter = RadixPermuter(8, backend="mux_merger")
        p = rng.permutation(8)
        routed, _ = permuter.permute(p, np.arange(8))
        assert np.array_equal(routed[p], np.arange(8))

    def test_payload_sorter_differential(self, rng):
        net = build_mux_merger_sorter(16)
        tags = rng.integers(0, 2, (48, 16)).astype(np.uint8)
        pays = np.tile(np.arange(16, dtype=np.int64), (48, 1))
        _check_payload(net, tags, pays)


class TestFuzzDifferential:
    def test_random_netlists_all_paths(self, rng):
        for _ in range(40):
            net = random_netlist(rng, n_inputs=8, n_elements=50, n_outputs=6)
            _check_all_paths(net, _batch_for(net, rng))

    def test_random_netlists_payload(self, rng):
        for _ in range(40):
            net = random_netlist(rng, n_inputs=7, n_elements=40, n_outputs=5)
            tags = rng.integers(0, 2, (21, 7)).astype(np.uint8)
            pays = rng.integers(-5, 100, (21, 7)).astype(np.int64)
            _check_payload(net, tags, pays)

    def test_packed_odd_batch_sizes(self, rng):
        """Word-boundary edges: 1, 63, 64, 65, 127, 128 rows."""
        net = random_netlist(rng, n_inputs=9, n_elements=60, n_outputs=5)
        plan = get_plan(net)
        for B in (1, 63, 64, 65, 127, 128):
            batch = rng.integers(0, 2, (B, 9)).astype(np.uint8)
            assert np.array_equal(plan.execute(batch),
                                  simulate_interpreted(net, batch))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_hypothesis_random_netlist(self, seed):
        rng = np.random.default_rng(seed)
        net = random_netlist(rng, n_inputs=6, n_elements=35, n_outputs=4)
        batch = exhaustive_inputs(6)
        assert np.array_equal(get_plan(net).execute(batch),
                              simulate_interpreted(net, batch))

    @settings(max_examples=60, deadline=None)
    @given(bits=st.lists(st.integers(0, 1), min_size=16, max_size=16))
    def test_hypothesis_prefix_sorter_vectors(self, bits):
        net = build_prefix_sorter(16)
        out = simulate(net, [bits])
        assert out[0].tolist() == sorted(bits)
        assert np.array_equal(out, simulate_interpreted(net, [bits]))


class TestScalarOracle:
    def test_engine_matches_register_transfer_scalar_eval(self, rng):
        """Third implementation: the RTL scalar evaluator agrees too."""
        from repro.circuits.sequential import _eval_element

        for _ in range(10):
            net = random_netlist(rng, n_inputs=6, n_elements=25, n_outputs=4)
            vec = rng.integers(0, 2, 6).astype(np.uint8)
            values = dict(zip(net.inputs, (int(v) for v in vec)))
            values.update(net.constants)
            for e in net.elements:
                outs = _eval_element(e, [values[w] for w in e.ins])
                for w, v in zip(e.outs, outs):
                    values[w] = v
            expect = [values[w] for w in net.outputs]
            assert simulate(net, vec[None, :])[0].tolist() == expect

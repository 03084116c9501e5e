"""Unit tests for the compiled execution engine and its caches."""

import gc

import numpy as np
import pytest

from repro.circuits import (
    CircuitBuilder,
    clear_plan_cache,
    compile_plan,
    exhaustive_inputs,
    fuse_elements,
    get_plan,
    plan_cache_size,
    random_netlist,
    simulate,
    simulate_interpreted,
)
from repro.circuits.netlist import Netlist
from repro.circuits.simulate import _as_batch
from repro.core import build_mux_merger_sorter, build_prefix_sorter


def _sorter_net(n=8):
    return build_mux_merger_sorter(n)


class TestFusion:
    def test_independent_elements_fuse_into_one_step(self):
        b = CircuitBuilder()
        ws = b.add_inputs(8)
        outs = []
        for i in range(0, 8, 2):
            outs.extend(b.comparator(ws[i], ws[i + 1]))
        net = b.build(outs)
        steps = fuse_elements(net.elements)
        assert len(steps) == 1
        assert steps[0].kind == "COMPARATOR"
        assert steps[0].in_idx.shape == (4, 2)
        assert steps[0].level == 0

    def test_chained_elements_get_levels(self):
        b = CircuitBuilder()
        x, y, z = b.add_inputs(3)
        net = b.build([b.and_(b.and_(x, y), z)])
        steps = fuse_elements(net.elements)
        assert [s.level for s in steps] == [0, 1]

    def test_buf_chains_are_levelized(self):
        # Zero-(paper-)depth buffers still occupy execution levels, so
        # same-kind chains never land in one fused step.
        b = CircuitBuilder()
        x = b.add_input()
        net = b.build([b.buf(b.buf(b.buf(x)))])
        steps = fuse_elements(net.elements)
        assert len(steps) == 3
        out = simulate(net, [[1]])
        assert out.tolist() == [[1]]

    def test_plan_counts(self):
        net = _sorter_net(8)
        plan = compile_plan(net)
        assert plan.n_elements == len(net.elements)
        assert plan.n_levels >= 1
        assert sum(len(s.in_idx) for s in plan.steps) == len(net.elements)


class TestPlanCache:
    def test_get_plan_is_memoized(self):
        net = _sorter_net()
        assert get_plan(net) is get_plan(net)

    def test_cache_is_weak(self):
        clear_plan_cache()
        net = _sorter_net()
        get_plan(net)
        assert plan_cache_size() == 1
        del net
        gc.collect()
        assert plan_cache_size() == 0

    def test_simulate_warms_the_cache(self):
        clear_plan_cache()
        net = _sorter_net()
        simulate(net, exhaustive_inputs(8))
        assert plan_cache_size() == 1

    def test_builder_precompile(self):
        clear_plan_cache()
        b = CircuitBuilder()
        x, y = b.add_inputs(2)
        net = b.build(list(b.comparator(x, y)), precompile=True)
        assert plan_cache_size() == 1
        assert get_plan(net).n_elements == 1


class TestPathSelection:
    @pytest.mark.parametrize("lanes", [1, 2, 63, 64, 65, 129])
    def test_one_bit_path_matches_interpreter(self, lanes, rng):
        """``execute`` is the one bit path at every batch size: outputs
        and tapped wires equal the interpreter's across word edges."""
        nets = [build_prefix_sorter(8), _sorter_net(8),
                random_netlist(rng, n_inputs=7, n_elements=40, n_outputs=5)]
        for net in nets:
            plan = get_plan(net)
            batch = rng.integers(0, 2, (lanes, len(net.inputs))).astype(np.uint8)
            expect = simulate_interpreted(net, batch)
            assert np.array_equal(plan.execute(batch), expect)
            taps = sorted(rng.choice(net.n_wires, size=5, replace=False).tolist())
            out, tapped = plan.execute(batch, taps=taps)
            # ground truth: the same netlist with outputs = tapped wires
            probe = Netlist(net.n_wires, net.elements, net.inputs, taps,
                            net.constants, name="probe")
            assert np.array_equal(out, expect)
            assert np.array_equal(tapped, simulate_interpreted(probe, batch))

    def test_empty_batch(self):
        net = _sorter_net(8)
        out = simulate(net, np.zeros((0, 8), dtype=np.uint8))
        assert out.shape == (0, 8)

    def test_constants_only_netlist(self):
        b = CircuitBuilder()
        x = b.add_input()
        one = b.const(1)
        zero = b.const(0)
        net = b.build([b.and_(x, one), b.or_(x, zero), one, zero])
        for rows in (1, 200):
            batch = np.tile(np.array([[1]], dtype=np.uint8), (rows, 1))
            out = simulate(net, batch)
            assert out.tolist() == [[1, 1, 1, 0]] * rows

    def test_output_is_contiguous_uint8(self, rng):
        net = _sorter_net(8)
        for rows in (3, 100):
            out = simulate(net, rng.integers(0, 2, (rows, 8)).astype(np.uint8))
            assert out.dtype == np.uint8
            assert out.flags["C_CONTIGUOUS"]


class TestAsBatch:
    def test_contiguous_uint8_not_copied(self):
        arr = np.zeros((4, 8), dtype=np.uint8)
        assert _as_batch(arr) is arr

    def test_1d_uint8_promoted_without_copy_of_data(self):
        arr = np.ones(8, dtype=np.uint8)
        out = _as_batch(arr)
        assert out.shape == (1, 8)
        assert out.base is arr or out.base is arr.base

    def test_noncontiguous_converted(self):
        arr = np.zeros((8, 4), dtype=np.uint8).T  # F-contiguous view
        out = _as_batch(arr)
        assert out.flags["C_CONTIGUOUS"]
        assert out.shape == (4, 8)

    def test_conversion_still_validates_range(self):
        with pytest.raises(ValueError, match="0/1"):
            _as_batch([[0, 2]])
        with pytest.raises(ValueError, match="0/1"):
            _as_batch(np.array([[0, 9]], dtype=np.int64))

    def test_3d_rejected(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            _as_batch(np.zeros((2, 2, 2), dtype=np.uint8))


class TestNetlistMemoization:
    def test_cost_and_stats_memoized(self):
        net = _sorter_net(8)
        c1 = net.cost()
        assert net._cost == c1
        assert net.cost() == c1
        s1 = net.stats()
        assert net.stats() is s1
        assert s1.cost == c1
        assert s1.n_elements == len(net.elements)

    def test_memo_matches_fresh_recount(self):
        net = _sorter_net(8)
        net.cost()
        assert net.cost() == sum(e.cost for e in net.elements)


class TestSerializeLoadCache:
    def test_load_returns_same_object_and_plan(self, tmp_path):
        from repro.circuits import load, save

        net = _sorter_net(8)
        path = tmp_path / "net.json"
        save(net, path)
        a = load(path)
        b = load(path)
        assert a is b
        assert get_plan(a) is get_plan(b)
        c = load(path, cache=False)
        assert c is not a
        assert np.array_equal(
            simulate(c, exhaustive_inputs(8)), simulate(a, exhaustive_inputs(8))
        )

    def test_load_cache_invalidated_on_rewrite(self, tmp_path):
        import os

        from repro.circuits import load, save

        path = tmp_path / "net.json"
        save(_sorter_net(8), path)
        a = load(path)
        save(_sorter_net(16), path)
        # force a distinct mtime even on coarse-grained filesystems
        st = os.stat(path)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
        b = load(path)
        assert b is not a
        assert len(b.inputs) == 16

"""Unit tests for the convenience API (any-length sorting, caching, CLI)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.api import (
    clear_cache,
    make_checked_sorter,
    make_sorter,
    next_power_of_two,
    pad_bits,
    sort_bits,
)
from repro.runtime import RecoveryPolicy, Supervisor
from repro.serve import FabricExecutor


class TestNextPowerOfTwo:
    @pytest.mark.parametrize(
        "n,expect", [(0, 1), (1, 1), (2, 2), (3, 4), (5, 8), (16, 16), (17, 32)]
    )
    def test_values(self, n, expect):
        assert next_power_of_two(n) == expect


class TestPadBits:
    @given(
        bits=st.lists(st.integers(0, 1), min_size=0, max_size=300),
        network=st.sampled_from(["mux_merger", "prefix", "fish"]),
    )
    def test_padding_rule(self, bits, network):
        x = np.array(bits, dtype=np.uint8)
        padded = pad_bits(x, network)
        width = padded.size
        floor = 4 if network == "fish" else 2
        assert width & (width - 1) == 0 and width >= max(x.size, floor)
        assert width < 2 * max(x.size, floor)  # the *next* power of two
        assert np.array_equal(padded[: x.size], x)
        assert (padded[x.size:] == 1).all()
        assert np.array_equal(np.sort(padded)[: x.size], np.sort(x))

    def test_batch_pads_every_row(self):
        rows = np.zeros((3, 5), dtype=np.uint8)
        padded = pad_bits(rows)
        assert padded.shape == (3, 8)
        assert (padded[:, 5:] == 1).all() and not padded[:, :5].any()


class TestSortBits:
    @pytest.mark.parametrize("network", ["mux_merger", "prefix", "fish"])
    def test_arbitrary_lengths(self, network, rng):
        for length in (1, 2, 3, 5, 7, 12, 17, 33, 60):
            bits = rng.integers(0, 2, length).astype(np.uint8)
            out = sort_bits(bits, network=network)
            assert out.tolist() == sorted(bits.tolist()), (network, length)

    def test_empty_and_singleton(self):
        assert sort_bits([]).tolist() == []
        assert sort_bits([1]).tolist() == [1]
        assert sort_bits([0]).tolist() == [0]

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            sort_bits([0, 1, 2])

    def test_rejects_unknown_network(self):
        with pytest.raises(ValueError, match="unknown network"):
            sort_bits([1, 0, 1], network="timsort")

    def test_padding_does_not_leak(self, rng):
        # padding 1's must never appear in the output prefix
        bits = np.zeros(5, dtype=np.uint8)
        out = sort_bits(bits)
        assert out.tolist() == [0, 0, 0, 0, 0]

    def test_fish_pipelined_flag(self, rng):
        bits = rng.integers(0, 2, 20).astype(np.uint8)
        a = sort_bits(bits, network="fish")
        b = sort_bits(bits, network="fish", pipelined=True)
        assert np.array_equal(a, b)


class TestCache:
    def test_same_instance_returned(self):
        clear_cache()
        a = make_sorter(16, "mux_merger")
        b = make_sorter(16, "mux_merger")
        assert a is b

    def test_clear_cache(self):
        a = make_sorter(16, "mux_merger")
        clear_cache()
        b = make_sorter(16, "mux_merger")
        assert a is not b

    def test_distinct_networks_distinct_entries(self):
        clear_cache()
        a = make_sorter(16, "mux_merger")
        b = make_sorter(16, "prefix")
        assert a is not b


class TestCheckedSorter:
    @pytest.mark.parametrize("network", ["mux_merger", "prefix"])
    def test_supervisor_and_fabric_share_hardware(self, network):
        clear_cache()
        sup = Supervisor(network, policy=RecoveryPolicy(control_checker=True))
        fabric = FabricExecutor(network, control=True)
        hw = fabric.checked(16)
        assert sup._get_hardware(16) is hw
        assert make_checked_sorter(16, network, control=True) is hw
        # a different control setting is different hardware
        assert Supervisor(network)._get_hardware(16) is not hw
        clear_cache()
        assert fabric.checked(16) is not hw

    def test_concurrent_first_calls_build_once(self):
        import sys
        import threading

        clear_cache()
        got, errors = [], []

        def worker(i):
            try:
                if i % 2:
                    got.append(FabricExecutor("prefix").checked(32))
                else:
                    got.append(make_checked_sorter(32, "prefix", control=True))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(got) == 8
        assert all(hw is got[0] for hw in got)

    def test_fish_pair(self):
        sorter, checker = make_checked_sorter(8, "fish")
        assert sorter is make_sorter(8, "fish")
        assert checker.alarm_names
        assert make_checked_sorter(8, "fish", control=True)[1] is checker


class TestCLI:
    def test_main_runs(self, capsys):
        from repro.__main__ import main

        assert main(["64"]) == 0
        out = capsys.readouterr().out
        assert "Network 3 (fish)" in out
        assert "verified: True" in out

    def test_main_rejects_bad_n(self, capsys):
        from repro.__main__ import main

        assert main(["12"]) == 2
        assert main(["not-a-number"]) == 2

"""Benes rearrangeable permutation network + looping routing (baseline).

The Benes network (reference [4]) is Table II's classical baseline:
``n lg n - n/2`` 2x2 switches, depth ``2 lg n - 1``.  It is
rearrangeable — any permutation can be realized — but the switch settings
must be *computed* (the looping algorithm); the paper charges
``O(lg^4 n / lg lg n)`` parallel routing time on ``n lg n`` processors
[18], which is exactly the weakness the self-routing radix permuter
avoids.

:class:`BenesNetwork` builds the switch fabric as a netlist whose control
wires are primary inputs, implements the looping algorithm (as a
two-coloring of the input-pair/output-pair constraint graph), and routes
real payloads through the fabric with the payload-carrying simulator.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..circuits.builder import CircuitBuilder
from ..circuits.netlist import Netlist, lg
from ..circuits.simulate import simulate_payload


def benes_switch_count(n: int) -> int:
    """Exact switch count ``n lg n - n/2``."""
    return n * lg(n, minimum=2) - n // 2


def benes_depth(n: int) -> int:
    """Exact depth ``2 lg n - 1``."""
    return 2 * lg(n, minimum=2) - 1


class BenesNetwork:
    """An n-input Benes network with looping-algorithm routing."""

    def __init__(self, n: int) -> None:
        lg(n, minimum=2)
        self.n = n
        b = CircuitBuilder(f"benes-{n}")
        data = b.add_inputs(n)
        controls = b.add_inputs(benes_switch_count(n))
        ctrl_iter = iter(controls)
        outputs = self._construct(b, data, ctrl_iter)
        try:
            next(ctrl_iter)
        except StopIteration:
            pass
        else:  # pragma: no cover - structural invariant
            raise AssertionError("control count mismatch")
        self.netlist = b.build(outputs)
        self.n_controls = len(controls)

    def _construct(
        self, b: CircuitBuilder, data: Sequence[int], ctrl: Iterator[int]
    ) -> List[int]:
        n = len(data)
        if n == 2:
            o0, o1 = b.switch2(data[0], data[1], next(ctrl))
            return [o0, o1]
        half = n // 2
        upper_in: List[int] = []
        lower_in: List[int] = []
        for i in range(half):
            o0, o1 = b.switch2(data[2 * i], data[2 * i + 1], next(ctrl))
            upper_in.append(o0)
            lower_in.append(o1)
        upper_out = self._construct(b, upper_in, ctrl)
        lower_out = self._construct(b, lower_in, ctrl)
        outputs: List[int] = []
        for j in range(half):
            o0, o1 = b.switch2(upper_out[j], lower_out[j], next(ctrl))
            outputs.extend((o0, o1))
        return outputs

    # -- routing (looping algorithm) --------------------------------------------

    def route(self, perm: Sequence[int]) -> List[int]:
        """Compute switch settings realizing ``perm`` (input i -> output
        perm[i]), serialized in construction order."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of range(n)")
        return self._route(perm)

    def _route(self, perm: List[int]) -> List[int]:
        n = len(perm)
        if n == 2:
            return [1 if perm[0] == 1 else 0]
        half = n // 2
        inv = [0] * n
        for i, d in enumerate(perm):
            inv[d] = i
        # Two-color the constraint graph: input-switch partners must use
        # different subnetworks, and so must the two inputs destined to
        # the same output switch.  Every vertex has exactly these two
        # neighbors, the cycles alternate edge types (hence are even),
        # so greedy alternation never conflicts.
        color = [-1] * n
        for seed in range(n):
            if color[seed] != -1:
                continue
            color[seed] = 0
            stack = [seed]
            while stack:
                i = stack.pop()
                for j in (i ^ 1, inv[perm[i] ^ 1]):
                    if color[j] == -1:
                        color[j] = color[i] ^ 1
                        stack.append(j)
                    elif color[j] == color[i]:  # pragma: no cover
                        raise AssertionError("looping two-coloring conflict")
        in_bits: List[int] = []
        out_bits = [0] * half
        upper_perm = [-1] * half
        lower_perm = [-1] * half
        for sw in range(half):
            a, b_ = 2 * sw, 2 * sw + 1
            if color[a] == 0:
                in_bits.append(0)
                up_src, lo_src = a, b_
            else:
                in_bits.append(1)
                up_src, lo_src = b_, a
            up_dst, lo_dst = perm[up_src], perm[lo_src]
            upper_perm[sw] = up_dst // 2
            lower_perm[sw] = lo_dst // 2
            out_bits[up_dst // 2] = up_dst & 1
        return (
            in_bits + self._route(upper_perm) + self._route(lower_perm) + out_bits
        )

    # -- execution ---------------------------------------------------------------

    def permute(self, perm: Sequence[int], payloads) -> np.ndarray:
        """Route ``payloads`` so output ``perm[i]`` receives input i's."""
        pays = np.asarray(payloads, dtype=np.int64).ravel()
        if pays.size != self.n:
            raise ValueError(f"expected {self.n} payloads")
        settings = self.route(perm)
        tags = np.zeros(self.n + self.n_controls, dtype=np.uint8)
        tags[self.n :] = settings
        full_pays = np.concatenate(
            [pays, np.full(self.n_controls, -1, dtype=np.int64)]
        )
        _, out_pays = simulate_payload(self.netlist, tags[None, :], full_pays[None, :])
        return out_pays[0]

    # -- accounting ----------------------------------------------------------------

    def cost(self) -> int:
        return self.netlist.cost()

    def depth(self) -> int:
        return self.netlist.depth()

    @staticmethod
    def bit_level_cost_model(n: float) -> float:
        """Table II's Benes row: fabric + O(n lg n) routing processors of
        lg n bit-cost each -> ``O(n lg^2 n)``."""
        return n * math.log2(n) ** 2

    @staticmethod
    def parallel_routing_time_model(n: float) -> float:
        """Nassimi–Sahni parallel set-up time ``O(lg^4 n / lg lg n)``."""
        lg = math.log2(n)
        return lg ** 4 / math.log2(max(lg, 2))

"""The clean sorter as a literal clocked circuit (Model B, Fig. 9).

:class:`repro.core.kway.CleanSorter` orchestrates the time-multiplexed
dispatch in Python with netlist passes per step.  This module instead
builds the whole thing as ONE synchronous circuit
(:class:`~repro.circuits.fsm.SequentialCircuit`) — the paper's "simple
sequential or clocked circuit" made explicit:

* **state**: a ``lg k``-bit step counter plus ``s`` output-accumulator
  register bits;
* **combinational core** (all real netlist elements):

  1. a bundle-carrying ``k``-input sorter sorts the blocks' leading bits
     carrying each block's *index* (as constant wires) — its output at
     position ``t`` is the id of the block to dispatch at step ``t``;
  2. a ``(k,1)``-multiplexer selects that id using the step counter —
     exactly the "(k,1)-multiplexer" of the paper's clean-sorter
     inventory;
  3. the ``(s, s/k)``-multiplexer fetches the block, the
     ``(s/k, s)``-demultiplexer routes it to output group ``t``;
  4. OR-accumulators fold the routed block into the output registers,
     and a half-adder chain increments the counter.

After ``k`` clock ticks the output registers hold the sorted sequence.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..circuits.builder import CircuitBuilder
from ..circuits.fsm import SequentialCircuit
from ..circuits.netlist import lg
from ..components.demux import group_demultiplexer
from ..components.mux import group_multiplexer
from ..networks.carrying import carrying_sorter_lanes


class HardwareCleanSorter:
    """s-input k-way clean sorter as a single synchronous circuit."""

    def __init__(self, s: int, k: int) -> None:
        if k < 2 or k & (k - 1) or s % k:
            raise ValueError(f"need power-of-two k >= 2 dividing s, got s={s} k={k}")
        self.s, self.k = s, k
        self.block = s // k
        lg_k = self.lg_k = lg(k)

        b = CircuitBuilder(f"hw-clean-sorter-{s}x{k}")
        # ---- state inputs: counter (LSB first), then output registers
        counter = b.add_inputs(lg_k)
        out_regs = b.add_inputs(s)
        # ---- external inputs: the clean k-sorted data
        data = b.add_inputs(s)

        # (1) carrying k-sorter over (leading bit, block index) bundles
        leading = [data[i * self.block] for i in range(k)]
        index_lanes: List[List[int]] = []
        for bit in range(lg_k):  # MSB first lanes
            index_lanes.append(
                [b.const((i >> (lg_k - 1 - bit)) & 1) for i in range(k)]
            )
        sorted_lanes = carrying_sorter_lanes(b, [leading] + index_lanes)
        # sorted_lanes[1 + bit][t] = bit of pi(t) (MSB first)

        # (2) (k,1)-multiplexer: select pi(counter)
        counter_msb_first = list(reversed(counter))
        src_bits_msb: List[int] = []
        for bit in range(lg_k):
            lane = [sorted_lanes[1 + bit][t] for t in range(k)]
            src_bits_msb.append(b.mux_tree(lane, counter_msb_first))

        # (3) fetch the block, route it to group `counter`
        grabbed = group_multiplexer(b, data, self.block, src_bits_msb)
        routed = group_demultiplexer(b, grabbed, k, counter_msb_first)

        # (4) accumulate into output registers; increment the counter
        next_out = [b.or_(out_regs[i], routed[i]) for i in range(s)]
        next_counter: List[int] = []
        carry = b.const(1)
        for bit in counter:
            next_counter.append(b.xor(bit, carry))
            carry = b.and_(bit, carry)

        netlist = b.build(next_counter + next_out + list(next_out))
        self.circuit = SequentialCircuit(netlist, n_state=lg_k + s)

    # -- accounting ----------------------------------------------------------------

    def cost(self) -> int:
        """Combinational cost of the clocked core."""
        return self.circuit.combinational_cost()

    def register_bits(self) -> int:
        return self.circuit.register_bits()

    def sorting_time(self) -> int:
        """k clock ticks of the core's cycle time, in unit delays."""
        return self.k * self.circuit.cycle_time()

    # -- operation ------------------------------------------------------------------

    def sort(self, bits) -> Tuple[np.ndarray, int]:
        """Run the machine for k ticks; returns (sorted, clock_ticks)."""
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        if bits.size != self.s:
            raise ValueError(f"expected {self.s} bits, got {bits.size}")
        self.circuit.reset()
        out = self.circuit.run(bits.tolist(), self.k)
        return np.array(out, dtype=np.uint8), self.circuit.cycles

"""k-way merging machinery for Network 3 (Section III-C, Figs. 7-9).

Pieces, mirroring the paper exactly:

* :func:`build_k_swap` — the k-SWAP: ``k`` two-way swappers, one per
  sorted subsequence, each steered by the subsequence's *middle bit* (the
  first element of its lower half).  If that bit is 1 the lower half is
  all 1's (clean) and gets swapped up; otherwise the upper half is all
  0's and stays.  The outputs are rewired so the upper ``n/2`` wires
  collect the clean halves (a clean k-sorted sequence, Theorem 4) and the
  lower ``n/2`` wires collect the rest (a k-sorted sequence).
* :class:`CleanSorter` — Fig. 9: sorts a clean k-sorted sequence by
  sorting the blocks' leading bits with a ``k``-input mux-merger sorter
  and then *time-multiplexing* each block through an
  ``(s, s/k)``-multiplexer / ``(s/k, s)``-demultiplexer pair to its
  sorted position (``k`` clock steps through shared hardware — this is
  what keeps Network 3's cost linear).
* :class:`KWayMuxMerger` — Fig. 8: k-SWAP, then the clean sorter on the
  upper half in parallel with a recursive k-way merge of the lower half,
  then an ordinary two-way mux-merger on the resulting bisorted sequence.
  The recursion bottoms out at ``k`` inputs, handled by a ``k``-input
  mux-merger binary sorter.

Every data movement is executed on a real netlist; the clock accounting
(:class:`~repro.circuits.sequential.Timeline` semantics) follows the
paper's unit-delay convention, with parallel branches joined by ``max``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.builder import CircuitBuilder
from ..circuits.netlist import Netlist, lg
from ..circuits.simulate import simulate, simulate_payload
from ..components.demux import group_demultiplexer
from ..components.mux import group_multiplexer
from ..components.swappers import two_way_swapper
from .mux_merger import build_mux_merger, build_mux_merger_sorter


def _run(
    netlist: Netlist, tags: np.ndarray, payloads: Optional[np.ndarray]
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Run one netlist pass, carrying payloads when provided."""
    if payloads is None:
        return simulate(netlist, tags[None, :])[0], None
    out_t, out_p = simulate_payload(netlist, tags[None, :], payloads[None, :])
    return out_t[0], out_p[0]


def build_k_swap(n: int, k: int) -> Netlist:
    """k-SWAP netlist: clean halves to the top, sorted halves below."""
    if k < 1 or n % k or (n // k) % 2:
        raise ValueError(f"k-SWAP needs k | n and even n/k, got n={n} k={k}")
    m = n // k
    b = CircuitBuilder(f"k-swap-{n}x{k}")
    wires = b.add_inputs(n)
    uppers: List[int] = []
    lowers: List[int] = []
    for i in range(k):
        block = wires[i * m : (i + 1) * m]
        control = block[m // 2]  # middle bit: first element of lower half
        swapped = two_way_swapper(b, block, control)
        uppers.extend(swapped[: m // 2])
        lowers.extend(swapped[m // 2 :])
    return b.build(uppers + lowers)


@dataclass
class PhaseCost:
    """Cost inventory entry: one physical component of the construction."""

    label: str
    cost: int
    depth: int


class CleanSorter:
    """Fig. 9's s-input k-way clean sorter (time-multiplexed dispatch).

    ``s`` is the sequence length; it holds ``k`` clean blocks of ``s/k``
    elements.  Hardware inventory: a ``k``-input binary sorter for the
    leading bits, an ``(s, s/k)``-multiplexer, an ``(s/k, s)``-
    demultiplexer, and a ``(k,1)``-multiplexer feeding the select lines.
    Dispatch runs ``k`` clock steps of depth ``lg k + lg k + lg k``
    (select lookup, mux, demux) each — pipelinable to ``k - 1 + 3 lg k``.
    """

    def __init__(self, s: int, k: int) -> None:
        if k < 1 or s % k:
            raise ValueError(f"clean sorter needs k | s, got s={s} k={k}")
        self.s, self.k = s, k
        self.block = s // k
        self.lg_k = lg(k)
        self.key_sorter = build_mux_merger_sorter(k)
        # (s, s/k)-multiplexer: selects one of k groups of s/k wires.
        b = CircuitBuilder(f"clean-mux-{s}")
        wires = b.add_inputs(s)
        sel = b.add_inputs(self.lg_k)
        outs = group_multiplexer(b, wires, self.block, sel)
        self.group_mux = b.build(outs)
        # (s/k, s)-demultiplexer: routes s/k wires to one of k groups.
        b = CircuitBuilder(f"clean-demux-{s}")
        wires = b.add_inputs(self.block)
        sel = b.add_inputs(self.lg_k)
        outs = group_demultiplexer(b, wires, k, sel)
        self.group_demux = b.build(outs)
        # (k,1)-multiplexer for the dispatch select values (lg k bits wide).
        b = CircuitBuilder(f"clean-sel-mux-{k}")
        values = [b.add_inputs(max(self.lg_k, 1)) for _ in range(k)]
        step_sel = b.add_inputs(self.lg_k)
        sel_outs = []
        for bit in range(max(self.lg_k, 1)):
            lane = [values[g][bit] for g in range(k)]
            sel_outs.append(lane[0] if k == 1 else b.mux_tree(lane, step_sel))
        self.select_mux = b.build(sel_outs)

    def inventory(self) -> List[PhaseCost]:
        return [
            PhaseCost(f"clean-sorter/key-sorter(k={self.k})",
                      self.key_sorter.cost(), self.key_sorter.depth()),
            PhaseCost(f"clean-sorter/(s,s/k)-mux(s={self.s})",
                      self.group_mux.cost(), self.group_mux.depth()),
            PhaseCost(f"clean-sorter/(s/k,s)-demux(s={self.s})",
                      self.group_demux.cost(), self.group_demux.depth()),
            PhaseCost(f"clean-sorter/(k,1)-select-mux(k={self.k})",
                      self.select_mux.cost(), self.select_mux.depth()),
        ]

    def cost(self) -> int:
        return sum(p.cost for p in self.inventory())

    def dispatch_order(self, bits: np.ndarray) -> List[int]:
        """Source block for each output slot, from the key-sorter netlist.

        Runs the ``k``-input sorter with block indices as payloads; the
        payload order of the sorted output *is* the dispatch schedule.
        """
        keys = bits[:: self.block].astype(np.uint8)  # leading bit per block
        tags, pays = simulate_payload(
            self.key_sorter, keys[None, :], np.arange(self.k, dtype=np.int64)[None, :]
        )
        return [int(p) for p in pays[0]]

    def sort(
        self,
        bits: np.ndarray,
        start: int = 0,
        pipelined: bool = False,
        payloads: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
        """Sort a clean k-sorted sequence.

        Returns ``(sorted_bits, sorted_payloads_or_None, finish_time)``.
        Timing: the key sorter runs first (its netlist depth), then ``k``
        dispatch steps of ``3 lg k`` unit delays each — or, pipelined,
        ``k - 1`` cycles plus one ``3 lg k`` traversal.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.size != self.s:
            raise ValueError(f"expected {self.s} bits, got {bits.size}")
        if payloads is not None:
            payloads = np.asarray(payloads, dtype=np.int64)
        order = self.dispatch_order(bits)
        out = np.empty_like(bits)
        out_pays = None if payloads is None else np.empty_like(payloads)
        step_depth = 3 * self.lg_k
        t = start + self.key_sorter.depth()
        blk = self.block
        no_pay = np.full(self.lg_k, -1, dtype=np.int64)
        for step, src in enumerate(order):
            # (s, s/k)-mux selects block `src`...
            sel = np.array(
                [(src >> (self.lg_k - 1 - j)) & 1 for j in range(self.lg_k)],
                dtype=np.uint8,
            )
            mux_in = np.concatenate([bits, sel])
            mux_pay = None if payloads is None else np.concatenate([payloads, no_pay])
            grabbed, grabbed_p = _run(self.group_mux, mux_in, mux_pay)
            # ...and the (s/k, s)-demux routes it to output group `step`.
            dsel = np.array(
                [(step >> (self.lg_k - 1 - j)) & 1 for j in range(self.lg_k)],
                dtype=np.uint8,
            )
            dem_in = np.concatenate([grabbed, dsel])
            dem_pay = (
                None if grabbed_p is None else np.concatenate([grabbed_p, no_pay])
            )
            routed, routed_p = _run(self.group_demux, dem_in, dem_pay)
            out[step * blk : (step + 1) * blk] = routed[step * blk : (step + 1) * blk]
            if out_pays is not None:
                out_pays[step * blk : (step + 1) * blk] = routed_p[
                    step * blk : (step + 1) * blk
                ]
        if pipelined:
            t += (self.k - 1) + step_depth
        else:
            t += self.k * step_depth
        return out, out_pays, t


def kway_merge_behavioral(bits: np.ndarray, k: int) -> np.ndarray:
    """NumPy oracle of the k-way mux-merger recursion (Fig. 8).

    Mirrors the construction step by step: k-SWAP by middle bits, clean
    sort of the upper half (stable block dispatch by leading bit),
    recursive merge of the lower half, final two-way mux-merge.
    """
    from .mux_merger import mux_merge_behavioral

    bits = np.asarray(bits, dtype=np.uint8)
    m = bits.size
    if m == k:
        return np.sort(bits)
    block = m // k
    half = block // 2
    uppers, lowers = [], []
    for i in range(k):
        sub = bits[i * block : (i + 1) * block]
        if sub[half]:  # lower half clean (all 1s): swap halves up
            uppers.append(sub[half:])
            lowers.append(sub[:half])
        else:
            uppers.append(sub[:half])
            lowers.append(sub[half:])
    # clean sorter: stable sort of clean blocks by leading bit
    order = sorted(range(k), key=lambda i: (int(uppers[i][0]), i))
    upper_sorted = np.concatenate([uppers[i] for i in order])
    lower_sorted = kway_merge_behavioral(np.concatenate(lowers), k)
    return mux_merge_behavioral(np.concatenate([upper_sorted, lower_sorted]))


class KWayMuxMerger:
    """Fig. 8's n-input k-way mux-merger over the clocked model."""

    def __init__(self, n: int, k: int) -> None:
        if k < 2 or n < k or n % k or n & (n - 1) or k & (k - 1):
            raise ValueError(
                f"k-way merger needs powers of two with 2 <= k <= n, "
                f"got n={n} k={k}"
            )
        self.n, self.k = n, k
        self._k_swaps: Dict[int, Netlist] = {}
        self._clean: Dict[int, CleanSorter] = {}
        self._mergers: Dict[int, Netlist] = {}
        self.base_sorter = build_mux_merger_sorter(k)
        m = n
        while m > k:
            self._k_swaps[m] = build_k_swap(m, k)
            self._clean[m // 2] = CleanSorter(m // 2, k)
            self._mergers[m] = build_mux_merger(m)
            m //= 2

    def inventory(self) -> List[PhaseCost]:
        inv: List[PhaseCost] = []
        for m, net in sorted(self._k_swaps.items(), reverse=True):
            inv.append(PhaseCost(f"k-swap(m={m})", net.cost(), net.depth()))
        for s, cs in sorted(self._clean.items(), reverse=True):
            inv.extend(cs.inventory())
        for m, net in sorted(self._mergers.items(), reverse=True):
            inv.append(PhaseCost(f"two-way-mux-merger(m={m})", net.cost(), net.depth()))
        inv.append(
            PhaseCost(
                f"base-sorter(k={self.k})",
                self.base_sorter.cost(),
                self.base_sorter.depth(),
            )
        )
        return inv

    def cost(self) -> int:
        return sum(p.cost for p in self.inventory())

    def merge(
        self,
        bits: np.ndarray,
        start: int = 0,
        pipelined: bool = False,
        payloads: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
        """Merge a k-sorted sequence.

        Returns ``(sorted_bits, sorted_payloads_or_None, finish_time)``.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.size != self.n:
            raise ValueError(f"expected {self.n} bits, got {bits.size}")
        if payloads is not None:
            payloads = np.asarray(payloads, dtype=np.int64)
        return self._merge(bits, start, pipelined, payloads)

    def _merge(
        self,
        bits: np.ndarray,
        start: int,
        pipelined: bool,
        payloads: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
        m = bits.size
        if m == self.k:
            out, out_p = _run(self.base_sorter, bits, payloads)
            return out, out_p, start + self.base_sorter.depth()
        swap = self._k_swaps[m]
        swapped, swapped_p = _run(swap, bits, payloads)
        t0 = start + swap.depth()
        upper, upper_p, t_up = self._clean[m // 2].sort(
            swapped[: m // 2],
            start=t0,
            pipelined=pipelined,
            payloads=None if swapped_p is None else swapped_p[: m // 2],
        )
        lower, lower_p, t_lo = self._merge(
            swapped[m // 2 :],
            t0,
            pipelined,
            None if swapped_p is None else swapped_p[m // 2 :],
        )
        t1 = max(t_up, t_lo)  # parallel branches join
        merger = self._mergers[m]
        cat = np.concatenate([upper, lower])
        cat_p = None if payloads is None else np.concatenate([upper_p, lower_p])
        merged, merged_p = _run(merger, cat, cat_p)
        return merged, merged_p, t1 + merger.depth()

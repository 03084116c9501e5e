"""Network 3 — the fish binary sorter (Section III-C, Fig. 7).

A time-multiplexed (Model B) binary sorter:

1. the input is split arbitrarily into ``k`` groups of ``n/k`` elements;
2. each group passes through an ``(n, n/k)``-multiplexer into a *single*
   ``n/k``-input binary sorter (a mux-merger sorter) and out through an
   ``(n/k, n)``-demultiplexer — sequentially, or pipelined one group per
   clock;
3. the resulting k-sorted sequence is merged by an ``n``-input k-way
   mux-merger (:class:`repro.core.kway.KWayMuxMerger`).

With ``k = lg n`` the paper claims (eqs. 17-26):

* cost ``C(n, lg n) <= 17n + o(n)`` — linear, the headline result;
* depth ``O(lg^2 n)``;
* sorting time ``O(lg^3 n)`` unpipelined, ``O(lg^2 n)`` with the groups
  pipelined through the single small sorter.

Every phase runs on real netlists; timing follows the paper's unit-delay
accounting via explicit clock arithmetic (parallel branches join on max).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..circuits.builder import CircuitBuilder
from ..errors import BuildError, SimulationError
from ..circuits.netlist import Netlist, lg
from ..circuits.simulate import simulate, simulate_payload
from ..components.demux import group_demultiplexer
from ..components.mux import group_multiplexer
from .kway import KWayMuxMerger, PhaseCost
from .mux_merger import build_mux_merger_sorter


def fish_sort_behavioral(bits, k: Optional[int] = None) -> np.ndarray:
    """NumPy oracle of Network 3: sort k groups, then k-way merge."""
    from .kway import kway_merge_behavioral

    bits = np.asarray(bits, dtype=np.uint8).ravel()
    n = bits.size
    kk = default_k(n) if k is None else k
    g = n // kk
    staged = np.concatenate(
        [np.sort(bits[i * g : (i + 1) * g]) for i in range(kk)]
    )
    return kway_merge_behavioral(staged, kk)


def fish_time_model(n: int, k: int, pipelined: bool = False) -> float:
    """Closed-form sorting-time model from eqs. (22)-(26).

    Unpipelined (eq. 22): ``k lg^2(n/k) + lg(n/k) + lg n lg k`` classes;
    pipelined (eq. 25): ``lg^2(n/k) + k + lg k + lg n lg k``.  Constants
    set to 1 — callers compare *shape* (ratios bounded), as the paper's
    O-notation licenses.
    """
    import math

    lg = math.log2
    g = n / k
    if pipelined:
        return lg(g) ** 2 + k + lg(k) + lg(n) * lg(k)
    return k * lg(g) ** 2 + lg(g) + lg(n) * lg(k)


def default_k(n: int) -> int:
    """The paper's cost-minimizing choice ``k = lg n`` (rounded to a
    power of two so the k-way machinery stays power-of-two throughout)."""
    lg_n = lg(n)
    k = 1 << max(1, (lg_n.bit_length() - 1))
    while k * 2 <= lg_n:
        k *= 2
    return max(2, min(k, n // 2))


@dataclass(frozen=True)
class SortReport:
    """Outcome of one fish sort: result bits plus timing breakdown."""

    n: int
    k: int
    pipelined: bool
    sorting_time: int
    phase1_time: int
    merge_time: int


class FishSorter:
    """Network 3: O(n)-cost time-multiplexed adaptive binary sorter.

    ``group_sorter`` selects the n/k-input sorter the groups multiplex
    through — "any binary sorting network including those described in
    the previous subsection can be used in this kind of multiplexed
    sorting" (Section III-C).  ``"mux_merger"`` (default) gives the
    paper's cost bound; ``"prefix"`` and ``"batcher"`` are the ablation
    choices.
    """

    def __init__(
        self, n: int, k: Optional[int] = None, group_sorter: str = "mux_merger"
    ) -> None:
        if n < 4 or n & (n - 1):
            raise BuildError(f"n must be a power of two >= 4, got {n}")
        self.n = n
        self.k = default_k(n) if k is None else k
        k = self.k
        if k < 2 or k & (k - 1) or n % k or n // k < 2:
            raise BuildError(
                f"k must be a power of two with 2 <= k <= n/2, got {k}"
            )
        self.group = n // k
        self.lg_k = lg(k)
        self.group_sorter_kind = group_sorter
        if group_sorter == "mux_merger":
            self.group_sorter = build_mux_merger_sorter(self.group)
        elif group_sorter == "prefix":
            from .prefix_sorter import build_prefix_sorter

            self.group_sorter = build_prefix_sorter(self.group)
        elif group_sorter == "batcher":
            from ..baselines.batcher import build_odd_even_merge_sorter

            self.group_sorter = build_odd_even_merge_sorter(self.group)
        else:
            raise BuildError(f"unknown group sorter {group_sorter!r}")
        # (n, n/k)-multiplexer front end
        b = CircuitBuilder(f"fish-mux-{n}")
        wires = b.add_inputs(n)
        sel = b.add_inputs(self.lg_k)
        b.tag_control(*sel)  # the group-select steering inputs
        self.input_mux = b.build(group_multiplexer(b, wires, self.group, sel))
        # (n/k, n)-demultiplexer back end
        b = CircuitBuilder(f"fish-demux-{n}")
        wires = b.add_inputs(self.group)
        sel = b.add_inputs(self.lg_k)
        b.tag_control(*sel)
        self.output_demux = b.build(group_demultiplexer(b, wires, k, sel))
        self.merger = KWayMuxMerger(n, k)

    # -- fault-injection hook ---------------------------------------------------

    def clone_with_group_sorter(self, netlist: Netlist) -> "FishSorter":
        """Return a copy of this sorter with ``netlist`` as the group sorter.

        The time-shared group sorter is the single point of failure of
        Model B hardware — one physical fault corrupts every group that
        passes through it.  Fault campaigns use this hook to substitute a
        mutated netlist (see :mod:`repro.circuits.faults`) while reusing
        the mux/demux/merger stages unchanged.
        """
        if len(netlist.inputs) != len(self.group_sorter.inputs):
            raise BuildError(
                f"group sorter needs {len(self.group_sorter.inputs)} inputs, "
                f"got {len(netlist.inputs)}"
            )
        clone = object.__new__(FishSorter)
        clone.__dict__.update(self.__dict__)
        clone.group_sorter = netlist
        return clone

    # -- cost ------------------------------------------------------------------

    def inventory(self) -> List[PhaseCost]:
        """Full hardware inventory (cost per physical component)."""
        inv = [
            PhaseCost(f"(n,n/k)-mux(n={self.n})",
                      self.input_mux.cost(), self.input_mux.depth()),
            PhaseCost(f"group-sorter(n/k={self.group})",
                      self.group_sorter.cost(), self.group_sorter.depth()),
            PhaseCost(f"(n/k,n)-demux(n={self.n})",
                      self.output_demux.cost(), self.output_demux.depth()),
        ]
        inv.extend(self.merger.inventory())
        return inv

    def cost(self) -> int:
        """Total bit-level cost (the paper's eq. 17 bounds this by
        ``2n + 4(n/k) lg(n/k) + 11n + k lg(n/k) + 4k lg k lg(n/k) + 4k lg k``)."""
        return sum(p.cost for p in self.inventory())

    def cost_bound_paper(self) -> float:
        """Right-hand side of eq. (17) for this (n, k)."""
        import math

        n, k = self.n, self.k
        lg = math.log2
        return (
            2 * n
            + 4 * (n / k) * lg(n / k)
            + 11 * n
            + k * lg(n / k)
            + 4 * k * lg(k) * lg(n / k)
            + 4 * k * lg(k)
        )

    # -- sorting ------------------------------------------------------------------

    def sort(self, bits, pipelined: bool = False) -> Tuple[np.ndarray, SortReport]:
        """Sort ``n`` bits; returns ``(sorted_bits, report)``.

        Phase 1 runs the ``k`` groups through the single ``n/k``-input
        sorter — sequentially (each pass charged mux + sorter + demux
        depth) or pipelined (one group per clock through the segmented
        sorter).  Phase 2 is the k-way merge.
        """
        out, _, report = self.sort_with_payload(bits, None, pipelined=pipelined)
        return out, report

    def sort_cycle_accurate(self, bits, transients=()) -> Tuple[np.ndarray, SortReport]:
        """Pipelined sort with phase 1 on a real register-transfer pipeline.

        Instead of charging the pipelined makespan algebraically, this
        streams the ``k`` groups through a
        :class:`~repro.circuits.sequential.PipelinedNetlist` built from
        the group sorter — genuine per-cycle register state — and charges
        the *measured* makespan.  Functionally and temporally identical
        to ``sort(..., pipelined=True)`` (asserted by tests), it exists
        to demonstrate Model B's clocked semantics are real, not
        notational.

        ``transients`` is an optional sequence of ``(wire, cycle)``
        single-cycle bit flips injected into the pipeline's register
        state (see :class:`~repro.circuits.sequential.PipelinedNetlist`);
        fault campaigns use it to model per-cycle glitches that corrupt
        only the group in flight at that clock.
        """
        from ..circuits.sequential import PipelinedNetlist

        bits = np.asarray(bits, dtype=np.uint8).ravel()
        if bits.size != self.n:
            raise SimulationError(f"expected {self.n} bits, got {bits.size}")
        n, k, g = self.n, self.k, self.group
        groups = [
            bits[i * g : (i + 1) * g].tolist() for i in range(k)
        ]
        pipeline = PipelinedNetlist(self.group_sorter, transients=transients)
        sorted_groups, makespan = pipeline.run(groups)
        staged = np.array(
            [bit for grp in sorted_groups for bit in grp], dtype=np.uint8
        )
        phase1 = self.input_mux.depth() + makespan + self.output_demux.depth()
        merged, _, finish = self.merger.merge(
            staged, start=phase1, pipelined=True
        )
        report = SortReport(
            n=n,
            k=k,
            pipelined=True,
            sorting_time=finish,
            phase1_time=phase1,
            merge_time=finish - phase1,
        )
        return merged, report

    def sort_with_payload(
        self, bits, payloads, pipelined: bool = False
    ) -> Tuple[np.ndarray, Optional[np.ndarray], SortReport]:
        """Like :meth:`sort`, but carries an int payload on every input.

        This is what makes the fish sorter usable as a *packet-switched*
        concentrator (Section IV): payloads ride the same switch settings
        the tags do, through every multiplexed phase.
        """
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        if bits.size != self.n:
            raise SimulationError(f"expected {self.n} bits, got {bits.size}")
        if payloads is not None:
            payloads = np.asarray(payloads, dtype=np.int64).ravel()
            if payloads.size != self.n:
                raise SimulationError("payloads must match the input length")
        n, k, g = self.n, self.k, self.group

        # ---- phase 1: time-multiplex groups through the small sorter.
        # The k cycles are functionally independent (the timeline below
        # still charges them as clocked passes), so each netlist runs
        # once on a k-row batch instead of k single-row calls — the
        # compiled engine evaluates all cycles of the dispatch loop in
        # one fused pass.
        mux_d = self.input_mux.depth()
        demux_d = self.output_demux.depth()
        sorter_d = self.group_sorter.depth()
        from ..circuits.simulate import exhaustive_inputs

        sels = exhaustive_inputs(self.lg_k)  # row i = counter value i
        mux_in = np.hstack([np.tile(bits, (k, 1)), sels])
        if payloads is None:
            groups = simulate(self.input_mux, mux_in)
            group_pays = None
        else:
            no_pay = np.full((k, self.lg_k), -1, dtype=np.int64)
            mux_pays = np.hstack([np.tile(payloads, (k, 1)), no_pay])
            groups, group_pays = simulate_payload(self.input_mux, mux_in, mux_pays)
        if payloads is None:
            sorted_groups = simulate(self.group_sorter, groups)
            sorted_pays = None
        else:
            sorted_groups, sorted_pays = simulate_payload(
                self.group_sorter, groups, group_pays
            )
        dem_in = np.hstack([sorted_groups, sels])
        # Row i of the demux output only matters on its own group's slice
        # [i*g, (i+1)*g) — gather those diagonal blocks into the staged
        # k-sorted sequence.
        rows = np.arange(k)[:, None]
        cols = (np.arange(k) * g)[:, None] + np.arange(g)[None, :]
        if payloads is None:
            routed = simulate(self.output_demux, dem_in)
            staged_pays = None
        else:
            routed, routed_pays = simulate_payload(
                self.output_demux, dem_in, np.hstack([sorted_pays, no_pay])
            )
            staged_pays = np.ascontiguousarray(routed_pays[rows, cols]).reshape(n)
        staged = np.ascontiguousarray(routed[rows, cols]).reshape(n)
        if pipelined:
            phase1 = mux_d + (k - 1) + sorter_d + demux_d
        else:
            phase1 = k * (mux_d + sorter_d + demux_d)

        # ---- phase 2: k-way merge of the k-sorted sequence
        merged, merged_pays, finish = self.merger.merge(
            staged, start=phase1, pipelined=pipelined, payloads=staged_pays
        )
        report = SortReport(
            n=n,
            k=k,
            pipelined=pipelined,
            sorting_time=finish,
            phase1_time=phase1,
            merge_time=finish - phase1,
        )
        return merged, merged_pays, report

"""Bundle-carrying networks: whole words moving through the switches.

The concentrators and permuters of Section IV move *data*, not just
tags.  :func:`repro.circuits.simulate.simulate_payload` models that at
the interpreter level; this module builds it as physical hardware — each
packet is a *bundle* of wires (1 tag + B bus bits), and every switching
decision routes the entire bundle:

* a **bundle comparator** sorts two bundles by tag: one 1-bit comparator
  for the tags, two gates deriving the swap decision, and ``B`` 2x2
  switches moving the bus (cost ``B + 3``, depth 2);
* **bundle four-way swappers** apply the mux-merger's IN-/OUT-SWAP to
  every lane, sharing the two select wires (cost ``(B+1) n`` per
  swapper).

On top of these, :func:`build_carrying_sorter` is a mux-merger binary
sorter that physically carries a B-bit bus with every element, and
:func:`build_self_routing_permuter` cascades ``lg n`` levels of carrying
sorters keyed on successive destination-address bits — the *fully
combinational, self-routing* realization of Fig. 10's circuit-switched
radix permuter, as one netlist whose measured bit-level cost reproduces
the ``O(n lg^3 n)`` class Table II assigns to sorting-network-based
permutation switching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..circuits.builder import CircuitBuilder
from ..circuits.netlist import Netlist, lg
from ..circuits.simulate import simulate
from ..components.swappers import four_way_swapper
from ..core.mux_merger import IN_SWAP_PERMS, OUT_SWAP_PERMS

#: lanes[0] is the tag lane; lanes[1..] are bus bit lanes.  Each lane is
#: a list of n wires (one per bundle position).
Lanes = List[List[int]]


def bundle_comparator(
    b: CircuitBuilder,
    tag_a: int,
    bus_a: Sequence[int],
    tag_b: int,
    bus_b: Sequence[int],
) -> Tuple[int, List[int], int, List[int]]:
    """Sort two bundles by tag; buses follow their tags.

    Returns ``(tag_lo, bus_lo, tag_hi, bus_hi)``.  Ties pass straight
    (swap only when ``tag_a = 1, tag_b = 0``), matching the
    payload-carrying interpreter's comparator semantics.
    """
    if len(bus_a) != len(bus_b):
        raise ValueError("bus widths must match")
    lo, hi = b.comparator(tag_a, tag_b)
    if not bus_a:  # degenerate to a plain comparator
        return lo, [], hi, []
    swap = b.and_(tag_a, b.not_(tag_b))
    bus_lo: List[int] = []
    bus_hi: List[int] = []
    for wa, wb in zip(bus_a, bus_b):
        o0, o1 = b.switch2(wa, wb, swap)
        bus_lo.append(o0)
        bus_hi.append(o1)
    return lo, bus_lo, hi, bus_hi


def _swap_lanes(
    b: CircuitBuilder, lanes: Lanes, sel_hi: int, sel_lo: int, perms
) -> Lanes:
    """Apply one four-way swapper to every lane with shared selects."""
    return [four_way_swapper(b, lane, sel_hi, sel_lo, perms) for lane in lanes]


def _carrying_merge(b: CircuitBuilder, lanes: Lanes) -> Lanes:
    """Mux-merger on bundles: merges a bisorted tag sequence, carrying
    every bus lane through the same IN-/OUT-SWAP settings."""
    n = len(lanes[0])
    if n == 1:
        return [list(lane) for lane in lanes]
    if n == 2:
        tag_lo, bus_lo, tag_hi, bus_hi = bundle_comparator(
            b,
            lanes[0][0],
            [lane[0] for lane in lanes[1:]],
            lanes[0][1],
            [lane[1] for lane in lanes[1:]],
        )
        out: Lanes = [[tag_lo, tag_hi]]
        for j in range(len(lanes) - 1):
            out.append([bus_lo[j], bus_hi[j]])
        return out
    sel_hi = lanes[0][n // 4]
    sel_lo = lanes[0][3 * n // 4]
    staged = _swap_lanes(b, lanes, sel_hi, sel_lo, IN_SWAP_PERMS)
    bottom = [lane[n // 2 :] for lane in staged]
    merged = _carrying_merge(b, bottom)
    combined = [
        list(staged[i][: n // 2]) + merged[i] for i in range(len(lanes))
    ]
    return _swap_lanes(b, combined, sel_hi, sel_lo, OUT_SWAP_PERMS)


def carrying_sorter_lanes(b: CircuitBuilder, lanes: Lanes) -> Lanes:
    """Network 2 on bundles: sort by tag lane, carrying all bus lanes."""
    n = len(lanes[0])
    if n <= 2:
        return _carrying_merge(b, lanes)
    upper = carrying_sorter_lanes(b, [lane[: n // 2] for lane in lanes])
    lower = carrying_sorter_lanes(b, [lane[n // 2 :] for lane in lanes])
    joined = [upper[i] + lower[i] for i in range(len(lanes))]
    return _carrying_merge(b, joined)


def build_carrying_sorter(n: int, bus_width: int) -> Netlist:
    """A mux-merger binary sorter that carries ``bus_width`` bus bits.

    Inputs are bundle-major: for each position, the tag wire then its
    ``bus_width`` bus wires.  Outputs in the same layout, sorted by tag.
    """
    lg(n)
    b = CircuitBuilder(f"carrying-sorter-{n}x{bus_width}")
    lanes: Lanes = [[] for _ in range(bus_width + 1)]
    for _ in range(n):
        lanes[0].append(b.add_input())
        for j in range(bus_width):
            lanes[j + 1].append(b.add_input())
    out_lanes = carrying_sorter_lanes(b, lanes)
    outputs: List[int] = []
    for i in range(n):
        outputs.append(out_lanes[0][i])
        for j in range(bus_width):
            outputs.append(out_lanes[j + 1][i])
    return b.build(outputs)


def build_self_routing_permuter(n: int, payload_width: int = 0) -> Netlist:
    """Fig. 10's circuit-switched radix permuter as one netlist.

    Each input bundle is ``lg n`` destination-address bits (MSB first)
    followed by ``payload_width`` payload bits.  Level ``l`` sorts every
    contiguous block of ``n / 2^l`` bundles by address bit ``l``; after
    ``lg n`` levels, bundle ``i``'s payload sits at output position
    ``address_i``.  Outputs are bundle-major (address bits then payload
    bits per position).

    Entirely self-routing: the only "control" anywhere is the data's own
    address bits — no looping algorithm, no external setup.
    """
    lg_n = lg(n)
    if payload_width < 0:
        raise ValueError("payload_width must be >= 0")
    b = CircuitBuilder(f"self-routing-permuter-{n}")
    width = lg_n + payload_width
    # lanes[j][i] = bit j of bundle i
    lanes: Lanes = [[] for _ in range(width)]
    for _ in range(n):
        for j in range(width):
            lanes[j].append(b.add_input())
    for level in range(lg_n):
        block = n >> level
        new_lanes: Lanes = [[] for _ in range(width)]
        for start in range(0, n, block):
            sub = [lane[start : start + block] for lane in lanes]
            # tag lane = address bit `level`; other lanes ride the bus
            order = [level] + [j for j in range(width) if j != level]
            sorted_sub = carrying_sorter_lanes(b, [sub[j] for j in order])
            unordered = [None] * width
            for pos, j in enumerate(order):
                unordered[j] = sorted_sub[pos]
            for j in range(width):
                new_lanes[j].extend(unordered[j])
        lanes = new_lanes
    outputs: List[int] = []
    for i in range(n):
        for j in range(width):
            outputs.append(lanes[j][i])
    return b.build(outputs)


def build_carrying_benes(n: int, payload_width: int) -> Netlist:
    """A Benes fabric whose switches move ``payload_width``-bit words.

    Table II charges the Benes network's *bit-level* cost with "the lg n
    factor [that] accounts for the bit-level cost of each processor" /
    word: each 2x2 switch becomes ``payload_width`` bit-switches sharing
    one control pin.  This builds that fabric, so the
    ``O(n lg^2 n)``-class bit-level cost is measured rather than modeled
    (controls remain external — routing still needs the looping
    algorithm; contrast :func:`build_self_routing_permuter`).

    Inputs: ``n * payload_width`` data wires (bundle-major), then one
    control wire per switch in :class:`~repro.networks.benes.BenesNetwork`
    construction order.  Outputs: routed bundles.
    """
    from .benes import benes_switch_count

    lg(n)
    if payload_width < 1:
        raise ValueError("payload_width must be >= 1")
    b = CircuitBuilder(f"carrying-benes-{n}x{payload_width}")
    bundles = [b.add_inputs(payload_width) for _ in range(n)]
    controls = iter(b.add_inputs(benes_switch_count(n)))

    def construct(data: List[List[int]]) -> List[List[int]]:
        m = len(data)
        if m == 2:
            ctrl = next(controls)
            lo, hi = [], []
            for wa, wb in zip(data[0], data[1]):
                o0, o1 = b.switch2(wa, wb, ctrl)
                lo.append(o0)
                hi.append(o1)
            return [lo, hi]
        half = m // 2
        upper_in: List[List[int]] = []
        lower_in: List[List[int]] = []
        for i in range(half):
            ctrl = next(controls)
            up, dn = [], []
            for wa, wb in zip(data[2 * i], data[2 * i + 1]):
                o0, o1 = b.switch2(wa, wb, ctrl)
                up.append(o0)
                dn.append(o1)
            upper_in.append(up)
            lower_in.append(dn)
        upper_out = construct(upper_in)
        lower_out = construct(lower_in)
        out: List[List[int]] = []
        for j in range(half):
            ctrl = next(controls)
            o_even, o_odd = [], []
            for wa, wb in zip(upper_out[j], lower_out[j]):
                o0, o1 = b.switch2(wa, wb, ctrl)
                o_even.append(o0)
                o_odd.append(o1)
            out.extend([o_even, o_odd])
        return out

    routed = construct(bundles)
    outputs = [w for bundle in routed for w in bundle]
    return b.build(outputs)


class CarryingBenes:
    """Word-level Benes: fabric from :func:`build_carrying_benes` plus
    the looping-algorithm router from
    :class:`~repro.networks.benes.BenesNetwork`."""

    def __init__(self, n: int, payload_width: int) -> None:
        from .benes import BenesNetwork

        self.n, self.payload_width = n, payload_width
        self.netlist = build_carrying_benes(n, payload_width)
        self._router = BenesNetwork(n)

    def cost(self) -> int:
        return self.netlist.cost()

    def depth(self) -> int:
        return self.netlist.depth()

    def permute(self, perm: Sequence[int], payloads) -> np.ndarray:
        """Route word payloads so output ``perm[i]`` gets input i's word."""
        pays = np.asarray(payloads, dtype=np.int64).ravel()
        if pays.size != self.n:
            raise ValueError(f"expected {self.n} payloads")
        settings = self._router.route(perm)
        vec: List[int] = []
        for p in pays:
            vec.extend(
                (int(p) >> j) & 1
                for j in range(self.payload_width - 1, -1, -1)
            )
        vec.extend(settings)
        out = simulate(self.netlist, [vec])[0]
        w = self.payload_width
        return np.array(
            [
                int("".join(map(str, out[i * w : (i + 1) * w])), 2)
                for i in range(self.n)
            ],
            dtype=np.int64,
        )


def build_carrying_concentrator(n: int, payload_width: int) -> Netlist:
    """A physical (n,n)-concentrator: the paper's tagging trick in hardware.

    Inputs per position: one *request* wire (1 = wants an output) and
    ``payload_width`` payload wires.  Internally the request is inverted
    into the paper's 0-tag ("tag the inputs to be concentrated with 0's")
    and a carrying sorter moves whole bundles; outputs per position are
    a *valid* wire (1 = this output received a request) and the payload.
    """
    lg(n)
    if payload_width < 1:
        raise ValueError("payload_width must be >= 1")
    b = CircuitBuilder(f"carrying-concentrator-{n}x{payload_width}")
    lanes: Lanes = [[] for _ in range(payload_width + 1)]
    for _ in range(n):
        req = b.add_input()
        lanes[0].append(b.not_(req))  # requesters tagged 0
        for j in range(payload_width):
            lanes[j + 1].append(b.add_input())
    out_lanes = carrying_sorter_lanes(b, lanes)
    outputs: List[int] = []
    for i in range(n):
        outputs.append(b.not_(out_lanes[0][i]))  # valid = tag 0
        for j in range(payload_width):
            outputs.append(out_lanes[j + 1][i])
    return b.build(outputs)


class CarryingConcentrator:
    """Convenience wrapper around :func:`build_carrying_concentrator`."""

    def __init__(self, n: int, payload_width: int) -> None:
        self.n, self.payload_width = n, payload_width
        self.netlist = build_carrying_concentrator(n, payload_width)

    def cost(self) -> int:
        return self.netlist.cost()

    def depth(self) -> int:
        return self.netlist.depth()

    def concentrate(self, requests, payloads) -> List[int]:
        """Returns the granted payload values, in output order."""
        req = np.asarray(requests, dtype=np.uint8).ravel()
        pays = np.asarray(payloads, dtype=np.int64).ravel()
        if req.size != self.n or pays.size != self.n:
            raise ValueError(f"expected {self.n} requests/payloads")
        vec: List[int] = []
        for r, p in zip(req, pays):
            vec.append(int(r))
            vec.extend(
                (int(p) >> j) & 1
                for j in range(self.payload_width - 1, -1, -1)
            )
        out = simulate(self.netlist, [vec])[0]
        stride = self.payload_width + 1
        granted: List[int] = []
        for pos in range(self.n):
            if out[pos * stride]:
                bits = out[pos * stride + 1 : (pos + 1) * stride]
                granted.append(int("".join(map(str, bits)), 2))
            else:
                break  # grants are contiguous from the top by construction
        return granted


@dataclass(frozen=True)
class SelfRoutingPermuter:
    """Convenience wrapper around :func:`build_self_routing_permuter`."""

    n: int
    payload_width: int
    netlist: Netlist

    @classmethod
    def create(cls, n: int, payload_width: int = 0) -> "SelfRoutingPermuter":
        return cls(n, payload_width, build_self_routing_permuter(n, payload_width))

    def permute(self, perm: Sequence[int], payloads=None) -> np.ndarray:
        """Route; returns per-output payload values (or addresses if
        ``payload_width`` is 0, as a self-check)."""
        lg_n = lg(self.n)
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of range(n)")
        if payloads is None:
            payloads = [0] * self.n
        vec: List[int] = []
        for i in range(self.n):
            dest = perm[i]
            for j in range(lg_n - 1, -1, -1):
                vec.append((dest >> j) & 1)
            for j in range(self.payload_width - 1, -1, -1):
                vec.append((int(payloads[i]) >> j) & 1)
        out = simulate(self.netlist, [vec])[0]
        width = lg_n + self.payload_width
        results = np.empty(self.n, dtype=np.int64)
        for pos in range(self.n):
            bits = out[pos * width : (pos + 1) * width]
            if self.payload_width:
                pay_bits = bits[lg_n:]
                results[pos] = int("".join(map(str, pay_bits)), 2)
            else:
                results[pos] = int("".join(map(str, bits[:lg_n])), 2)
        return results

"""Extension: sorting words by a cascade of binary sorting steps (§I).

The paper's introduction observes that "the permutation and sorting
problems can be broken into a sequence of sorting steps on binary
sequences".  This module makes that executable: an LSD radix sorter for
W-bit words whose every stage is a *stable binary split* built from the
repo's own machinery —

1. a gate-level **rank circuit** computes each item's destination from
   the current bit: zeros keep their relative order in positions
   ``0..n0-1``, ones in ``n0..n-1``.  Ranks come from a parallel prefix
   popcount scan (``O(n lg n)`` gates, logarithmic adder levels);
2. a **self-routing permutation network** (the paper's Fig. 10 radix
   permuter, or a Benes network for the circuit-switched comparison)
   physically moves the words to those destinations.

Because each split is stable, W cascaded stages sort W-bit words — the
sorting-as-binary-sorting decomposition the paper appeals to, with cost
``W * (O(n lg n) rank + permuter)`` and no word-width comparators
anywhere (contrast Batcher word sorters whose every comparator costs
``O(W)`` gates and ``O(lg W)`` depth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.builder import CircuitBuilder
from ..circuits.netlist import Netlist, lg
from ..circuits.simulate import simulate
from ..components.prefix_adder import add_counts, prefix_sum_scan
from .benes import BenesNetwork
from .permutation import RadixPermuter


def _const_vector(b: CircuitBuilder, value: int, width: int) -> List[int]:
    return [b.const((value >> i) & 1) for i in range(width)]


def _not_vector(b: CircuitBuilder, bits: Sequence[int]) -> List[int]:
    return [b.not_(w) for w in bits]


def _pad(b: CircuitBuilder, bits: Sequence[int], width: int) -> List[int]:
    out = list(bits)[:width]
    while len(out) < width:
        out.append(b.const(0))
    return out


def build_rank_circuit(n: int) -> Netlist:
    """Stable-split destination circuit for ``n`` tag bits.

    Inputs: the n tags.  Outputs: n destinations of ``lg n`` bits each
    (MSB first, matching the radix permuter's address convention):

    * ``dest[i] = i - ones_before(i)``          when ``tag[i] = 0``
    * ``dest[i] = (n - ones_total) + ones_before(i)``  when ``tag[i] = 1``

    Subtractions are two's-complement tricks (NOT + add constant), so
    the whole circuit is adders, muxes, and inverters.
    """
    lg_n = lg(n, minimum=2)
    w = lg_n + 1  # counts range 0..n
    b = CircuitBuilder(f"rank-circuit-{n}")
    tags = b.add_inputs(n)
    inclusive = prefix_sum_scan(b, tags)
    total = _pad(b, inclusive[n - 1], w)
    # n0 = n - total  ==  (NOT_w(total) + n + 1) mod 2^w
    n0 = add_counts(b, _not_vector(b, total), _const_vector(b, n + 1, w))[:w]
    dest_wires: List[int] = []
    for i in range(n):
        ones_before = (
            _const_vector(b, 0, w)
            if i == 0
            else _pad(b, inclusive[i - 1], w)
        )
        # zero-destination: i - ones_before = NOT(ones_before) + i + 1
        zero_dest = add_counts(
            b, _not_vector(b, ones_before), _const_vector(b, i + 1, w)
        )[:w]
        one_dest = add_counts(b, n0, ones_before)[:w]
        chosen = [
            b.mux2(zero_dest[j], one_dest[j], tags[i]) for j in range(lg_n)
        ]
        dest_wires.extend(reversed(chosen))  # MSB first per item
    return b.build(dest_wires)


@dataclass(frozen=True)
class WordSortReport:
    """Accounting of one word sort."""

    n: int
    width: int
    passes: int
    rank_cost: int
    permuter_cost: int
    total_cost: int
    sort_time: int


class RadixWordSorter:
    """Sorts ``n`` unsigned ``width``-bit words via stable binary splits."""

    def __init__(self, n: int, width: int, permuter: str = "benes") -> None:
        lg(n, minimum=2)
        if width < 1:
            raise ValueError("width must be >= 1")
        self.n, self.width = n, width
        self.rank_circuit = build_rank_circuit(n)
        self.permuter_kind = permuter
        if permuter == "benes":
            self._benes: Optional[BenesNetwork] = BenesNetwork(n)
            self._radix: Optional[RadixPermuter] = None
            self._permuter_cost = self._benes.cost()
            self._permute_time = self._benes.depth()
        elif permuter in ("radix_fish", "radix_mux"):
            backend = "fish" if permuter == "radix_fish" else "mux_merger"
            self._benes = None
            self._radix = RadixPermuter(n, backend=backend)
            self._permuter_cost = self._radix.cost()
            self._permute_time = self._radix.routing_time()
        else:
            raise ValueError(f"unknown permuter {permuter!r}")

    # -- accounting ---------------------------------------------------------------

    def cost(self) -> int:
        """Hardware for the full W-stage cascade."""
        return self.width * (self.rank_circuit.cost() + self._permuter_cost)

    def sort_time(self) -> int:
        """Unit delays through the cascade."""
        return self.width * (self.rank_circuit.depth() + self._permute_time)

    @staticmethod
    def batcher_word_cost(n: int, width: int) -> float:
        """Baseline model: Batcher OEM with W-bit word comparators.

        A W-bit comparator-exchange is ~``5W`` gates (compare + swap),
        so the word network costs ``5W x (n/4)(lg^2 n - lg n + 4)``.
        """
        lg = math.log2(n)
        return 5 * width * (n / 4) * (lg * lg - lg + 4)

    # -- sorting ---------------------------------------------------------------------

    def _split_dests(self, tags: np.ndarray) -> np.ndarray:
        out = simulate(self.rank_circuit, tags[None, :])[0]
        lg_n = self.n.bit_length() - 1
        dests = np.empty(self.n, dtype=np.int64)
        for i in range(self.n):
            bits = out[i * lg_n : (i + 1) * lg_n]  # MSB first
            dests[i] = int("".join(map(str, bits)), 2) if lg_n else 0
        return dests

    def sort(self, values) -> Tuple[np.ndarray, WordSortReport]:
        """Sort ``n`` unsigned integers of at most ``width`` bits."""
        vals = np.asarray(values, dtype=np.int64).ravel()
        if vals.size != self.n:
            raise ValueError(f"expected {self.n} values, got {vals.size}")
        if vals.min(initial=0) < 0 or vals.max(initial=0) >= (1 << self.width):
            raise ValueError(f"values must fit in {self.width} unsigned bits")
        current = vals.copy()
        for bit in range(self.width):
            tags = ((current >> bit) & 1).astype(np.uint8)
            dests = self._split_dests(tags)
            if self._benes is not None:
                current = self._benes.permute(dests.tolist(), current)
            else:
                current, _ = self._radix.permute(dests.tolist(), current)
        report = WordSortReport(
            n=self.n,
            width=self.width,
            passes=self.width,
            rank_cost=self.rank_circuit.cost(),
            permuter_cost=self._permuter_cost,
            total_cost=self.cost(),
            sort_time=self.sort_time(),
        )
        return current, report

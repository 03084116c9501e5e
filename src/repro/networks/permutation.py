"""The radix permuter built from adaptive binary sorters (Section IV, Fig. 10).

Jan and Oruc's radix permuter recursion, with the paper's twist: "by
sorting the leading bits in the destination address, a binary sorter can
distribute the inputs to the upper and lower half-size radix permuters".
An n-input permuter is a binary sorter on the destination MSB feeding two
(n/2)-input permuters on the remaining bits.

Backends (Section IV distinguishes them):

* ``"fish"`` — packet-switched: each distributor is a time-multiplexed
  fish sorter.  Cost ``C_rp(n) = O(n) + 2 C_rp(n/2) = O(n lg n)``,
  routing time ``D_rp(n) = O(lg^2 n) + D_rp(n/2) = O(lg^3 n)`` — the
  first permutation network with ``O(n lg n)`` bit-level cost (Table II).
* ``"mux_merger"`` / ``"prefix"`` — circuit-switched: combinational
  distributors; cost ``O(n lg^2 n)`` "but with a much simpler design"
  (Section V).

Every distribution physically routes payloads through the corresponding
sorter with the payload-carrying simulator; nothing is permuted "on
paper".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.netlist import Netlist, lg
from ..circuits.simulate import simulate_payload
from ..core.fish_sorter import FishSorter
from ..core.mux_merger import build_mux_merger_sorter
from ..core.prefix_sorter import build_prefix_sorter

#: Smallest size at which the fish backend actually time-multiplexes;
#: below it the recursion falls back to a combinational mux-merger
#: distributor (the paper's asymptotic analysis is silent on base sizes).
FISH_MIN_SIZE = 8


@dataclass(frozen=True)
class PermutationReport:
    """Cost/time of one permutation routing."""

    n: int
    backend: str
    routing_time: int
    distributor_levels: int


class RadixPermuter:
    """Fig. 10's recursive permutation network over binary sorters."""

    def __init__(self, n: int, backend: str = "fish", pipelined: bool = True):
        lg(n)
        if n < 2:
            raise ValueError("permuter needs n >= 2")
        if backend not in ("fish", "mux_merger", "prefix"):
            raise ValueError(f"unknown backend {backend!r}")
        self.n = n
        self.backend = backend
        self.pipelined = pipelined
        # one distributor instance per level size (hardware has 2^i of
        # them at size n/2^i; they are identical, so we simulate with one
        # and account cost with multiplicity)
        self._combinational: Dict[int, Netlist] = {}
        self._fish: Dict[int, FishSorter] = {}
        m = n
        while m >= 2:
            if backend == "fish" and m >= FISH_MIN_SIZE:
                self._fish[m] = FishSorter(m)
            elif backend == "prefix":
                self._combinational[m] = build_prefix_sorter(m)
            else:
                self._combinational[m] = build_mux_merger_sorter(m)
            m //= 2

    # -- accounting ----------------------------------------------------------------

    def cost(self) -> int:
        """Total bit-level cost: every distributor at every level."""
        total = 0
        m, copies = self.n, 1
        while m >= 2:
            if m in self._fish:
                total += copies * self._fish[m].cost()
            else:
                total += copies * self._combinational[m].cost()
            m //= 2
            copies *= 2
        return total

    def distributor_time(self, m: int) -> int:
        """Routing time through one level-m distributor."""
        if m in self._fish:
            # a representative sort's reported time (data-independent)
            fs = self._fish[m]
            _, report = fs.sort(np.zeros(m, dtype=np.uint8), pipelined=self.pipelined)
            return report.sorting_time
        return self._combinational[m].depth()

    def routing_time(self) -> int:
        """Total routing time: distributors at successive levels are
        sequential; sibling permuters run in parallel."""
        return sum(self.distributor_time(m) for m in self._level_sizes())

    def _level_sizes(self) -> List[int]:
        sizes = []
        m = self.n
        while m >= 2:
            sizes.append(m)
            m //= 2
        return sizes

    # -- routing ---------------------------------------------------------------------

    def permute(self, perm: Sequence[int], payloads) -> Tuple[np.ndarray, PermutationReport]:
        """Route payloads so output ``perm[i]`` receives input i's payload."""
        perm = np.asarray(perm, dtype=np.int64)
        pays = np.asarray(payloads, dtype=np.int64).ravel()
        if sorted(perm.tolist()) != list(range(self.n)):
            raise ValueError("perm must be a permutation of range(n)")
        if pays.size != self.n:
            raise ValueError(f"expected {self.n} payloads")
        out = self._distribute(perm.copy(), pays.copy())
        report = PermutationReport(
            n=self.n,
            backend=self.backend,
            routing_time=self.routing_time(),
            distributor_levels=len(self._level_sizes()),
        )
        return out, report

    def _distribute(self, dests: np.ndarray, pays: np.ndarray) -> np.ndarray:
        """Recursively sort by destination MSB and split."""
        m = dests.size
        if m == 1:
            return pays
        half = m // 2
        tags = (dests >= half).astype(np.uint8)
        ids = np.arange(m, dtype=np.int64)
        if m in self._fish:
            _, out_ids, _ = self._fish[m].sort_with_payload(
                tags, ids, pipelined=self.pipelined
            )
        else:
            _, out_ids_b = simulate_payload(
                self._combinational[m], tags[None, :], ids[None, :]
            )
            out_ids = out_ids_b[0]
        dests = dests[out_ids]
        pays = pays[out_ids]
        upper = self._distribute(dests[:half], pays[:half])
        lower = self._distribute(dests[half:] - half, pays[half:])
        return np.concatenate([upper, lower])


def check_permutation(perm, payloads, routed) -> bool:
    """Validate that output ``perm[i]`` received input i's payload."""
    perm = np.asarray(perm)
    pays = np.asarray(payloads)
    routed = np.asarray(routed)
    return all(routed[perm[i]] == pays[i] for i in range(perm.size))

"""Batcher's odd-even merge and bitonic sorting networks (baselines).

These are the classical *nonadaptive* comparator networks the paper
improves upon (Fig. 4(a) shows the 16-input odd-even merge sorter).  Both
are represented as explicit comparator schedules — lists of stages, each
stage a list of ``(i, j)`` pairs with ``i < j`` — from which netlists,
behavioral sorts, and exact cost/depth counts all derive.

Known exact counts for ``n = 2^p`` (verified by tests against the built
networks):

* odd-even merge sorter: ``(p^2 - p + 4) * 2^(p-2) - 1`` comparators,
  depth ``p (p + 1) / 2``;
* bitonic sorter: ``p (p + 1) * 2^(p-2)`` comparators, same depth.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..circuits.builder import CircuitBuilder
from ..circuits.netlist import Netlist, lg

Stage = List[Tuple[int, int]]


# -- comparator schedules ------------------------------------------------------


def odd_even_merge_schedule(n: int) -> List[Stage]:
    """Comparator stages of Batcher's n-input odd-even merge sorter."""
    lg(n)

    def sort(lo: int, m: int) -> List[Stage]:
        if m <= 1:
            return []
        half = m // 2
        upper = sort(lo, half)
        lower = sort(lo + half, half)
        head = [
            a + b for a, b in zip(_pad(upper, lower), _pad(lower, upper))
        ]
        return head + merge(lo, m, 1)

    def merge(lo: int, m: int, step: int) -> List[Stage]:
        jump = step * 2
        if jump >= m:
            return [[(lo, lo + step)]]
        evens = merge(lo, m, jump)
        odds = merge(lo + step, m, jump)
        head = [a + b for a, b in zip(_pad(evens, odds), _pad(odds, evens))]
        tail: Stage = [
            (i, i + step)
            for i in range(lo + step, lo + m - step, jump)
        ]
        return head + [tail]

    def _pad(a: List[Stage], b: List[Stage]) -> List[Stage]:
        return a + [[] for _ in range(len(b) - len(a))]

    return [s for s in sort(0, n) if s]


def bitonic_schedule(n: int) -> List[Stage]:
    """Comparator stages of Batcher's n-input bitonic sorter.

    Uses the standard ascending formulation where every comparator is
    ``(min up, max down)`` — pairs ``(i, i ^ j)`` compared when the
    containing block is ascending, reversed otherwise, normalized to
    ``i < j`` order with direction folded in.  We emit only ascending
    comparators by using the "bitonic merge on i & k" form.
    """
    lg(n)
    stages: List[Stage] = []
    k = 2
    while k <= n:
        j = k // 2
        while j >= 1:
            stage: Stage = []
            for i in range(n):
                partner = i ^ j
                if partner > i:
                    if i & k:
                        stage.append((partner, i))  # descending block
                    else:
                        stage.append((i, partner))
                    # normalize below
            stage = [(min(a, b), max(a, b), a > b) for a, b in stage]
            stages.append(stage)  # type: ignore[arg-type]
            j //= 2
        k *= 2
    # Each entry is (lo_index, hi_index, reversed?) where reversed means
    # max goes to lo_index.
    return stages  # type: ignore[return-value]


# -- netlists ------------------------------------------------------------------


def build_from_schedule(n: int, stages: Sequence[Stage], name: str) -> Netlist:
    """Build a comparator netlist from a schedule of (i, j) stages."""
    b = CircuitBuilder(name)
    wires = b.add_inputs(n)
    current = list(wires)
    for stage in stages:
        for pair in stage:
            if len(pair) == 3:  # (lo, hi, reversed)
                i, j, rev = pair  # type: ignore[misc]
            else:
                i, j = pair  # type: ignore[misc]
                rev = False
            lo, hi = b.comparator(current[i], current[j])
            if rev:
                current[i], current[j] = hi, lo
            else:
                current[i], current[j] = lo, hi
    return b.build(current)


def build_odd_even_merge_sorter(n: int) -> Netlist:
    """Batcher odd-even merge sorter netlist (Fig. 4(a) for n=16)."""
    return build_from_schedule(n, odd_even_merge_schedule(n), f"batcher-oem-{n}")


def build_bitonic_sorter(n: int) -> Netlist:
    """Batcher bitonic sorter netlist."""
    return build_from_schedule(n, bitonic_schedule(n), f"batcher-bitonic-{n}")


# -- exact formulas -------------------------------------------------------------


def oem_comparator_count(n: int) -> int:
    """Exact comparator count of the odd-even merge sorter."""
    p = lg(n)
    if p == 0:
        return 0
    return (p * p - p + 4) * (1 << (p - 2)) - 1 if p >= 2 else 1


def bitonic_comparator_count(n: int) -> int:
    """Exact comparator count of the bitonic sorter."""
    p = lg(n)
    if p <= 1:
        return p  # 0 or 1 comparators
    return p * (p + 1) * (1 << (p - 2))


def batcher_depth(n: int) -> int:
    """Depth of either Batcher sorter: ``lg n (lg n + 1) / 2``."""
    p = lg(n)
    return p * (p + 1) // 2


# -- behavioral ----------------------------------------------------------------


def apply_schedule(values, stages: Sequence[Stage]) -> np.ndarray:
    """Run a comparator schedule on arbitrary comparable values (oracle).

    Works on any dtype; used to check the zero-one principle claims and
    as a general-purpose sorter oracle.
    """
    out = np.array(values).copy()
    for stage in stages:
        for pair in stage:
            if len(pair) == 3:
                i, j, rev = pair  # type: ignore[misc]
            else:
                i, j = pair  # type: ignore[misc]
                rev = False
            a, c = out[i], out[j]
            if rev:
                out[i], out[j] = max(a, c), min(a, c)
            else:
                out[i], out[j] = min(a, c), max(a, c)
    return out

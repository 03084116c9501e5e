"""The periodic balanced sorting network of Dowd, Perl, Rudolph, and Saks.

Reference [8]/[9] in the paper: ``lg n`` identical *balanced merging
blocks* in cascade sort any input.  Each block is the recursive
``(i, n-1-i)`` comparator structure of
:func:`repro.core.balanced_merge.balanced_merging_block` (depth ``lg n``,
cost ``(n/2) lg n``), giving the full sorter cost ``(n/2) lg^2 n`` and
depth ``lg^2 n``.

This is the network family from which the paper borrows its merging
block; it serves as the ``O(n lg^2 n)`` nonadaptive baseline alongside
Batcher's sorters.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..circuits.builder import CircuitBuilder
from ..circuits.netlist import Netlist, lg
from ..core.balanced_merge import (
    balanced_merge_behavioral,
    balanced_merging_block,
)


def build_balanced_sorter(n: int) -> Netlist:
    """Periodic balanced sorter: ``lg n`` cascaded balanced merging blocks."""
    lg_n = lg(n)
    b = CircuitBuilder(f"balanced-sorter-{n}")
    wires: List[int] = b.add_inputs(n)
    for _ in range(max(lg_n, 1) if n > 1 else 0):
        wires = balanced_merging_block(b, wires)
    return b.build(wires)


def balanced_sorter_cost(n: int) -> int:
    """Closed-form cost ``(n/2) lg^2 n``."""
    lg_n = lg(n)
    return (n // 2) * lg_n * lg_n


def balanced_sort_behavioral(bits) -> np.ndarray:
    """NumPy oracle: apply ``lg n`` balanced merging blocks."""
    out = np.asarray(bits, dtype=np.uint8).copy()
    n = out.size
    if n <= 1:
        return out
    for _ in range(lg(n)):
        out = balanced_merge_behavioral(out)
    return out

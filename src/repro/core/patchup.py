"""The patch-up network of Network 1 (Section III-A, Fig. 5).

The patch-up network sorts any member of ``A_n`` (Definition 1).  Each
level applies:

1. one balanced comparator stage (pairs ``(i, n-1-i)``) — by Theorem 2
   this leaves one half *clean* and the other half in ``A_{n/2}``;
2. a two-way swapper that channels the unsorted half to the lower half,
   steered by whether the number of 1's in the sequence is at least
   ``n/2``;
3. a recursive half-size patch-up on the lower half;
4. a final two-way swapper (same select) that puts the patched half back.

Steering comes from a *single* ones-count computed once by the sorter's
prefix adder.  Writing the count in binary (``lg n + 1`` bits for a
length-``n`` level), the level select is

    ``select = count[lg n] OR count[lg n - 1]``        (count >= n/2?)

and the count handed to the half-size level is the same bit vector with
those two bits collapsed:

    ``child = count[0 .. lg n - 2] ++ [count[lg n]]``

because when ``select`` is 1 the unsorted half holds ``count - n/2``
ones (subtracting ``n/2`` clears bit ``lg n - 1`` and leaves bit
``lg n`` only when ``count == n``, in which case it becomes the child's
top bit), and when ``select`` is 0 the count is unchanged and both high
bits are 0.  Each level therefore costs one OR gate of steering logic on
top of its ``3n/2`` switching cost — this is what lets the whole
recursion run off one adder per sorter node, keeping
``C_p(n) = 3n/2 + C_p(n/2) <= 3n``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..circuits.builder import CircuitBuilder
from ..circuits.netlist import Netlist, lg
from ..components.prefix_adder import popcount
from ..components.swappers import two_way_swapper
from .balanced_merge import balanced_comparator_stage, balanced_stage_behavioral


def patchup_network(
    b: CircuitBuilder, wires: Sequence[int], count_bits: Sequence[int]
) -> List[int]:
    """Build a patch-up network over ``wires``.

    ``count_bits`` is the ones-count of the input sequence, least
    significant bit first, exactly ``lg n + 1`` bits wide.  The input
    must be a member of ``A_n`` for the output to be sorted (guaranteed
    by Theorem 1 at every use site).
    """
    n = len(wires)
    lg_n = lg(n)
    if len(count_bits) != lg_n + 1:
        raise ValueError(
            f"patch-up over {n} wires needs {lg_n + 1} count bits, "
            f"got {len(count_bits)}"
        )
    if n == 1:
        return list(wires)
    if n == 2:
        lo, hi = b.comparator(wires[0], wires[1])
        return [lo, hi]
    staged = balanced_comparator_stage(b, wires)
    # The two count bits consumed here and the derived select are the
    # level's adaptive steering path; tag them so fault models can
    # target the prefix-adder→patch-up control wires specifically (the
    # remaining count bits steer only deeper recursion levels, where
    # they are tagged by the level that reads them).
    b.tag_control(count_bits[lg_n], count_bits[lg_n - 1])
    select = b.or_(count_bits[lg_n], count_bits[lg_n - 1])
    swapped = two_way_swapper(b, staged, select)
    child_count = list(count_bits[: lg_n - 1]) + [count_bits[lg_n]]
    lower = patchup_network(b, swapped[n // 2 :], child_count)
    return two_way_swapper(b, list(swapped[: n // 2]) + lower, select)


def build_patchup_network(n: int, adder: str = "prefix") -> Netlist:
    """Standalone patch-up netlist with its own popcount front end.

    Used by unit tests and the steering ablation; Network 1 itself feeds
    the patch-up from the sorter's recursive adders instead (see
    :mod:`repro.core.prefix_sorter`).
    """
    lg_n = lg(n)
    b = CircuitBuilder(f"patchup-{n}")
    wires = b.add_inputs(n)
    count = popcount(b, wires, adder=adder)
    while len(count) < lg_n + 1:
        count.append(b.const(0))
    return b.build(patchup_network(b, wires, count[: lg_n + 1]))


def patchup_behavioral(bits: np.ndarray) -> np.ndarray:
    """NumPy oracle of the patch-up network (asserts Theorem 2 en route)."""
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.size
    if n <= 1:
        return bits.copy()
    if n == 2:
        return np.sort(bits)
    staged = balanced_stage_behavioral(bits)
    ones = int(bits.sum())
    if ones >= n // 2:
        # lower half is clean (all 1's); patch the upper half
        upper = patchup_behavioral(staged[: n // 2])
        return np.concatenate([upper, staged[n // 2 :]])
    lower = patchup_behavioral(staged[n // 2 :])
    return np.concatenate([staged[: n // 2], lower])

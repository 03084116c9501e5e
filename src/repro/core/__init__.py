"""The paper's primary contribution: three adaptive binary sorting networks.

* Network 1 — :func:`~repro.core.prefix_sorter.build_prefix_sorter`
  (``O(n lg n)`` cost, prefix-adder steering).
* Network 2 — :func:`~repro.core.mux_merger.build_mux_merger_sorter`
  (``O(n lg n)`` cost, no adder).
* Network 3 — :class:`~repro.core.fish_sorter.FishSorter`
  (``O(n)`` cost, time-multiplexed).

Plus the sequence classes of Definitions 1-5 (:mod:`repro.core.sequences`)
and the shared substructures (balanced merging block, patch-up network,
k-way machinery).
"""

from .api import (cache_info, clear_cache, make_checked_sorter, make_sorter,
                  next_power_of_two, pad_bits, set_cache_limit, sort_bits,
                  sort_bits_many)
from .balanced_merge import (
    balanced_merge_behavioral,
    balanced_merging_block,
    build_alternative_oem_sorter,
    build_balanced_merging_block,
)
from .fish_sorter import FishSorter, SortReport, default_k
from .kway import CleanSorter, KWayMuxMerger, PhaseCost, build_k_swap
from .mux_merger import (
    IN_SWAP_PERMS,
    OUT_SWAP_PERMS,
    build_mux_merger,
    build_mux_merger_sorter,
    classify_bisorted,
    mux_merge_behavioral,
    mux_merger,
    mux_merger_sort_behavioral,
    mux_merger_sorter,
)
from .patchup import build_patchup_network, patchup_behavioral, patchup_network
from .prefix_sorter import (
    build_prefix_sorter,
    prefix_sort_behavioral,
    prefix_sorter,
)
from .table1 import Table1Assignment, derive_table1
from .sequences import (
    as_bits,
    count_A,
    enumerate_A,
    enumerate_bisorted,
    enumerate_clean_k_sorted,
    enumerate_k_sorted,
    in_A,
    is_bisorted,
    is_clean,
    is_clean_k_sorted,
    is_k_sorted,
    is_sorted_binary,
    random_bisorted,
    random_clean_k_sorted,
    random_k_sorted,
    random_sorted,
    shuffle_concat,
    sorted_sequence,
)

__all__ = [
    "CleanSorter",
    "FishSorter",
    "IN_SWAP_PERMS",
    "KWayMuxMerger",
    "OUT_SWAP_PERMS",
    "PhaseCost",
    "SortReport",
    "Table1Assignment",
    "as_bits",
    "balanced_merge_behavioral",
    "balanced_merging_block",
    "build_alternative_oem_sorter",
    "build_balanced_merging_block",
    "build_k_swap",
    "build_mux_merger",
    "build_mux_merger_sorter",
    "build_patchup_network",
    "build_prefix_sorter",
    "cache_info",
    "classify_bisorted",
    "clear_cache",
    "count_A",
    "default_k",
    "derive_table1",
    "enumerate_A",
    "enumerate_bisorted",
    "enumerate_clean_k_sorted",
    "enumerate_k_sorted",
    "in_A",
    "is_bisorted",
    "is_clean",
    "is_clean_k_sorted",
    "is_k_sorted",
    "is_sorted_binary",
    "make_checked_sorter",
    "make_sorter",
    "mux_merge_behavioral",
    "mux_merger",
    "mux_merger_sort_behavioral",
    "mux_merger_sorter",
    "next_power_of_two",
    "pad_bits",
    "patchup_behavioral",
    "patchup_network",
    "prefix_sort_behavioral",
    "prefix_sorter",
    "random_bisorted",
    "random_clean_k_sorted",
    "random_k_sorted",
    "random_sorted",
    "set_cache_limit",
    "shuffle_concat",
    "sort_bits",
    "sort_bits_many",
    "sorted_sequence",
]

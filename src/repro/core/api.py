"""Convenience API: sort any-length bit sequences on any network.

The paper assumes power-of-two inputs "with no loss of generality"; this
module supplies the generality: inputs of arbitrary length are padded
with 1's up to the next power of two (padding 1's sort to the bottom and
are stripped), so downstream users get a plain ``sort_bits`` call.

Two serving-oriented features live here as well:

* the sorter cache is a **bounded, thread-safe LRU** — long-running
  services calling :func:`sort_bits` across many sizes/networks no
  longer grow memory without bound, and concurrent callers cannot race
  the build (``clear_cache`` / ``set_cache_limit`` / ``cache_info`` are
  the management hooks);
* ``sort_bits(..., supervised=True)`` routes the call through the
  :class:`repro.runtime.Supervisor` — the sort runs on self-checking
  hardware (:mod:`repro.circuits.checkers`) under a recovery policy, so
  a faulty netlist is detected online and the call still returns the
  correct answer via fallback;
* :func:`sort_bits_many` sorts a whole batch of sequences, optionally
  sharded over crash-isolated worker processes (``jobs=N``, via
  :mod:`repro.parallel`) with results in input order regardless of
  which worker sorted what.

Two rules every sorting surface shares live here too, so the library,
the supervisor, the service fabric and the soak agree on them:
:func:`pad_bits` is the one padding rule, and :func:`make_checked_sorter`
is the one builder (and cache) of self-checking hardware.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Sequence

import numpy as np

from ..circuits.checkers import build_output_checker, with_checkers
from ..circuits.simulate import simulate
from ..errors import BuildError, SimulationError
from .fish_sorter import FishSorter
from .mux_merger import build_mux_merger_sorter
from .prefix_sorter import build_prefix_sorter

#: netlist cache shared by :func:`sort_bits` calls — bounded LRU,
#: guarded by :data:`_CACHE_LOCK` (builds for large n take seconds; the
#: lock makes concurrent first-calls build once, not n_threads times).
#: Checked hardware from :func:`make_checked_sorter` shares it under a
#: ``(network, n, control)`` key.
_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_CACHE_LOCK = threading.RLock()
_CACHE_LIMIT = 32
_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}

NETWORKS = ("mux_merger", "prefix", "fish")


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= n (and >= 1)."""
    if n < 1:
        return 1
    return 1 << (n - 1).bit_length()


def pad_bits(bits, network: str = "mux_merger") -> np.ndarray:
    """Pad 0/1 rows with 1's to the width ``network`` sorts them at.

    The width is the next power of two >= ``max(n, 2)`` (>= 4 for
    ``"fish"``), ``n`` being the length of the last axis, so a 1-D row
    and a 2-D ``(lanes, n)`` batch both work.  The padding 1's sort to
    the bottom, so the first ``n`` outputs of sorting the padded row are
    the sorted original row.  Returns ``bits`` itself when no padding is
    needed.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    n = arr.shape[-1]
    width = next_power_of_two(max(n, 4 if network == "fish" else 2))
    if width == n:
        return arr
    ones = np.ones(arr.shape[:-1] + (width - n,), dtype=np.uint8)
    return np.concatenate([arr, ones], axis=-1)


def _build_sorter(n: int, network: str):
    if network == "mux_merger":
        return build_mux_merger_sorter(n)
    if network == "prefix":
        return build_prefix_sorter(n)
    if network == "fish":
        return FishSorter(n)
    raise BuildError(f"unknown network {network!r}; choose one of {NETWORKS}")


def make_sorter(n: int, network: str = "mux_merger"):
    """Build (and cache) a sorter instance for exactly ``n`` inputs.

    ``n`` must be a power of two here; :func:`sort_bits` handles padding.
    Returns a :class:`~repro.circuits.netlist.Netlist` for the
    combinational networks and a :class:`FishSorter` for ``"fish"``.
    Cached in a bounded thread-safe LRU (see :func:`cache_info`).
    """
    return _cached((network, n), lambda: _build_sorter(n, network))


def make_checked_sorter(n: int, network: str = "mux_merger",
                        control: bool = False):
    """Build (and cache) self-checking hardware for exactly ``n`` inputs.

    For the combinational networks this is the sorter with sortedness,
    ones-count and (with ``control``) steering duplicate-and-compare
    alarms attached (:func:`~repro.circuits.checkers.with_checkers`);
    for ``"fish"`` it is the pair ``(FishSorter, OutputChecker)``, where
    ``control`` has no effect.  One instance per ``(network, n,
    control)`` lives in the same LRU as :func:`make_sorter`, so the
    supervisor and the service fabric share it and :func:`clear_cache`
    drops it.
    """
    def build():
        if network == "fish":
            return make_sorter(n, "fish"), build_output_checker(n)
        return with_checkers(make_sorter(n, network), sortedness=True,
                             count=True, control=control)

    return _cached((network, n, bool(control) and network != "fish"), build)


def _cached(key: tuple, build):
    with _CACHE_LOCK:
        sorter = _CACHE.get(key)
        if sorter is not None:
            _CACHE.move_to_end(key)
            _CACHE_STATS["hits"] += 1
            return sorter
        # Build under the lock: concurrent first-calls must not each pay
        # the (multi-second at large n) construction, and an unknown
        # network name must fail before touching the cache.
        sorter = build()
        _CACHE_STATS["misses"] += 1
        _CACHE[key] = sorter
        while len(_CACHE) > _CACHE_LIMIT:
            _CACHE.popitem(last=False)
            _CACHE_STATS["evictions"] += 1
        return sorter


def sort_bits(
    bits,
    network: str = "mux_merger",
    pipelined: bool = False,
    supervised: bool = False,
) -> np.ndarray:
    """Sort a 0/1 sequence of any length on the chosen adaptive network.

    Pads with 1's to the next power of two, sorts, and strips the
    padding (1's are the maximal element, so the first ``len(bits)``
    outputs are exactly the sorted original sequence).

    With ``supervised=True`` the sort runs through the shared
    :class:`repro.runtime.Supervisor` for this network: self-checking
    hardware, alarm watching, retry, and graceful degradation down to a
    behavioral fallback — the call returns a correct answer even when
    the cached netlist is faulty (see :func:`supervisor_stats`).
    """
    if supervised:
        from ..runtime import get_supervisor

        return get_supervisor(network).sort(bits, pipelined=pipelined)
    arr = np.asarray(bits, dtype=np.uint8).ravel()
    if arr.size and arr.max() > 1:
        raise SimulationError("sort_bits expects a 0/1 sequence")
    if arr.size <= 1:
        return arr.copy()
    padded = pad_bits(arr, network)
    sorter = make_sorter(padded.size, network)
    if network == "fish":
        out, _ = sorter.sort(padded, pipelined=pipelined)
    else:
        out = simulate(sorter, padded[None, :])[0]
    return out[: arr.size]


def _batch_worker_init(arg) -> None:
    """Pre-warm each worker's sorter LRU for the sizes in the batch, so
    the (multi-second at large n) netlist builds happen once per worker
    instead of lazily inside the first guarded item."""
    network, sizes = arg
    for n in sizes:
        make_sorter(n, network)


def _sort_shard(payload) -> List[np.ndarray]:
    """Sort one contiguous shard of the batch (runs in a worker)."""
    network, pipelined, arrays = payload
    return [sort_bits(arr, network=network, pipelined=pipelined)
            for arr in arrays]


def sort_bits_many(
    seqs: Sequence,
    network: str = "mux_merger",
    pipelined: bool = False,
    supervised: bool = False,
    jobs: int = 1,
) -> List[np.ndarray]:
    """Sort many 0/1 sequences; results come back in input order.

    The batch equivalent of :func:`sort_bits` (same padding, same
    networks).  With ``supervised=True`` the batch runs in this process
    through the shared supervisor's
    :meth:`~repro.runtime.Supervisor.run_many`, so every call folds into
    :func:`supervisor_stats`; supervised batches take no ``jobs`` (a
    :class:`~repro.errors.BuildError`): a worker's supervisor and its
    stats would die with the worker, and the pool measured slower than
    serial for supervised rows anyway.

    With ``jobs > 1`` an unsupervised batch is sharded over that many
    crash-isolated worker processes (:mod:`repro.parallel`); each worker
    sorts its shard with warm per-process sorter caches.  Results are
    deterministic and identical to a serial call — parallelism never
    reorders or changes outputs.  A batch sort has no quarantine
    side-channel to report into, so a shard that fails (or whose worker
    dies) raises :class:`~repro.errors.SimulationError` naming the
    shard; partial results are never returned silently.
    """
    parallel = jobs is not None and jobs > 1
    if supervised and parallel:
        raise BuildError(
            f"sort_bits_many: supervised batches run in-process; got jobs={jobs}"
        )
    arrays = [np.asarray(s, dtype=np.uint8).ravel() for s in seqs]
    for arr in arrays:
        if arr.size and arr.max() > 1:
            raise SimulationError("sort_bits_many expects 0/1 sequences")
    if not arrays:
        return []
    if supervised:
        from ..runtime import get_supervisor

        outs, _reports = get_supervisor(network).run_many(
            arrays, pipelined=pipelined)
        return outs
    if not parallel or len(arrays) == 1:
        return [sort_bits(arr, network=network, pipelined=pipelined)
                for arr in arrays]
    from ..parallel import run_items

    jobs = min(int(jobs), len(arrays))
    n_shards = min(len(arrays), jobs * 4)
    bounds = np.linspace(0, len(arrays), n_shards + 1, dtype=int)
    shards = [
        (f"shard{i}", (network, pipelined, arrays[bounds[i]:bounds[i + 1]]))
        for i in range(n_shards)
        if bounds[i] < bounds[i + 1]
    ]
    sizes = sorted({pad_bits(arr, network).size
                    for arr in arrays if arr.size > 1})
    outcomes = run_items(
        shards, _sort_shard, jobs=jobs,
        worker_init=_batch_worker_init, init_arg=(network, sizes),
        span="api.sort_shard",
    )
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise SimulationError(
            f"sort_bits_many: {len(failed)} shard(s) failed; first: "
            f"{failed[0].id}: {failed[0].error}"
        )
    return [out for o in outcomes for out in o.value]


def clear_cache() -> None:
    """Drop all cached sorter instances and reset the hit/miss counters
    (frees memory in long sessions; used by tests for isolation)."""
    with _CACHE_LOCK:
        _CACHE.clear()
        _CACHE_STATS.update(hits=0, misses=0, evictions=0)


def set_cache_limit(limit: int) -> None:
    """Resize the LRU (evicting oldest entries if shrinking)."""
    global _CACHE_LIMIT
    if limit < 1:
        raise BuildError(f"cache limit must be >= 1, got {limit}")
    with _CACHE_LOCK:
        _CACHE_LIMIT = limit
        while len(_CACHE) > _CACHE_LIMIT:
            _CACHE.popitem(last=False)
            _CACHE_STATS["evictions"] += 1


def cache_info() -> Dict[str, int]:
    """Snapshot of the sorter LRU: size, limit, hits, misses, evictions."""
    with _CACHE_LOCK:
        return {
            "size": len(_CACHE),
            "limit": _CACHE_LIMIT,
            **_CACHE_STATS,
        }

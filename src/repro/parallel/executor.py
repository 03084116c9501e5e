"""Crash-isolated process-parallel execution of independent work items.

The paper's whole evaluation surface — cost/depth/time sweeps over
(network, n) and fault campaigns over (fault, vector) — decomposes into
independent items, so the executor here is deliberately shaped like a
work-queue shard farm rather than a clever scheduler:

* **work-queue sharding** — the parent holds the item list and deals the
  next item to whichever worker frees up first, so a slow item never
  stalls the others and load balances itself;
* **deterministic result ordering** — outcomes are keyed by submission
  index; :func:`run_items` returns them in submission order regardless
  of completion order, so a parallel sweep's records are *identical* to
  the serial sweep's;
* **per-worker warm caches** — workers are long-lived (one pull loop,
  not one process per item), so per-process caches — compiled
  :class:`~repro.circuits.engine.ExecutionPlan` instances, the
  ``make_sorter`` LRU — warm up once per worker and amortize across all
  the items that worker handles; ``worker_init`` lets callers pre-warm
  explicitly;
* **crash isolation** — a worker that dies mid-item (segfault, OOM
  kill, SIGKILL) loses only the item it was holding: the parent
  notices the death, quarantines that item, and replenishes the pool;
  a worker that *hangs* past the enforceable budget is SIGKILLed and
  handled the same way;
* **deadlines that still mean something** — each item runs under
  :func:`repro.runtime.guard.run_guarded` *on the worker process's main
  thread*, where the fixed SIGALRM guard can actually preempt; the
  ``guarded`` flag in each :class:`ItemOutcome` records whether that
  was true;
* **fork-aware observability** — workers write their traces to per-pid
  shard files and ship metric snapshots back on exit; the parent merges
  both (see :func:`repro.obs.merge_trace_shards`), so a traced
  ``--jobs N`` run yields one coherent trace readable by
  ``tools/trace_report.py``.

Transport is one duplex :func:`multiprocessing.Pipe` per worker, *not* a
shared ``multiprocessing.Queue``: queue puts happen on a background
feeder thread, so a worker SIGKILLed mid-item can take its own progress
reports down with it (and a worker killed while holding the shared
queue's read lock poisons the queue for everyone).  With a private pipe,
sends are synchronous in the calling thread, the parent — which did the
dealing — is the single source of truth for which item each worker
holds, and a dead worker surfaces as EOF on exactly one channel.

``jobs <= 1`` runs the exact same item pipeline in-process (no
subprocess, no pickling), which is both the serial baseline for the
differential tests and the degraded path on platforms without ``fork``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import BuildError
from ..runtime.guard import run_guarded

__all__ = ["ItemOutcome", "run_items"]

#: Extra wall-clock slack on top of the worst-case guarded budget before
#: the parent declares a worker hung and SIGKILLs it.
DEFAULT_HANG_GRACE_S = 5.0

#: Safety factor applied to the nominal per-item budget when computing
#: the parent-side hard kill deadline (the in-worker guard should fire
#: long before this; the hard deadline only catches guards defeated by
#: signal-blocking C code).
HARD_BUDGET_FACTOR = 1.5


@dataclass
class ItemOutcome:
    """What happened to one submitted item."""

    index: int  #: submission index (results are returned sorted by it)
    id: str  #: caller-supplied item id (stable across serial/parallel)
    ok: bool  #: True when ``task(payload)`` returned a value
    value: Any = None  #: the task's return value (None on failure)
    error: Optional[str] = None  #: ``repr`` of the failure, if any
    attempts: int = 1  #: attempts made by the retry guard
    guarded: bool = True  #: whether the deadline could actually preempt
    duration_s: float = 0.0  #: wall-clock of the final state of the item
    pid: Optional[int] = None  #: process that ran (or lost) the item

    def quarantine_record(self) -> Dict[str, Any]:
        """The quarantine-list entry format used by the campaign tools
        (id/error/attempts, plus ``unguarded`` only when the budget
        could not actually be enforced)."""
        record: Dict[str, Any] = {
            "id": self.id,
            "error": self.error,
            "attempts": self.attempts,
        }
        if not self.guarded:
            record["unguarded"] = True
        return record


# ---------------------------------------------------------------------------
# Shared per-item pipeline (used in-process when jobs <= 1, and by workers)
# ---------------------------------------------------------------------------


def _run_one(
    index: int,
    item_id: str,
    payload: Any,
    task: Callable[[Any], Any],
    timeout_s: Optional[float],
    retries: int,
    backoff_s: float,
    span: Optional[str],
) -> ItemOutcome:
    import repro.obs as obs

    report: Dict[str, object] = {}
    started = time.perf_counter()
    with obs.trace_span(span or "parallel.item", item=item_id) as attrs:
        try:
            value = run_guarded(
                task,
                payload,
                timeout_s=timeout_s,
                retries=retries,
                backoff_s=backoff_s,
                what=item_id,
                report=report,
            )
            attrs["ok"] = True
            ok, error = True, None
        except KeyboardInterrupt:
            raise
        except BaseException as exc:
            attrs["ok"] = False
            attrs["error"] = repr(exc)
            ok, value, error = False, None, repr(exc)
    return ItemOutcome(
        index=index,
        id=item_id,
        ok=ok,
        value=value,
        error=error,
        attempts=int(report.get("attempts", 1) or 1),
        guarded=bool(report.get("guarded", True)),
        duration_s=time.perf_counter() - started,
        pid=os.getpid(),
    )


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _parent_obs_config() -> Optional[Dict[str, Any]]:
    import repro.obs as obs

    if not obs.enabled():
        return None
    paths = obs.trace_paths()
    return {"trace": paths[0] if paths else None, "activity": obs.OBS.activity}


def _worker_obs_setup(cfg: Optional[Dict[str, Any]]) -> None:
    """Give the worker its own clean observability state.

    Under ``fork`` the child inherits the parent's sinks, metric values,
    and activity profiles; keeping them would double-count everything
    when the parent merges worker snapshots back in.  Reset, then
    re-enable pointing the file sink directly at this worker's per-pid
    shard.
    """
    import repro.obs as obs

    if obs.enabled() or obs.OBS.tracer.sinks:
        obs.reset()
    if cfg is None:
        return
    trace = cfg.get("trace")
    shard = obs.FileSink.shard_path(trace, os.getpid()) if trace else None
    obs.enable(trace_path=shard, activity=bool(cfg.get("activity", True)))


def _worker_obs_state() -> Optional[List[Dict[str, Any]]]:
    """Flush this worker's activity and return its metrics snapshot."""
    import repro.obs as obs

    if not obs.enabled():
        return None
    obs.flush_activity()
    state = obs.registry().dump_state()
    obs.OBS.tracer.clear_sinks()
    return state or None


def _worker_main(
    conn,
    task: Callable[[Any], Any],
    worker_init: Optional[Callable[[Any], None]],
    init_arg: Any,
    guard: Tuple[Optional[float], int, float, Optional[str]],
    obs_cfg: Optional[Dict[str, Any]],
) -> None:
    try:
        _worker_obs_setup(obs_cfg)
        if worker_init is not None:
            worker_init(init_arg)
    except BaseException as exc:
        conn.send(("init_error", repr(exc)))
        conn.close()
        return
    timeout_s, retries, backoff_s, span = guard
    conn.send(("ready",))
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            index, item_id, payload = message
            outcome = _run_one(
                index, item_id, payload, task, timeout_s, retries,
                backoff_s, span,
            )
            conn.send(("done", outcome))
    except (KeyboardInterrupt, EOFError):
        return
    state = _worker_obs_state()
    if state:
        conn.send(("metrics", state))
    conn.send(("exit",))
    conn.close()


# ---------------------------------------------------------------------------
# Parent-side pool
# ---------------------------------------------------------------------------


def _resolve_hang_budget(
    hang_budget_s: Optional[float],
    timeout_s: Optional[float],
    retries: int,
    backoff_s: float,
) -> Optional[float]:
    """Parent-side SIGKILL deadline per item (None = no hang watch): the
    explicit ``hang_budget_s`` (<= 0 disables the watch), else the
    worst-case guarded budget times :data:`HARD_BUDGET_FACTOR` plus
    :data:`DEFAULT_HANG_GRACE_S` (no watch without a ``timeout_s``)."""
    if hang_budget_s is not None:
        return float(hang_budget_s) if hang_budget_s > 0 else None
    if not timeout_s or timeout_s <= 0:
        return None
    nominal = timeout_s * (retries + 1) + backoff_s * (2 ** max(retries, 0))
    return nominal * HARD_BUDGET_FACTOR + DEFAULT_HANG_GRACE_S


class _Worker:
    """Parent-side handle: process, channel, and the item it holds."""

    __slots__ = ("proc", "conn", "assigned", "finished")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        #: (index, item_id, dispatch_time) while an item is in flight.
        self.assigned: Optional[Tuple[int, str, float]] = None
        self.finished = False


def run_items(
    items: Sequence[Tuple[str, Any]],
    task: Callable[[Any], Any],
    jobs: int = 1,
    *,
    worker_init: Optional[Callable[[Any], None]] = None,
    init_arg: Any = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.05,
    span: Optional[str] = None,
    on_outcome: Optional[Callable[[ItemOutcome], None]] = None,
    hang_budget_s: Optional[float] = None,
) -> List[ItemOutcome]:
    """Run ``task(payload)`` for every ``(item_id, payload)`` item.

    With ``jobs <= 1`` everything runs in-process (the serial baseline);
    otherwise a pool of ``jobs`` worker processes pulls items as they
    free up.  Either way the returned list is ordered by submission
    index and contains exactly one :class:`ItemOutcome` per item: a
    failing, hanging, or dying item is *quarantined* (``ok=False`` with
    the error recorded) and never takes the rest of the batch down.

    ``worker_init(init_arg)`` runs once per worker before any item (and
    once in-process for the serial path) — use it to warm per-process
    caches.  ``timeout_s``/``retries``/``backoff_s`` are the per-item
    :func:`~repro.runtime.guard.run_guarded` parameters; because each
    worker runs items on its own main thread, the deadline actually
    preempts there.  ``span`` names the per-item trace span (e.g.
    ``"sweep.item"``).  ``on_outcome`` is called in the parent for every
    outcome in *completion* order — checkpointing hooks go here.

    A worker that dies mid-item is detected via EOF on its channel; the
    item it held is quarantined and a replacement worker is spawned if
    undispatched work remains.  A worker whose item overruns the
    enforceable budget by :data:`HARD_BUDGET_FACTOR` plus
    :data:`DEFAULT_HANG_GRACE_S` is SIGKILLed and handled the same way
    (this only triggers when the in-worker SIGALRM guard was itself
    defeated, e.g. by signal-blocking C code).  ``hang_budget_s``
    overrides that computed budget with an absolute per-item wall-clock cap — it
    applies even with no ``timeout_s``, which is how long soak runs
    bound a stalled pool; a stall emits a ``parallel.stalled`` trace
    event carrying every worker's in-flight item before the kill, so
    the stall is diagnosable from the trace alone.
    """
    items = [(str(item_id), payload) for item_id, payload in items]
    if jobs is None:
        jobs = 1
    if retries < 0:
        raise BuildError("retries must be >= 0")
    if not items:
        return []
    if jobs <= 1 or len(items) == 1:
        if worker_init is not None:
            worker_init(init_arg)
        outcomes = []
        for index, (item_id, payload) in enumerate(items):
            outcome = _run_one(
                index, item_id, payload, task, timeout_s, retries,
                backoff_s, span,
            )
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
        return outcomes
    return _run_pool(
        items, task, min(int(jobs), len(items)),
        worker_init, init_arg, timeout_s, retries, backoff_s, span,
        on_outcome, hang_budget_s,
    )


def _run_pool(
    items, task, jobs, worker_init, init_arg, timeout_s, retries,
    backoff_s, span, on_outcome, hang_budget_s,
) -> List[ItemOutcome]:
    import repro.obs as obs

    # fork keeps task callables out of pickle (tools load as scripts)
    # and inherits warm imports; spawn is the portable fallback.
    try:
        ctx = mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = mp.get_context("spawn")
    guard = (timeout_s, retries, backoff_s, span)
    obs_cfg = _parent_obs_config()
    hard_budget = _resolve_hang_budget(
        hang_budget_s, timeout_s, retries, backoff_s
    )

    def spawn() -> _Worker:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, task, worker_init, init_arg, guard, obs_cfg),
            daemon=True,
        )
        proc.start()
        # Close the parent's copy of the child end, else the pipe never
        # reports EOF when the worker dies.
        child_conn.close()
        return _Worker(proc, parent_conn)

    workers: List[_Worker] = [spawn() for _ in range(jobs)]
    resolved: Dict[int, ItemOutcome] = {}
    next_index = 0  # first item not yet dealt to a worker
    init_error: Optional[str] = None

    def resolve(outcome: ItemOutcome) -> None:
        if outcome.index in resolved:
            return
        resolved[outcome.index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    def dispatch(worker: _Worker) -> None:
        """Deal the next undispatched item (or the stop sentinel)."""
        nonlocal next_index
        if next_index < len(items):
            index = next_index
            next_index += 1
            item_id, payload = items[index]
            worker.assigned = (index, item_id, time.monotonic())
            try:
                worker.conn.send((index, item_id, payload))
            except (BrokenPipeError, OSError):
                # The worker died (e.g. a kill storm) between its last
                # message and this hand-off.  Nothing was delivered, so
                # put the item back for the replacement worker instead
                # of quarantining an answer that was never attempted.
                worker.assigned = None
                next_index = index
                retire(worker)
        else:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                retire(worker)

    def retire(worker: _Worker, reason: Optional[str] = None) -> None:
        """Handle a dead/killed worker: quarantine its item, replenish."""
        worker.proc.join(timeout=5.0)
        if worker.proc.is_alive():  # pragma: no cover - zombie teardown
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        if reason is None:
            reason = (
                f"worker died mid-item (pid {worker.proc.pid}, "
                f"exitcode {worker.proc.exitcode})"
            )
        worker.conn.close()
        workers.remove(worker)
        if worker.assigned is not None:
            index, item_id, started = worker.assigned
            worker.assigned = None
            resolve(ItemOutcome(
                index=index, id=item_id, ok=False,
                error=reason, attempts=1, guarded=True,
                duration_s=time.monotonic() - started,
                pid=worker.proc.pid,
            ))
            obs.trace_event("parallel.worker_lost", item=item_id,
                            pid=worker.proc.pid, reason=reason)
        if next_index < len(items) and len(workers) < jobs:
            workers.append(spawn())

    def handle(worker: _Worker, message) -> None:
        nonlocal init_error
        kind = message[0]
        if kind == "ready":
            dispatch(worker)
        elif kind == "done":
            worker.assigned = None
            resolve(message[1])
            dispatch(worker)
        elif kind == "metrics":
            if obs.enabled():
                obs.registry().merge_state(message[1])
        elif kind == "exit":
            worker.finished = True
        elif kind == "init_error":
            init_error = message[1]

    try:
        while len(resolved) < len(items):
            active = [w for w in workers if not w.finished]
            if not active:  # pragma: no cover - every replenish failed
                for index in range(len(items)):
                    if index not in resolved:
                        resolve(ItemOutcome(
                            index=index, id=items[index][0], ok=False,
                            error="worker pool exhausted", attempts=0,
                        ))
                break
            ready = _conn_wait([w.conn for w in active], timeout=0.05)
            by_conn = {w.conn: w for w in active}
            for conn in ready:
                worker = by_conn[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    retire(worker)
                    continue
                except Exception as exc:  # garbled frame from a dying peer
                    retire(
                        worker,
                        f"worker channel corrupted (pid {worker.proc.pid}): "
                        f"{exc!r}",
                    )
                    continue
                handle(worker, message)
            if init_error is not None:
                raise RuntimeError(
                    f"parallel worker initialization failed: {init_error}"
                )
            if hard_budget is not None:
                now = time.monotonic()
                for worker in list(workers):
                    held = worker.assigned
                    if held and now - held[2] > hard_budget:
                        obs.trace_event(
                            "parallel.stalled",
                            hard_budget_s=hard_budget,
                            stalled_item=held[1],
                            stalled_pid=worker.proc.pid,
                            stalled_elapsed_s=now - held[2],
                            in_flight=[
                                {"pid": w.proc.pid, "item": w.assigned[1],
                                 "elapsed_s": now - w.assigned[2]}
                                for w in workers if w.assigned is not None
                            ],
                        )
                        worker.proc.kill()
                        retire(
                            worker,
                            f"worker hung past hard budget "
                            f"({hard_budget:.1f}s) and was killed "
                            f"(pid {worker.proc.pid})",
                        )
        # All items resolved: drain teardown traffic (metrics, exits)
        # and let the workers leave.
        deadline = time.monotonic() + 10.0
        while (any(not w.finished for w in workers)
               and time.monotonic() < deadline):
            pending = [w for w in workers if not w.finished]
            ready = _conn_wait([w.conn for w in pending], timeout=0.05)
            by_conn = {w.conn: w for w in pending}
            for conn in ready:
                worker = by_conn[conn]
                try:
                    message = conn.recv()
                except Exception:
                    worker.finished = True
                    continue
                handle(worker, message)
        for worker in workers:
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():  # pragma: no cover - stuck teardown
                worker.proc.kill()
                worker.proc.join(timeout=1.0)
    finally:
        for worker in workers:
            if worker.proc.is_alive():
                worker.proc.kill()
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        if obs.enabled():
            obs.merge_trace_shards()
    return [resolved[i] for i in range(len(items))]

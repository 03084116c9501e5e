"""Crash-safe campaign driver: checkpoint, resume, quarantine and order.

The long-running tools (the fault campaign, the chaos soak) run a
deterministic enumeration of ``(item_id, payload)`` items through
:func:`~repro.parallel.run_items` and turn each item into one dict
record carrying its item's ``"id"``.  :class:`Campaign` owns every
decision between that enumeration and the tool's own summary:

* **the checkpoint document** — ``{"meta", "records", "quarantine",
  **extras}``, written atomically (tmp + ``os.replace``) with records in
  completion order, every ``checkpoint_every`` outcomes and whenever
  the caller asks;
* **resume** — a document at ``path`` whose ``meta`` matches
  (:func:`~repro.ioutil.load_checkpoint`) restores records, quarantine
  and extras; their ids are done and :meth:`Campaign.pending` filters
  them out, so nothing is re-run or duplicated;
* **quarantine** — :func:`report_quarantine` turns a failed item into
  one ``{id, error, attempts[, unguarded]}`` entry, a
  ``<kind>.quarantine`` trace event and a stdout line; :meth:`Campaign.run`
  hands the quarantined items back to the caller, which may re-run them;
* **order** — :meth:`Campaign.sort` re-sorts records and quarantine
  into enumeration order before :meth:`Campaign.finish` writes the
  complete document, so it is independent of ``--jobs`` and of
  interruption history.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..ioutil import atomic_write_json, load_checkpoint
from .executor import ItemOutcome, run_items

__all__ = ["Campaign", "report_quarantine"]


def report_quarantine(kind: str, outcome: ItemOutcome) -> Dict[str, Any]:
    """The quarantine entry for a failed ``outcome``, announced as a
    ``<kind>.quarantine`` trace event and a stdout line."""
    import repro.obs as obs

    obs.trace_event(f"{kind}.quarantine", item=outcome.id, error=outcome.error)
    print(f"quarantined {outcome.id}: {outcome.error}")
    return outcome.quarantine_record()


class Campaign:
    """One crash-safe run of enumerated items, checkpointed to ``path``.

    ``meta`` names the settings (it must carry a ``"version"``); a
    checkpoint resumes only under equal meta.  ``kind`` prefixes the
    quarantine trace event.  ``on_record(record)`` sees every record
    before it is stored and may edit it in place.  ``extras`` maps
    further top-level checkpoint keys to their fresh values; a resumed
    document's values replace them (read them back from
    :attr:`extras`).
    """

    def __init__(
        self,
        path,
        meta: Dict[str, Any],
        kind: str,
        *,
        resume: bool = True,
        checkpoint_every: Optional[int] = None,
        on_record: Optional[Callable[[dict], None]] = None,
        extras: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path = path
        self.meta = {**meta, "complete": False}
        self.kind = kind
        self.checkpoint_every = checkpoint_every
        self.on_record = on_record
        prior = (load_checkpoint(path, self.meta, meta["version"])
                 if resume else None)
        if prior and not prior["meta"].get("complete") and "records" not in prior:
            print(f"checkpoint {path} has no records list; starting over")
            prior = None
        #: The document found at ``path`` with matching meta, or None.
        self.prior = prior
        prior = prior or {}
        self.records: List[dict] = prior.get("records", [])
        self.quarantine: List[dict] = prior.get("quarantine", [])
        self.extras = {key: prior.get(key, value)
                       for key, value in (extras or {}).items()}
        self.done = ({r["id"] for r in self.records}
                     | {q["id"] for q in self.quarantine})
        self._since_checkpoint = 0
        if self.done:
            print(f"resuming from {path}: {len(self.records)} records done"
                  + (f", {len(self.quarantine)} quarantined"
                     if self.quarantine else ""))

    def pending(self, items: Iterable[Tuple[str, Any]]) -> List[Tuple[str, Any]]:
        """The items whose ids are neither recorded nor quarantined."""
        return [(rid, payload) for rid, payload in items if rid not in self.done]

    def add(self, record: dict) -> None:
        """Store one record (after ``on_record``)."""
        if self.on_record is not None:
            self.on_record(record)
        self.records.append(record)
        self.done.add(record["id"])

    def checkpoint(self) -> None:
        """Atomically write the partial document."""
        atomic_write_json(self.path, {
            "meta": self.meta, "records": self.records,
            "quarantine": self.quarantine, **self.extras,
        })
        self._since_checkpoint = 0

    def run(
        self,
        items: Sequence[Tuple[str, Any]],
        task: Callable[[Any], dict],
        jobs: int = 1,
        **run_kw,
    ) -> List[Tuple[str, Any]]:
        """:func:`run_items` over ``items``: records and quarantine
        entries are stored in completion order, checkpointing every
        ``checkpoint_every`` outcomes.  Returns the quarantined items."""
        payloads = dict(items)
        quarantined: List[Tuple[str, Any]] = []

        def on_outcome(outcome: ItemOutcome) -> None:
            if outcome.ok:
                self.add(outcome.value)
            else:
                self.quarantine.append(report_quarantine(self.kind, outcome))
                self.done.add(outcome.id)
                quarantined.append((outcome.id, payloads[outcome.id]))
            self._since_checkpoint += 1
            if (self.checkpoint_every
                    and self._since_checkpoint >= self.checkpoint_every):
                self.checkpoint()

        run_items(items, task, jobs=jobs, on_outcome=on_outcome, **run_kw)
        return quarantined

    def sort(self, ids: Iterable[str]) -> None:
        """Re-sort records and quarantine into the enumeration order
        ``ids`` (completion order and resumed prefixes both vanish)."""
        order = {rid: i for i, rid in enumerate(ids)}

        def key(entry: dict) -> int:
            return order.get(entry["id"], len(order))

        self.records.sort(key=key)
        self.quarantine.sort(key=key)

    def finish(self, **body) -> None:
        """Mark the run complete and write ``{"meta", **body}``."""
        self.meta["complete"] = True
        atomic_write_json(self.path, {"meta": self.meta, **body})

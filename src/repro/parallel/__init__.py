"""Process-parallel, crash-isolated execution of independent work items.

The evaluation workloads in this reproduction — parameter sweeps over
(network, n), fault-injection campaigns over (network, fault, vector),
batch sorting of many input sequences — are embarrassingly parallel but
individually *dangerous*: an item can hang (pathological netlist), crash
the interpreter (native-extension fault), or blow its deadline.  The
:func:`run_items` executor runs such items across a pool of worker
processes with the property that **one bad item costs exactly one
item**: it is quarantined, the pool is replenished, and every other
result is identical to what a serial run would have produced — in the
same order.

See :mod:`repro.parallel.executor` for the design notes; the public
surface is::

    from repro.parallel import ItemOutcome, run_items

    outcomes = run_items(
        [(item_id, payload), ...], task, jobs=4,
        worker_init=warm_caches, timeout_s=30.0, retries=1,
    )
    values = [o.value for o in outcomes if o.ok]
    failed = [o for o in outcomes if not o.ok]  # ok=False, error set

Long campaigns wrap it in :class:`Campaign`
(:mod:`repro.parallel.campaign`), which checkpoints records to one
JSON document, resumes from it, quarantines failures
(:func:`report_quarantine`) and writes the result in enumeration
order.
"""

from .campaign import Campaign, report_quarantine
from .executor import ItemOutcome, run_items

__all__ = ["Campaign", "ItemOutcome", "report_quarantine", "run_items"]

#!/usr/bin/env python
"""Fault-injection campaign over the paper's sorting networks.

Usage::

    python tools/fault_campaign.py --n 16 \
        --networks prefix,mux_merger,fish \
        --faults stuck,control,transient [--k 1] [--out FAULTS.json] \
        [--supervised] [--item-timeout 30] [--item-retries 1] [--jobs 4]

For every requested network the campaign enumerates (and deterministically
samples, when large) the requested fault universe from
:mod:`repro.circuits.faults`, applies each fault set by netlist rewriting,
and classifies the broken sorter on a probe batch:

* ``masked``   — every probe output correct (logical redundancy);
* ``detected`` — some wrong output is non-monotone, i.e. an output-only
  sortedness monitor catches it;
* ``silent-corruption`` — all wrong outputs still look sorted (the
  dangerous class: plausible answer, wrong content).

Damage on wrong rows is scored with binary displacement measures
(inversions = Kendall tau to sorted, ones-displacement, Hamming,
popcount delta) — see :mod:`repro.analysis.resilience`.  Every record
also carries a ``divergences`` count from re-running the *same* mutated
netlist through the element-at-a-time interpreter and comparing against
the compiled engine row-for-row: the two simulators must agree on every
broken circuit, not just healthy ones.

With ``--supervised`` each fault is additionally re-run on
**self-checking hardware** (:mod:`repro.circuits.checkers`: sortedness +
ones-count + control duplicate-and-compare for the combinational
networks; the boundary :class:`~repro.circuits.checkers.OutputChecker`
for the fish) and re-classified with the alarm wires taken into account
(``supervised_outcome``), plus a live :func:`repro.runtime.run_checked`
pass (the supervisor's recovery ladder) on the broken hardware asserting
every row still comes back correct via detection + fallback
(``supervised_ok``).  Faults on a network's *primary input wires* are
flagged ``input_fault``: they sit upstream of the checkers' fault-secure
region (the checker observes the already-faulted bus) and are excluded
from the zero-silent acceptance bar — the checked run still recovers
them through its acceptance gate, which compares against the
caller-held input.

Fault models per network:

* ``prefix`` / ``mux_merger`` (Model A, combinational): stuck-at-0/1 on
  any driven wire, output-swap on routing elements, control-line
  inversion on the tagged adaptive steering wires.  A ``transient`` on a
  combinational network evaluated in one pass is a glitch lasting the
  whole evaluation, i.e. an inversion — modelled exactly so.
* ``fish`` (Model B, time-multiplexed): structural faults target the
  *group sorter* — the single time-shared physical netlist every group
  passes through, hence the architecture's single point of failure.
  ``transient`` faults are genuine per-cycle register glitches injected
  into the :class:`~repro.circuits.sequential.PipelinedNetlist` running
  the cycle-accurate Model-B schedule: only the group in flight at the
  glitched clock is corrupted.

The results file is checkpointed with atomic writes (tmp + ``os.replace``)
every ``--checkpoint-every`` finished items, so a crashed or SIGKILLed
campaign resumes where it left off (``--no-resume`` to start over);
checkpointed ids are never re-run or duplicated
(:class:`repro.parallel.Campaign`).  Each item runs under a
per-item deadline (``--item-timeout``, via
:func:`repro.runtime.guard.run_guarded`) with ``--item-retries``
exponential-backoff retries; an item that keeps failing is *quarantined*
— recorded (id, error, attempts) in the checkpoint's ``quarantine``
list and never re-run — so one pathological (network, n, fault) cannot
hang or crash a whole campaign.

``--jobs N`` shards the items over N crash-isolated worker processes
(:mod:`repro.parallel`): the fault universe is enumerated (seeded, so
deterministically) in the parent, items fan out to whichever worker is
free, records checkpoint in completion order, and the final document is
re-sorted into enumeration order — so a ``--jobs 4`` campaign's records
are byte-identical to a serial run's.  Every worker rebuilds its
per-network probe batches and checker hardware from the same seeds, so
no state needs to ship besides the fault objects themselves; a worker
that crashes or hangs mid-item loses exactly that item (quarantined,
pool replenished, checkpoint preserved).

``--trace FILE`` enables :mod:`repro.obs` and appends a JSON-lines trace
(one ``campaign.item`` span per fault set, quarantine events, engine
spans and switch-activity summaries underneath; parallel workers write
per-pid shards merged back on exit); ``--metrics FILE`` exports the
metrics registry on exit (Prometheus text when the name ends in
``.prom``, JSON otherwise).  Read traces with ``tools/trace_report.py``;
see docs/OBSERVABILITY.md.
"""

import argparse
import os
import pathlib
import sys

# Allow `python tools/fault_campaign.py` without an exported PYTHONPATH.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if os.path.isdir(_SRC) and os.path.abspath(_SRC) not in map(os.path.abspath, sys.path):
    sys.path.insert(0, os.path.abspath(_SRC))

import numpy as np

FORMAT_VERSION = 2
NETWORKS = ("prefix", "mux_merger", "fish")
FAULT_KINDS = ("stuck", "swap", "control", "transient")


def _seed_for(seed: int, *parts) -> int:
    """Stable per-(network, kind) RNG seed derived from the campaign seed."""
    h = seed & 0xFFFFFFFFFFFFFFFF
    for p in parts:
        for ch in str(p):
            h = ((h * 1099511628211) ^ ord(ch)) & 0xFFFFFFFFFFFFFFFF
    return h & 0x7FFFFFFF


def _probe_batch(n: int, probes: int, seed: int) -> np.ndarray:
    """Exhaustive 0-1 probes when feasible, else a seeded random batch."""
    from repro.circuits import exhaustive_inputs

    if n <= 16:
        return exhaustive_inputs(n)
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, (probes, n)).astype(np.uint8)


def _fault_universe(net, kinds, cycles, max_faults: int, k: int, seed: int, tag: str):
    """Sampled fault universe for one network, grouped per kind.

    Returns ``[(kind_label, [fault_set, ...]), ...]`` where each fault
    set is a tuple of faults (singletons unless ``k > 1``).  Sampling is
    seeded, so every process — the enumerating parent and each rebuilt
    worker context — derives the identical universe.
    """
    from repro.circuits import enumerate_faults, k_fault_sets, sample_faults

    out = []
    for kind in kinds:
        singles = enumerate_faults(
            net, kinds=(kind,), cycles=cycles if kind == "transient" else None
        )
        if not singles:
            continue
        if k <= 1:
            sets = [(f,) for f in sample_faults(singles, max_faults, _seed_for(seed, tag, kind))]
            label = kind
        else:
            sets = k_fault_sets(singles, k, limit=max_faults, seed=_seed_for(seed, tag, kind))
            label = f"{kind}-k{k}"
        out.append((label, sets))
    return out


def _builders():
    from repro.core.mux_merger import build_mux_merger_sorter
    from repro.core.prefix_sorter import build_prefix_sorter

    return {"prefix": build_prefix_sorter, "mux_merger": build_mux_merger_sorter}


def _classify_combinational(mutant, probes, expected, diff_rows: int):
    """Engine classification + interpreter differential for one mutant."""
    from repro.analysis.resilience import classify, damage_metrics
    from repro.circuits import simulate
    from repro.circuits.simulate import simulate_interpreted

    out = simulate(mutant, probes)
    sub = probes[:diff_rows]
    divergences = int(
        (simulate_interpreted(mutant, sub) != out[: sub.shape[0]]).any(axis=1).sum()
    )
    return classify(out, expected), damage_metrics(out, expected), divergences


def _supervised_rows(probes: np.ndarray, count: int) -> np.ndarray:
    """A small deterministic spread of probe rows for the live checked
    run (evenly strided through the batch)."""
    stride = max(1, probes.shape[0] // max(count, 1))
    return probes[::stride][:count]


def _supervised_extras_combinational(checked, faults, probes, expected, args):
    """Re-run one fault on self-checking hardware + a live checked run.

    The fault set was enumerated on the *plain* netlist; `with_checkers`
    keeps all original wire ids and element indices valid, so the exact
    same fault objects apply to the checked netlist.
    """
    import dataclasses

    from repro.analysis.resilience import alarm_stats, classify_with_alarms
    from repro.circuits import apply_faults, simulate
    from repro.runtime import RecoveryPolicy, run_checked

    cmutant = apply_faults(checked.netlist, faults)
    out = simulate(cmutant, probes)
    data, alarms = checked.split(out)
    inputs = set(checked.netlist.inputs)
    input_fault = any(getattr(f, "wire", -1) in inputs for f in faults)
    rows = _supervised_rows(probes, args.supervised_probes)
    run = run_checked(dataclasses.replace(checked, netlist=cmutant), rows,
                      RecoveryPolicy(max_retries=0))
    supervised_ok = np.array_equal(run.data, np.sort(rows, axis=1))
    return {
        "supervised_outcome": classify_with_alarms(data, alarms, expected),
        "alarm": alarm_stats(data, alarms, expected),
        "input_fault": bool(input_fault),
        "supervised_ok": bool(supervised_ok),
    }


def _supervised_extras_fish(checker, probes, expected, outs):
    """Boundary-checker classification + supervised-recovery emulation
    for one fish fault (outputs already computed cycle-accurately).

    A supervised fish call falls back to behavioral sort whenever the
    acceptance gate (boundary alarms quiet, output monotone with the
    caller-held ones count) rejects its row; the call is therefore
    correct unless the gate accepts a wrong row — exactly the condition
    tested here.
    """
    from repro.analysis.resilience import alarm_stats, classify_with_alarms
    from repro.circuits.checkers import accept_rows

    alarms = checker.alarms(probes, outs)
    wrong = (outs != expected).any(axis=1)
    accepted = accept_rows(probes, outs, alarms.any(axis=1))
    supervised_ok = not (accepted & wrong).any()
    return {
        "supervised_outcome": classify_with_alarms(outs, alarms, expected),
        "alarm": alarm_stats(outs, alarms, expected),
        "input_fault": False,  # fish faults target the internal group sorter
        "supervised_ok": supervised_ok,
    }


# ---------------------------------------------------------------------------
# Worker-side execution context
#
# Each process (the in-process serial path, or every pool worker) builds
# the per-network machinery — netlists, probe batches, checker hardware,
# activation taps — lazily from the campaign args alone.  Everything is
# seeded, so every process derives identical state and only the fault
# objects themselves travel with each item.
# ---------------------------------------------------------------------------

_WCTX = {"args": None, "comb": {}, "fish": None}


def _campaign_worker_init(args) -> None:
    _WCTX["args"] = args
    _WCTX["comb"] = {}
    _WCTX["fish"] = None


def _comb_context(name: str) -> dict:
    ctx = _WCTX["comb"].get(name)
    if ctx is not None:
        return ctx
    from repro.circuits import StuckAt, get_plan
    from repro.circuits.faults import driven_wires

    args = _WCTX["args"]
    net = _builders()[name](args.n)
    probes = _probe_batch(args.n, args.probes, _seed_for(args.seed, name, "probes"))
    expected = np.sort(probes, axis=1)
    get_plan(net)  # compile the healthy plan once (mutants compile per-fault)
    checked = None
    if args.supervised:
        from repro.circuits.checkers import with_checkers

        checked = with_checkers(net, sortedness=True, count=True, control=True)
    groups = _fault_universe(
        net, args.faults, cycles=[0], max_faults=args.max_faults,
        k=args.k, seed=args.seed, tag=name,
    )
    # Fault-activation profile: tap every sampled stuck-at wire on the
    # *healthy* netlist in one batched pass; activation = fraction of
    # probes where the wire's real value differs from the stuck value.
    stuck_wires = sorted(
        {f.wire for _, sets in groups for fs in sets for f in fs if isinstance(f, StuckAt)}
        & set(driven_wires(net))
    )
    activation = {}
    if stuck_wires:
        _, tapped = get_plan(net).execute(probes, taps=stuck_wires)
        for i, w in enumerate(stuck_wires):
            activation[w] = float(tapped[:, i].mean())
    ctx = {
        "net": net,
        "probes": probes,
        "expected": expected,
        "checked": checked,
        "activation": activation,
    }
    _WCTX["comb"][name] = ctx
    return ctx


def _fish_context() -> dict:
    ctx = _WCTX["fish"]
    if ctx is not None:
        return ctx
    from repro.circuits import exhaustive_inputs
    from repro.core.fish_sorter import FishSorter

    args = _WCTX["args"]
    fs = FishSorter(args.n)
    rng = np.random.default_rng(_seed_for(args.seed, "fish", "probes"))
    probes = rng.integers(0, 2, (args.fish_probes, args.n)).astype(np.uint8)
    expected = np.sort(probes, axis=1)
    checker = None
    if args.supervised:
        from repro.circuits.checkers import build_output_checker

        checker = build_output_checker(args.n)
    # Interpreter-vs-engine differential probes for the mutated group
    # netlist: exhaustive over the group width (it is small by design).
    gprobes = exhaustive_inputs(min(fs.group, 12))
    ctx = {
        "fs": fs,
        "probes": probes,
        "expected": expected,
        "checker": checker,
        "gprobes": gprobes,
    }
    _WCTX["fish"] = ctx
    return ctx


def _comb_record(name, kind, faults, rid) -> dict:
    from repro.circuits import StuckAt, apply_faults

    args = _WCTX["args"]
    ctx = _comb_context(name)
    mutant = apply_faults(ctx["net"], faults)
    outcome, damage, div = _classify_combinational(
        mutant, ctx["probes"], ctx["expected"], args.diff_rows
    )
    act = None
    if len(faults) == 1 and isinstance(faults[0], StuckAt):
        w, v = faults[0].wire, faults[0].value
        if w in ctx["activation"]:
            act = ctx["activation"][w] if v == 0 else 1.0 - ctx["activation"][w]
    record = {
        "id": rid,
        "network": name,
        "kind": kind,
        "faults": [f.id for f in faults],
        "outcome": outcome,
        "damage": damage,
        "divergences": div,
        "activation": act,
    }
    if ctx["checked"] is not None:
        record.update(_supervised_extras_combinational(
            ctx["checked"], faults, ctx["probes"], ctx["expected"], args
        ))
    return record


def _fish_record(kind, faults, rid) -> dict:
    """Campaign record for Network 3: structural faults on the time-shared
    group sorter; transients on the cycle-accurate Model-B pipeline."""
    from repro.analysis.resilience import classify, damage_metrics
    from repro.circuits import TransientFlip, apply_faults, simulate
    from repro.circuits.simulate import simulate_interpreted

    ctx = _fish_context()
    fs, probes, expected = ctx["fs"], ctx["probes"], ctx["expected"]
    target = fs.group_sorter
    transients = [f for f in faults if isinstance(f, TransientFlip)]
    structural = [f for f in faults if not isinstance(f, TransientFlip)]
    mutant = apply_faults(target, structural) if structural else target
    runner = fs.clone_with_group_sorter(mutant) if structural else fs
    out = np.stack([
        runner.sort_cycle_accurate(row, transients=transients)[0]
        for row in probes
    ])
    # Same-fault differential: the mutated group netlist through
    # both simulators (transients project to inversions there).
    diff_net = apply_faults(mutant, transients) if transients else mutant
    divergences = int(
        (simulate(diff_net, ctx["gprobes"]) != simulate_interpreted(diff_net, ctx["gprobes"]))
        .any(axis=1).sum()
    )
    record = {
        "id": rid,
        "network": "fish",
        "kind": kind,
        "faults": [f.id for f in faults],
        "outcome": classify(out, expected),
        "damage": damage_metrics(out, expected),
        "divergences": divergences,
        "activation": None,
    }
    if ctx["checker"] is not None:
        record.update(_supervised_extras_fish(
            ctx["checker"], probes, expected, out
        ))
    return record


def _campaign_task(payload) -> dict:
    name, kind, faults, rid = payload
    if name == "fish":
        return _fish_record(kind, faults, rid)
    return _comb_record(name, kind, faults, rid)


# ---------------------------------------------------------------------------
# Parent-side enumeration
# ---------------------------------------------------------------------------


def enumerate_campaign(args, networks) -> list:
    """The full deterministic item list: ``[(rid, payload), ...]`` in the
    canonical (network, kind, sample) order a serial campaign runs in.
    The same enumeration keys resume filtering and final record order."""
    from repro.circuits import fault_set_id

    items = []
    builders = _builders()
    for name in networks:
        if name == "fish":
            from repro.circuits.sequential import levelize
            from repro.core.fish_sorter import FishSorter

            fs = FishSorter(args.n)
            target = fs.group_sorter
            latency = levelize(target).n_levels
            cycles = list(range(fs.k + latency))
            tag = "fish"
        else:
            target = builders[name](args.n)
            cycles = [0]
            tag = name
        groups = _fault_universe(
            target, args.faults, cycles=cycles, max_faults=args.max_faults,
            k=args.k, seed=args.seed, tag=tag,
        )
        for kind, sets in groups:
            for faults in sets:
                rid = f"{name}/{fault_set_id(faults)}"
                items.append((rid, (name, kind, faults, rid)))
    return items


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--networks", default="prefix,mux_merger,fish")
    parser.add_argument("--faults", default="stuck,swap,control,transient")
    parser.add_argument("--k", type=int, default=1,
                        help="fault multiplicity (k-fault sets instead of singletons)")
    parser.add_argument("--max-faults", type=int, default=80,
                        help="sampling cap per (network, fault kind)")
    parser.add_argument("--probes", type=int, default=512,
                        help="random probe rows when exhaustive (n<=16) is infeasible")
    parser.add_argument("--fish-probes", type=int, default=24,
                        help="probe vectors per fault for the cycle-accurate fish path")
    parser.add_argument("--diff-rows", type=int, default=256,
                        help="probe rows re-run through the interpreter per fault")
    parser.add_argument("--supervised", action="store_true",
                        help="re-run each fault on self-checking hardware and "
                             "through the recovery supervisor")
    parser.add_argument("--supervised-probes", type=int, default=8,
                        help="probe rows per fault for the live supervisor pass")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial in-process); final "
                             "records are identical to a serial run")
    parser.add_argument("--item-timeout", type=float, default=0.0,
                        help="per-item wall-clock budget in seconds (0 = off)")
    parser.add_argument("--item-retries", type=int, default=1,
                        help="retries (with exponential backoff) before quarantining an item")
    parser.add_argument("--item-backoff", type=float, default=0.05,
                        help="initial retry backoff in seconds")
    parser.add_argument("--trace", type=pathlib.Path, default=None,
                        help="enable repro.obs and append a JSON-lines trace here")
    parser.add_argument("--metrics", type=pathlib.Path, default=None,
                        help="export the metrics registry on exit "
                             "(.prom => Prometheus text, else JSON)")
    parser.add_argument("--seed", type=int, default=0xFA17)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("FAULTS.json"))
    parser.add_argument("--checkpoint-every", type=int, default=20)
    parser.add_argument("--no-resume", action="store_true",
                        help="ignore an existing checkpoint and start over")
    args = parser.parse_args(argv)

    networks = [s for s in args.networks.split(",") if s]
    faults = [s for s in args.faults.split(",") if s]
    for s in networks:
        if s not in NETWORKS:
            print(f"unknown network {s!r} (choose from {', '.join(NETWORKS)})")
            return 2
    for s in faults:
        if s not in FAULT_KINDS:
            print(f"unknown fault kind {s!r} (choose from {', '.join(FAULT_KINDS)})")
            return 2
    args.faults = faults

    import repro.obs as obs
    from repro.analysis.resilience import SILENT, format_resilience_table, summarize
    from repro.parallel import Campaign

    if args.trace or args.metrics:
        obs.enable(trace_path=args.trace)

    meta = {
        "version": FORMAT_VERSION,
        "n": args.n,
        "networks": networks,
        "faults": faults,
        "k": args.k,
        "seed": args.seed,
        "max_faults": args.max_faults,
        "supervised": bool(args.supervised),
    }

    def count_record(record):
        if obs.enabled():
            obs.counter("repro_campaign_records_total",
                        "Fault-campaign records by (network, outcome).",
                        network=record["network"],
                        outcome=record["outcome"]).inc()

    camp = Campaign(args.out, meta, "campaign", resume=not args.no_resume,
                    checkpoint_every=args.checkpoint_every,
                    on_record=count_record)
    records, quarantine = camp.records, camp.quarantine
    resumed = len(records)
    all_items = enumerate_campaign(args, networks)
    camp.run(
        camp.pending(all_items), _campaign_task, jobs=args.jobs,
        worker_init=_campaign_worker_init, init_arg=args,
        timeout_s=args.item_timeout or None,
        retries=max(args.item_retries, 0),
        backoff_s=args.item_backoff,
        span="campaign.item",
    )
    for name in networks:
        new = sum(1 for r in records[resumed:] if r["network"] == name)
        print(f"{name}: {new} new records ({len(records)} total)")

    camp.sort(rid for rid, _payload in all_items)
    summary = summarize(records)
    camp.finish(records=records, quarantine=quarantine, summary=summary)
    obs.export_metrics(args.metrics)
    print(f"wrote {args.out}: {len(records)} records"
          + (f", {len(quarantine)} quarantined" if quarantine else ""))
    print()
    print(format_resilience_table(summary, title=f"Fault resilience (n={args.n})"))
    total_div = sum(r["divergences"] for r in records)
    detected = sum(1 for r in records if r["outcome"] == "detected")
    print(f"\ndetected: {detected}/{len(records)}; interpreter/engine divergences: {total_div}")
    failed = bool(total_div)
    if args.supervised:
        silent_checked = [
            r for r in records
            if r.get("supervised_outcome") == SILENT and not r.get("input_fault")
        ]
        not_recovered = [r for r in records if r.get("supervised_ok") is False]
        sup_detected = sum(
            1 for r in records if r.get("supervised_outcome") == "detected"
        )
        print(f"supervised: detected {sup_detected}/{len(records)}; "
              f"silent-past-checkers (non-input): {len(silent_checked)}; "
              f"unrecovered supervised sorts: {len(not_recovered)}")
        for r in silent_checked[:10]:
            print(f"  SILENT past checkers: {r['id']}")
        for r in not_recovered[:10]:
            print(f"  NOT RECOVERED: {r['id']}")
        failed = failed or bool(silent_checked) or bool(not_recovered)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

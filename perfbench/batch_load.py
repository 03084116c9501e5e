"""The batch-lib workload: offline library calls, no event loop, serial.

Phases:

* ``lo`` — ``Supervisor.run_many`` one n=64 row per call on healthy
  self-checking hardware (the JIT tier answers);
* ``hi`` — the same on n=16 hardware carrying one fixed stuck-at fault
  that fires a checker alarm on every row, so every call walks the whole
  jit -> engine -> interpreter -> behavioral ladder;
* ``closed`` — back-to-back library jobs, each ``sort_bits_many`` on 64
  mux_merger n=256 rows, ``sort_bits_many`` on 64 prefix n=64 rows and
  one ``RadixPermuter(64, backend="fish").permute`` (Model B, Fig. 10).

Every output is compared with ``np.sort`` of its input, and every
permuter output with ``check_permutation``.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import time

import numpy as np

import cpus
from tally import Tally

perf = time.perf_counter

PHASE_SHARE = {"lo": 0.15, "hi": 0.6, "closed": 0.25}

SUP_N = 64  #: healthy supervised row width
FAULT_N = 16  #: faulty supervised row width
SORT_JOB = (("mux_merger", 256), ("prefix", 64))  #: sort_bits_many calls per job
JOB_ROWS = 64  #: rows per sort_bits_many call
PERM_N = 64  #: radix permuter size

#: The injected fault is chosen with this fixed seed, not the run seed,
#: so every run (and every commit) recovers from the same fault.
FAULT_SEED = 0


def _rows(n, count, seed, stream):
    from repro.workloads import make_workload, stable_hash

    wl = make_workload("uniform", n=n, seed=stable_hash(seed, stream))
    return [r.bits for r in wl.stream(count)]


def choose_fault(checked, plain):
    """First stuck-at fault, in a fixed seeded order, that raises an alarm
    on every row of a fixed probe batch; returns (fault, faulty hardware)."""
    from repro.circuits.faults import apply_fault, enumerate_faults
    from repro.circuits.simulate import simulate_engine

    universe = enumerate_faults(plain, kinds=("stuck",))
    rng = np.random.default_rng(FAULT_SEED)
    probe = (rng.random((256, len(plain.inputs))) < 0.5).astype(np.uint8)
    for i in rng.permutation(len(universe)):
        fault = universe[int(i)]
        bad = dataclasses.replace(checked, netlist=apply_fault(checked.netlist, fault))
        if bad.alarm_rows(simulate_engine(bad.netlist, probe)).all():
            return fault, bad
    raise RuntimeError("no always-detected stuck-at fault found")


def run(seed, seconds, rounds, ledger, fresh_caches, setups):
    """``setups`` set-ups, then ``rounds`` rounds of lo, hi and closed
    segments; returns what ``run.py`` reports."""
    from repro.circuits import engine
    from repro.circuits.checkers import with_checkers
    from repro.core.api import make_sorter, sort_bits_many
    from repro.errors import ReproError
    from repro.networks.permutation import RadixPermuter, check_permutation
    from repro.runtime import Supervisor

    sup_rows = _rows(SUP_N, 4096, seed, "lo")
    fault_rows = _rows(FAULT_N, 2048, seed, "hi")
    job_rows = {key: _rows(key[1], 16 * JOB_ROWS, seed, key[0]) for key in SORT_JOB}
    perm_rng = np.random.default_rng(np.random.SeedSequence([seed, 64]))
    perms = [perm_rng.permutation(PERM_N) for _ in range(64)]
    payloads = np.arange(PERM_N, dtype=np.int64) * 7 + 3

    def expected(rows):
        return [np.sort(r).tobytes() for r in rows]

    sup_expect, fault_expect = expected(sup_rows), expected(fault_rows)
    job_expect = {k: expected(v) for k, v in job_rows.items()}

    def jit_warm(call):
        before = engine.cache_info()["jit"]["memory"]
        for _ in range(16):
            call()
            if engine.cache_info()["jit"]["memory"] > before:
                return
        raise RuntimeError("library call never reached the JIT tier")

    out = {"setup_s": []}
    for k in range(setups):
        cpus.cycle(k)
        fresh_caches()
        gc.collect()
        if ledger is not None and k == setups - 1:
            ledger.phase = "setup"
        t0 = perf()
        for network, n in SORT_JOB:
            jit_warm(lambda: sort_bits_many(job_rows[(network, n)][:1], network=network))
        healthy = Supervisor("mux_merger")
        healthy.run_many(sup_rows[:1])
        plain = make_sorter(FAULT_N, "mux_merger")
        fault, bad = choose_fault(
            with_checkers(plain, sortedness=True, count=True,
                          control=healthy.policy.control_checker),
            plain)
        faulty = Supervisor("mux_merger", hardware=lambda n, hw=bad: hw)
        faulty.run_many(fault_rows[:1])
        permuter = RadixPermuter(PERM_N, backend="fish")
        permuter.permute(perms[0], payloads)
        out["setup_s"].append(perf() - t0)
        if ledger is not None:
            ledger.phase = None
    cpus.release()
    out["fault"] = fault.id
    out["fault_wire"] = int(fault.wire)

    phases = {p: {"tally": Tally(), "latencies": [], "rates": [], "wall_s": 0.0,
                  "calls": 0}
              for p in PHASE_SHARE}
    closed = phases["closed"]
    closed.update(sort_s={key: 0.0 for key in SORT_JOB}, perm_s=0.0)
    out["phases"] = phases

    def supervised(sup, rows, expect, rec, stop):
        lat = []
        while perf() < stop:
            j = rec["calls"] % len(rows)
            rec["calls"] += 1
            t0 = perf()
            try:
                outs, _ = sup.run_many([rows[j]])
            except ReproError:
                rec["tally"].add("error")
                lat.append(math.inf)
                continue
            lat.append(perf() - t0)
            rec["tally"].add("ok" if outs[0].tobytes() == expect[j] else "wrong")
        rec["latencies"].append(lat)

    def job(k):
        """One library job; True when every output is correct."""
        good = True
        for key in SORT_JOB:
            rows = job_rows[key]
            lo = (k * JOB_ROWS) % len(rows)
            ts = perf()
            outs = sort_bits_many(rows[lo:lo + JOB_ROWS], network=key[0])
            closed["sort_s"][key] += perf() - ts
            good &= all(o.tobytes() == e for o, e in
                        zip(outs, job_expect[key][lo:lo + JOB_ROWS]))
        perm = perms[k % len(perms)]
        ts = perf()
        routed, _ = permuter.permute(perm, payloads)
        closed["perm_s"] += perf() - ts
        return good and check_permutation(perm, payloads, routed)

    def jobs(stop):
        tally, t0, ok = closed["tally"], perf(), 0
        while perf() < stop:
            closed["calls"] += 1
            try:
                ok += tally.add("ok" if job(closed["calls"]) else "wrong")
            except ReproError:
                tally.add("error")
        closed["rates"].append(ok / (perf() - t0))

    for r in range(rounds):
        cpus.cycle(r)  # the workload is serial: pinning it costs it nothing
        for phase, share in PHASE_SHARE.items():
            gc.collect()
            gc.freeze()  # keep the pre-generated inputs out of collector passes
            if ledger is not None:
                ledger.phase = phase
            t0 = perf()
            stop = t0 + seconds * share / rounds
            if phase == "lo":
                supervised(healthy, sup_rows, sup_expect, phases[phase], stop)
            elif phase == "hi":
                supervised(faulty, fault_rows, fault_expect, phases[phase], stop)
            else:
                jobs(stop)
            phases[phase]["wall_s"] += perf() - t0
            if ledger is not None:
                ledger.phase = None
    cpus.release()
    gc.unfreeze()
    return out


def dispatch_ms_per_item(seed, items=128):
    """Per-item cost of ``sort_bits_many(jobs=2)`` beyond an ideal split of
    the serial time over two workers, on the same batch."""
    from repro.core.api import sort_bits_many

    rows = _rows(SUP_N, items, seed, "parallel")
    sort_bits_many(rows)
    t0 = perf()
    sort_bits_many(rows, jobs=1)
    serial = perf() - t0
    t0 = perf()
    sort_bits_many(rows, jobs=2)
    parallel = perf() - t0
    return 1e3 * (parallel - serial / 2) / items

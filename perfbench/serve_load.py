"""The serve workloads: open-loop lo/hi phases and a closed-loop phase.

Everything goes through ``SortingService.submit`` on one in-process
service (the default ``ServeConfig``): one event loop, its one fabric
thread, and client coroutines — no sockets, no extra threads.

* Open loop: a single scheduler task walks seeded Poisson arrivals from
  ``repro.workloads`` and, when a request falls due, starts one task that
  submits it.  Latency runs from the due time, so a stalled loop charges
  the wait to every request it delayed; how late the scheduler itself
  ran is kept as generator lateness.
* Closed loop: a fixed number of client coroutines, each submitting its
  next request as soon as the previous one is answered.

Every accepted answer is compared with ground truth precomputed from the
request: the sorted row for a sort, the reversed sorted row plus the
ones count for a concentrate, and for a route the inverse permutation
(the only map with ``perm[result] == arange(n)``).
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import math
import selectors
import time

import numpy as np

import cpus
from ledger import REQUEST
from tally import Tally

perf = time.perf_counter

#: Workload settings.  Rates sit below capacity on a 2-CPU machine so
#: no request is shed.  A closed-loop client holds one request's lanes
#: (1, or lg n for a route): 512 clients hold 512 lanes on serve-sort and
#: about 1280 on serve-mixed, well inside the default 2048 lane credits.
WORKLOADS = {
    "serve-sort": {
        "model": "poisson", "n": 64, "sizes": None,
        "mix": {"sort": 1.0},
        "lo_rate": 2000.0, "hi_rate": 8000.0, "clients": 512,
    },
    "serve-mixed": {
        "model": "mixed", "n": 64, "sizes": [16, 64, 256],
        "mix": {"sort": 0.5, "concentrate": 0.2, "route": 0.3},
        "lo_rate": 1000.0, "hi_rate": 3000.0, "clients": 512,
    },
}

#: Share of ``--seconds`` given to each timed phase, in the order a round
#: runs them; each round gives each phase one segment.
PHASE_SHARE = {"lo": 0.35, "hi": 0.35, "closed": 0.3}

#: Distinct requests the closed loop cycles through.
CLOSED_POOL = 16384

#: A traced run joins one request in this many to the batches that
#: carried it (hand-off and assembly times); the join costs the loop
#: about as much as every span together.
REQUEST_SAMPLE = 8


class Case:
    """One request with its precomputed expected answer."""

    __slots__ = ("request", "due", "expect", "granted")

    def __init__(self, request, due, expect, granted):
        self.request = request
        self.due = due
        self.expect = expect
        self.granted = granted


def make_cases(cfg, rate, count, seed, stream):
    """``count`` seeded requests from the workload model, with arrival
    offsets (seconds from phase start) at the declared ``rate``."""
    from repro.serve import concentrate_request, route_request, sort_request
    from repro.workloads import make_workload, stable_hash

    wl = make_workload(cfg["model"], n=cfg["n"], rate=rate,
                       seed=stable_hash(seed, stream), sizes=cfg["sizes"])
    kind_rng = np.random.default_rng(
        np.random.SeedSequence([seed, stable_hash(stream, "kinds")]))
    kinds, probs = zip(*cfg["mix"].items())
    picks = kind_rng.choice(len(kinds), size=count, p=list(probs))
    cases = []
    for req, pick in zip(wl.stream(count), picks):
        kind = kinds[int(pick)]
        if kind == "route":
            perm = kind_rng.permutation(req.n)
            cases.append(Case(route_request(perm), req.t,
                              np.argsort(perm).astype(np.int64).tobytes(),
                              None))
        elif kind == "concentrate":
            expect = np.sort(req.bits)[::-1].tobytes()
            cases.append(Case(concentrate_request(req.bits), req.t, expect,
                              int(req.bits.sum())))
        else:
            cases.append(Case(sort_request(req.bits), req.t,
                              np.sort(req.bits).tobytes(), None))
    return cases


def outcome(case, resp):
    """How one response ends: ok, shed, error, or wrong."""
    if resp.status != "ok":
        return "shed" if resp.status == "shed" else "error"
    if resp.result.tobytes() != case.expect or resp.granted != case.granted:
        return "wrong"
    return "ok"


class IdleSelector(selectors.DefaultSelector):
    """The loop's selector, timing how long the loop sat idle in it."""

    idle_s = 0.0

    def select(self, timeout=None):
        t0 = perf()
        try:
            return super().select(timeout)
        finally:
            self.idle_s += perf() - t0


async def _submit(svc, case, sampled, requests):
    """Submit one case; a sampled one is joined to its batches."""
    if not sampled:
        return await svc.submit(case.request)
    rec = {"batches": [], "assemble_s": 0.0}
    token = REQUEST.set(rec)
    try:
        resp = await svc.submit(case.request)
    finally:
        REQUEST.reset(token)
    rec["t_resp"] = perf()
    requests.append(rec)
    return resp


async def open_loop(svc, cases, seconds, tally, latencies, lateness,
                    queued, tracing, requests):
    """Issue ``cases`` by due time for ``seconds``; ``latencies`` gets each
    request's latency from its due time, in due order."""
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.005
    by_due = {}
    # Tasks are held only while pending and the end is one countdown:
    # keeping every finished task, or gather() over all of them, makes
    # collector passes and the final gather stall the loop.
    pending, errors = set(), []
    state = {"left": 0, "issuing": True}
    all_done = loop.create_future()

    async def one(i, case, due, sampled):
        try:
            resp = await _submit(svc, case, sampled, requests)
            if tally.add(outcome(case, resp)):
                by_due[i] = loop.time() - due
                queued.append(resp.queued_s)
            else:
                by_due[i] = math.inf
        except Exception as exc:  # re-raised once the phase is over
            errors.append(exc)
        finally:
            state["left"] -= 1
            if not state["left"] and not state["issuing"]:
                all_done.set_result(None)

    for i, case in enumerate(cases):
        if case.due >= seconds:
            break
        due = start + case.due
        now = loop.time()
        if due > now:
            await asyncio.sleep(due - now)
            now = loop.time()
        lateness.append(now - due)
        state["left"] += 1
        task = loop.create_task(one(i, case, due, tracing and i % REQUEST_SAMPLE == 0))
        pending.add(task)
        task.add_done_callback(pending.discard)
    state["issuing"] = False
    if state["left"]:
        await all_done
    if errors:
        raise errors[0]
    latencies.extend(by_due[i] for i in range(len(by_due)))


async def closed_loop(svc, cases, clients, seconds, tally, done, queued,
                      tracing, requests):
    """``clients`` coroutines submitting back to back for ``seconds``;
    ``done`` gets each correct answer's time from the segment start."""
    loop = asyncio.get_running_loop()
    counter = itertools.count()
    t0 = loop.time()
    stop = t0 + seconds

    async def client():
        while loop.time() < stop:
            i = next(counter)
            case = cases[i % len(cases)]
            sampled = tracing and i % REQUEST_SAMPLE == 0
            resp = await _submit(svc, case, sampled, requests)
            if tally.add(outcome(case, resp)):
                done.append(loop.time() - t0)
                queued.append(resp.queued_s)

    await asyncio.gather(*(client() for _ in range(clients)))


async def warm_to_jit(svc, widths):
    """Drive each fabric width until its checked netlist runs on the JIT
    tier (auto-routing compiles only after a few calls); returns the
    number of warm-up requests sent."""
    from repro.circuits import engine
    from repro.serve import sort_request

    sent = 0
    for width in widths:
        before = engine.cache_info()["jit"]["memory"]
        for _ in range(16):
            resp = await svc.submit(sort_request(np.zeros(width, np.uint8)))
            sent += 1
            if not resp.ok:
                raise RuntimeError(f"warm-up request failed: {resp.error}")
            if engine.cache_info()["jit"]["memory"] > before:
                break
        else:
            raise RuntimeError(f"width {width} never reached the JIT tier")
    return sent


def run(name, seed, seconds, rounds, tracing, ledger, fresh_caches, setups):
    """Run one serve workload: ``setups`` set-ups, then ``rounds`` rounds
    of lo, hi and closed segments; returns what ``run.py`` reports."""
    from repro.serve import ServeConfig, SortingService

    cfg = WORKLOADS[name]
    seg = {p: seconds * share / rounds for p, share in PHASE_SHARE.items()}
    rate = {"lo": cfg["lo_rate"], "hi": cfg["hi_rate"]}
    open_cases = {
        (p, r): make_cases(cfg, rate[p], int(rate[p] * seg[p] * 1.3) + 64,
                           seed, f"{p}{r}")
        for p in rate for r in range(rounds)
    }
    closed_cases = make_cases(cfg, 1000.0, CLOSED_POOL, seed, "closed")
    widths = sorted({c.request.n if c.request.kind == "route"
                     else max(2, 1 << (c.request.n - 1).bit_length())
                     for cases in [closed_cases, *open_cases.values()]
                     for c in cases})

    selector = IdleSelector() if tracing else None
    loop = asyncio.SelectorEventLoop(selector) if tracing else asyncio.new_event_loop()
    phases = {p: {"tally": Tally(), "latencies": [], "rates": [], "lateness": [],
                  "queued": [], "requests": [], "wall_s": 0.0, "idle_s": 0.0}
              for p in PHASE_SHARE}
    out = {"phases": phases, "setup_s": [], "widths": widths, "cfg": cfg}

    async def segment(svc, phase, r):
        rec = phases[phase]
        idle0 = selector.idle_s if selector else 0.0
        t0 = perf()
        if phase == "closed":
            done = []
            await closed_loop(svc, closed_cases, cfg["clients"], seg[phase],
                              rec["tally"], done, rec["queued"], tracing,
                              rec["requests"])
            rec["rates"].append(sum(t <= seg[phase] for t in done) / seg[phase])
        else:
            lat = []
            await open_loop(svc, open_cases[(phase, r)], seg[phase],
                            rec["tally"], lat, rec["lateness"], rec["queued"],
                            tracing, rec["requests"])
            rec["latencies"].append(lat)
        rec["wall_s"] += perf() - t0
        rec["idle_s"] += (selector.idle_s - idle0) if selector else 0.0

    async def main():
        svc = None
        for k in range(setups):
            if svc is not None:
                await svc.stop()
            cpus.cycle(k)
            fresh_caches()
            gc.collect()
            if ledger is not None and k == setups - 1:
                ledger.phase = "setup"
            t0 = perf()
            svc = SortingService(ServeConfig())
            await svc.start()
            out["warmup_requests"] = await warm_to_jit(svc, widths)
            out["setup_s"].append(perf() - t0)
            if ledger is not None:
                ledger.phase = None
        # The timed phases leave both threads free to use every CPU: pinned
        # to one CPU a round, as batch-lib is, the latencies spread more.
        cpus.release()
        try:
            for r in range(rounds):
                for phase in PHASE_SHARE:
                    # Park the pre-generated inputs and earlier results
                    # outside the collector, so its full passes do not
                    # pause the loop for the benchmark's own data.
                    gc.collect()
                    gc.freeze()
                    if ledger is not None:
                        ledger.phase = phase
                    try:
                        await segment(svc, phase, r)
                    finally:
                        if ledger is not None:
                            ledger.phase = None
        finally:
            gc.unfreeze()
            await svc.stop()

    try:
        loop.run_until_complete(main())
    finally:
        loop.close()
    return out

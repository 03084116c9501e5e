"""Tests for the process-parallel execution layer and the deadline-guard
signal-loss fixes that ride with it.

Covers, in order:

* :mod:`repro.parallel` — deterministic ordering, crash isolation (a
  SIGKILLed worker loses only its in-flight item), error quarantine,
  per-worker init, and per-item deadlines that actually preempt (they
  run on each worker's main thread);
* the guard bugfixes — a SIGALRM landing inside a GC callback or
  ``__del__`` no longer loses the deadline (deferred re-arm + post-body
  expiry check), and an unenforceable deadline (off the main thread)
  announces itself instead of silently not guarding;
* fork-aware observability — :class:`repro.obs.FileSink` shards per pid
  under fork, shards merge back, worker metrics fold into the parent;
* the ``--jobs`` wiring — ``tools/sweep.py`` and
  ``tools/fault_campaign.py`` produce records identical to their serial
  runs, and :func:`repro.core.sort_bits_many` matches its serial path
  bit for bit; supervised batches (it and
  :meth:`repro.runtime.Supervisor.run_many`) run in-process and fold
  every call into the supervisor's stats.
"""

import gc
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import repro.obs as obs
from repro.core import sort_bits_many
from repro.errors import BuildError, DeadlineExceeded, SimulationError
from repro.obs import FileSink, MetricsRegistry, merge_shards, read_trace, shard_paths
from repro.parallel import ItemOutcome, run_items
from repro.runtime import Supervisor, reset_supervisors, supervisor_stats
from repro.runtime.guard import (
    _reset_unguarded_warning,
    _unraisable_frame,
    run_guarded,
    time_limit,
)

REPO = pathlib.Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ---------------------------------------------------------------------------
# executor tasks must be module-level so both fork and spawn contexts can
# reach them


def _square(x):
    return x * x


def _square_or_die(x):
    if x == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    if x == "boom":
        raise ValueError("boom payload")
    return x * x


def _sleepy(x):
    time.sleep(30.0)
    return x


_INIT_STATE = {}


def _remember_init(arg):
    _INIT_STATE["base"] = arg


def _add_init(x):
    return _INIT_STATE["base"] + x


class TestExecutor:
    def test_parallel_matches_serial_in_order(self):
        items = [(f"i{k}", k) for k in range(12)]
        serial = run_items(items, _square, jobs=1)
        parallel = run_items(items, _square, jobs=3)
        assert [o.value for o in serial] == [k * k for k in range(12)]
        assert [o.value for o in parallel] == [o.value for o in serial]
        assert [o.index for o in parallel] == list(range(12))
        assert all(o.ok for o in parallel)
        # genuinely ran elsewhere
        assert any(o.pid != os.getpid() for o in parallel)
        assert all(o.pid == os.getpid() for o in serial)

    def test_error_item_is_quarantined_not_fatal(self):
        items = [("a", 2), ("bad", "boom"), ("c", 3)]
        outcomes = run_items(items, _square_or_die, jobs=2)
        assert [o.id for o in outcomes] == ["a", "bad", "c"]
        assert [o.value for o in outcomes if o.ok] == [4, 9]
        bad = [o for o in outcomes if not o.ok]
        assert len(bad) == 1 and bad[0].id == "bad" and bad[0].value is None
        assert "boom payload" in bad[0].error
        assert bad[0].guarded

    def test_sigkilled_worker_loses_only_its_item(self):
        clean = [(f"i{k}", k) for k in range(8)]
        serial = run_items(clean, _square_or_die, jobs=1)
        killer = clean[:4] + [("victim", "die")] + clean[4:]
        outcomes = run_items(killer, _square_or_die, jobs=2)
        bad = [o for o in outcomes if not o.ok]
        assert len(bad) == 1 and bad[0].id == "victim"
        assert "worker died mid-item" in bad[0].error
        # every other record identical to the serial run, still in order
        survivors = [o for o in outcomes if o.ok]
        assert [(o.id, o.value) for o in survivors] == \
               [(o.id, o.value) for o in serial]

    def test_worker_init_runs_in_every_worker(self):
        items = [(f"i{k}", k) for k in range(6)]
        outcomes = run_items(
            items, _add_init, jobs=2,
            worker_init=_remember_init, init_arg=100,
        )
        assert [o.value for o in outcomes] == [100 + k for k in range(6)]

    def test_per_item_deadline_preempts_in_worker(self):
        items = [("fast", 5), ("slow", 6)]
        t0 = time.perf_counter()
        outcomes = run_items(
            [items[1]], _sleepy, jobs=2, timeout_s=0.3, retries=0,
        )
        assert time.perf_counter() - t0 < 10.0
        assert not outcomes[0].ok
        assert "DeadlineExceeded" in outcomes[0].error
        assert outcomes[0].guarded  # worker main thread: guard is real
        fast = run_items([items[0]], _square, jobs=2, timeout_s=5.0)
        assert fast[0].ok and fast[0].value == 25

    def test_quarantine_record_marks_unguarded(self):
        out = ItemOutcome(index=0, id="x", ok=False, error="E",
                          attempts=2, guarded=False)
        rec = out.quarantine_record()
        assert rec == {"id": "x", "error": "E", "attempts": 2,
                       "unguarded": True}


class TestGuardSignalLoss:
    def test_unraisable_frame_detects_gc_callback_and_del(self):
        captured = []

        def cb(phase, info):
            if not captured:
                captured.append(sys._getframe())

        gc.callbacks.append(cb)
        try:
            gc.collect()
            assert captured
            assert _unraisable_frame(captured[0])
        finally:
            gc.callbacks.remove(cb)

        frames = []

        class Finalized:
            def __del__(self):
                frames.append(sys._getframe())

        Finalized()
        gc.collect()
        assert frames and _unraisable_frame(frames[0])
        assert not _unraisable_frame(sys._getframe())

    def test_deadline_survives_gc_callback_storm(self):
        # Repro for the lost-deadline bug: keep the process inside busy
        # GC callbacks so SIGALRM keeps landing in frames that cannot
        # propagate exceptions.  The fixed guard defers (re-arms) until
        # the raise can land; the broken one discarded the exception via
        # sys.unraisablehook and the loop below would run to its 2 s
        # cap with no DeadlineExceeded at ~0.05 s.
        def busy_cb(phase, info):
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.002:
                pass

        gc.callbacks.append(busy_cb)
        try:
            t0 = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                with time_limit(0.05, "gc-storm"):
                    stop = time.perf_counter() + 2.0
                    while time.perf_counter() < stop:
                        gc.collect()
            elapsed = time.perf_counter() - t0
        finally:
            gc.callbacks.remove(busy_cb)
        assert elapsed < 5.0

    def test_expiry_survives_swallowed_raise(self):
        # Even an adversarial body that swallows every exception cannot
        # make the deadline disappear: the expiry flag is re-checked
        # when the body completes.
        with pytest.raises(DeadlineExceeded):
            with time_limit(0.03, "swallower"):
                for _ in range(40):
                    try:
                        time.sleep(0.005)
                    except DeadlineExceeded:
                        pass  # swallowed — guard must still surface it


class TestUnguardedAnnouncement:
    def test_off_main_thread_reports_and_warns_once(self, tmp_path):
        trace = tmp_path / "unguarded.jsonl"
        _reset_unguarded_warning()
        obs.reset()
        obs.enable(trace_path=str(trace))
        results = {}

        def work(slot):
            report = {}
            results[slot] = (
                run_guarded(_square, 4, timeout_s=0.5, report=report),
                report,
            )

        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for slot in ("first", "second"):
                    t = threading.Thread(target=work, args=(slot,))
                    t.start()
                    t.join()
        finally:
            obs.reset()
        for slot in ("first", "second"):
            value, report = results[slot]
            assert value == 16
            assert report["guarded"] is False
            assert report["attempts"] == 1
        hits = [w for w in caught
                if issubclass(w.category, RuntimeWarning)
                and "unguarded" in str(w.message)]
        assert len(hits) == 1  # one-time warning, but...
        events = [e for e in read_trace(trace).events
                  if e.get("name") == "guard.unguarded"]
        assert len(events) == 2  # ...a trace event per occurrence
        assert events[0]["attrs"]["main_thread"] is False

    def test_on_main_thread_report_says_guarded(self):
        report = {}
        assert run_guarded(_square, 3, timeout_s=5.0, report=report) == 9
        assert report["guarded"] is True


class TestForkAwareObs:
    def test_filesink_shards_per_pid_and_merges(self, tmp_path):
        base = tmp_path / "trace.jsonl"
        sink = FileSink(base)
        sink.write({"name": "parent-before"})
        pid = os.fork()
        if pid == 0:  # forked child: write through the inherited sink
            try:
                sink.write({"name": "child"})
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert status == 0
        sink.write({"name": "parent-after"})
        sink.close()

        shards = shard_paths(base)
        assert shards == [FileSink.shard_path(base, pid)]
        base_names = [e["name"] for e in read_trace(base).events]
        assert base_names == ["parent-before", "parent-after"]

        assert merge_shards(base) >= 1
        assert shard_paths(base) == []
        merged = [e["name"] for e in read_trace(base).events]
        assert sorted(merged) == ["child", "parent-after", "parent-before"]

    def test_metrics_dump_and_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("jobs_total").inc(2)
        b.counter("jobs_total").inc(3)
        b.gauge("depth").set(7)
        a.histogram("lat").observe(0.05)
        b.histogram("lat").observe(5.0)

        a.merge_state(b.dump_state())
        state = {(e["name"]): e for e in a.dump_state()}
        assert state["jobs_total"]["value"] == 5.0
        assert state["depth"]["value"] == 7.0
        assert state["lat"]["count"] == 2
        # one bucket scheme everywhere: the merge adds counts by index
        both = MetricsRegistry().histogram("lat")
        both.observe(0.05)
        both.observe(5.0)
        assert state["lat"]["buckets"] == [[i, 1] for i in sorted(both.counts)]


SWEEP_ARGS = ["--min-lg", "4", "--max-lg", "5", "--item-timeout", "120"]
CAMPAIGN_ARGS = [
    "--n", "8", "--networks", "prefix", "--faults", "stuck,control",
    "--max-faults", "20", "--item-timeout", "120",
]


class TestJobsDifferential:
    def test_sweep_jobs_matches_serial(self, tmp_path):
        docs = {}
        for tag, extra in (("serial", []), ("jobs", ["--jobs", "4"])):
            out = tmp_path / f"sweep-{tag}.json"
            proc = subprocess.run(
                [sys.executable, str(REPO / "tools" / "sweep.py"),
                 *SWEEP_ARGS, "--out", str(out), *extra],
                capture_output=True, text=True, env=_env(), timeout=600,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            docs[tag] = json.loads(out.read_text())
        strip = [{k: v for k, v in r.items() if k != "time"}
                 for r in docs["serial"]]
        strip_jobs = [{k: v for k, v in r.items() if k != "time"}
                      for r in docs["jobs"]]
        assert strip and strip == strip_jobs

    def test_campaign_jobs_matches_serial_byte_identical(self, tmp_path):
        texts = {}
        for tag, extra in (("serial", []), ("jobs", ["--jobs", "4"])):
            out = tmp_path / f"faults-{tag}.json"
            proc = subprocess.run(
                [sys.executable, str(REPO / "tools" / "fault_campaign.py"),
                 *CAMPAIGN_ARGS, "--out", str(out), *extra],
                capture_output=True, text=True, env=_env(), timeout=600,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            texts[tag] = out.read_text()
        doc = json.loads(texts["serial"])
        assert doc["records"] and doc["meta"]["complete"]
        # not just equivalent — byte-identical documents
        assert texts["serial"] == texts["jobs"]


class TestBatchAPIs:
    def test_sort_bits_many_parallel_matches_serial(self):
        rng = np.random.default_rng(0x5EED)
        seqs = [rng.integers(0, 2, size=rng.integers(0, 40)).astype(np.uint8)
                for _ in range(23)]
        serial = sort_bits_many(seqs, jobs=1)
        parallel = sort_bits_many(seqs, jobs=2)
        assert len(parallel) == len(seqs)
        for got, ser, src in zip(parallel, serial, seqs):
            assert np.array_equal(got, ser)
            assert np.array_equal(got, np.sort(src))

    def test_sort_bits_many_validates_and_reports_shard_failure(self):
        with pytest.raises(SimulationError):
            sort_bits_many([[0, 1], [0, 2]], jobs=2)
        assert sort_bits_many([], jobs=4) == []

    def test_sort_bits_many_fish_supervised(self):
        rng = np.random.default_rng(7)
        seqs = [rng.integers(0, 2, size=9).astype(np.uint8)
                for _ in range(6)]
        out = sort_bits_many(seqs, network="fish", supervised=True, jobs=1)
        for got, src in zip(out, seqs):
            assert np.array_equal(got, np.sort(src))

    def test_sort_bits_many_supervised_folds_stats(self):
        rng = np.random.default_rng(12)
        seqs = list(rng.integers(0, 2, (12, 16)).astype(np.uint8))
        reset_supervisors()
        try:
            out = sort_bits_many(seqs, network="prefix", supervised=True)
            for got, src in zip(out, seqs):
                assert np.array_equal(got, np.sort(src))
            assert supervisor_stats()["prefix"]["calls"] == len(seqs)
        finally:
            reset_supervisors()

    def test_sort_bits_many_supervised_rejects_jobs(self):
        reset_supervisors()
        try:
            with pytest.raises(BuildError):
                sort_bits_many([[1, 0], [0, 1]], network="prefix",
                               supervised=True, jobs=2)
            # rejected before any sort ran
            assert "prefix" not in supervisor_stats()
        finally:
            reset_supervisors()

    def test_supervisor_run_many_matches_serial_and_folds_stats(self):
        rng = np.random.default_rng(11)
        seqs = [rng.integers(0, 2, size=rng.integers(1, 33)).astype(np.uint8)
                for _ in range(10)]
        ser_sup = Supervisor("prefix")
        ser = [ser_sup.sort_verbose(s) for s in seqs]
        many_sup = Supervisor("prefix")
        many_out, many_reports = many_sup.run_many(seqs)
        for got, (want, _), src in zip(many_out, ser, seqs):
            assert np.array_equal(got, want)
            assert np.array_equal(got, np.sort(src))
        assert [r.tier for r in many_reports] == [r.tier for _, r in ser]
        # every row's report was folded into the supervisor's stats
        assert many_sup.stats.snapshot()["calls"] == len(seqs)


def _nap_if_stuck(x):
    if x == "nap":
        time.sleep(30.0)
    return x


class TestHangBudget:
    """The parent-side hang watch: explicit kwarg > computed worst-case
    budget, plus the ``parallel.stalled`` trace event that records
    per-worker in-flight state before the kill."""

    def test_resolution_order(self):
        from repro.parallel.executor import _resolve_hang_budget

        # computed: no timeout -> no watch; with timeout -> factor + grace
        assert _resolve_hang_budget(None, None, 0, 0.0) is None
        computed = _resolve_hang_budget(None, 1.0, 0, 0.0)
        assert computed is not None and computed > 5.0
        # explicit kwarg beats the computed budget; <= 0 disables
        assert _resolve_hang_budget(7.0, 1.0, 0, 0.0) == 7.0
        assert _resolve_hang_budget(7.0, None, 0, 0.0) == 7.0
        assert _resolve_hang_budget(-1.0, 1.0, 0, 0.0) is None

    def test_kwarg_budget_kills_hung_worker_and_traces(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        obs.reset()
        obs.enable(trace_path=str(trace))
        try:
            t0 = time.perf_counter()
            # the "nap" payload sleeps 30s with no per-item deadline:
            # only the explicit hang budget can reclaim its worker.
            outcomes = run_items([("stuck", "nap"), ("ok", 1)],
                                 _nap_if_stuck, jobs=2, hang_budget_s=1.0)
            elapsed = time.perf_counter() - t0
        finally:
            obs.reset()
        assert elapsed < 20.0
        stuck, ok = outcomes
        assert not stuck.ok and "hung past hard budget" in stuck.error
        assert ok.ok and ok.value == 1
        stalled = [e for e in read_trace(trace).events
                   if e.get("name") == "parallel.stalled"]
        assert len(stalled) == 1
        attrs = stalled[0]["attrs"]
        assert attrs["stalled_item"] == "stuck"
        assert attrs["hard_budget_s"] == 1.0
        assert attrs["stalled_elapsed_s"] >= 1.0
        flight = {w["item"]: w for w in attrs["in_flight"]}
        assert "stuck" in flight  # the fast item may already be done
        assert flight["stuck"]["pid"] == attrs["stalled_pid"]
        assert flight["stuck"]["elapsed_s"] >= 1.0

"""Unit tests for the observability layer (:mod:`repro.obs`).

Covers the metrics registry (types, labels, bucketing, thread safety,
exposition formats), the tracer (nesting, sinks, crash-tolerant reads),
switch-activity profiling on a handcrafted netlist, supervisor decision
events, and the trace_report / docs-link tools.
"""

import json
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.obs.metrics import REL_ERR, MetricsRegistry
from repro.obs.tracing import FileSink, RingBufferSink, Tracer, read_trace

REPO = pathlib.Path(__file__).parent.parent
TOOLS = REPO / "tools"


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with observability fully reset."""
    obs.reset()
    yield
    obs.reset()


# -- metrics registry ---------------------------------------------------------

class TestMetrics:
    def test_counter_and_gauge_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "Requests.")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)
        g = reg.gauge("depth", "Queue depth.")
        g.set(5)
        g.inc()
        g.dec(3)
        assert g.value == 3

    def test_get_or_create_and_label_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total", kind="a")
        b = reg.counter("hits_total", kind="b")
        again = reg.counter("hits_total", kind="a")
        assert a is again and a is not b
        # label order must not create a distinct series
        x = reg.counter("xy_total", x="1", y="2")
        y = reg.counter("xy_total", y="2", x="1")
        assert x is y
        assert len(reg) == 3

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError):
            reg.gauge("thing")

    def test_histogram_bucketing(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds")
        for v in (0.05, 0.5, 0.5, 5.0, 50.0, 0.0):
            h.observe(v)
        cum = h.cumulative()
        bounds = [b for b, _ in cum]
        assert bounds == sorted(bounds) and bounds[-1] == float("inf")
        assert cum[0] == (0.0, 1)  # the <= 0 bucket
        # each value sits in (bound / gamma, bound] of its own bucket
        gamma = (1 + REL_ERR) / (1 - REL_ERR)
        counts = dict(zip(bounds, np.diff([0] + [c for _, c in cum])))
        for v, n in ((0.05, 1), (0.5, 2), (5.0, 1), (50.0, 1)):
            (bound,) = [b for b in bounds[1:-1] if b / gamma < v <= b]
            assert counts[bound] == n
        assert cum[-1] == (float("inf"), 6)
        assert h.count == 6
        assert h.sum == pytest.approx(56.05)

    def test_histogram_default_buckets_cover_engine_times(self):
        # no bucket list to choose: engine executions (ms) and supervised
        # sorts (tens of ms) land in finite buckets and come back within
        # REL_ERR, never clamped to a range edge or +Inf
        h = MetricsRegistry().histogram("t")
        for v in (0.003, 0.03, 1e-7, 1e3):
            h.observe(v)
        assert [c for b, c in h.cumulative() if b != float("inf")] == [1, 2, 3, 4]
        assert h.quantile(0.0) == pytest.approx(1e-7, rel=REL_ERR)
        assert h.quantile(1.0) == pytest.approx(1e3, rel=REL_ERR)
        assert MetricsRegistry().histogram("empty").quantile(0.99) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_prometheus_golden(self):
        reg = MetricsRegistry()
        reg.counter("repro_runs_total", "Total runs.", network="prefix").inc(2)
        reg.gauge("repro_depth", "Depth.").set(7)
        h = reg.histogram("repro_lat_seconds", "Latency.")
        h.observe(0.1)
        h.observe(1.0)
        gamma = (1 + REL_ERR) / (1 - REL_ERR)
        expected = "\n".join([
            '# HELP repro_depth Depth.',
            '# TYPE repro_depth gauge',
            'repro_depth 7.0',
            '# HELP repro_lat_seconds Latency.',
            '# TYPE repro_lat_seconds histogram',
            f'repro_lat_seconds_bucket{{le="{gamma ** -115!r}"}} 1',
            f'repro_lat_seconds_bucket{{le="{gamma ** 0!r}"}} 2',
            'repro_lat_seconds_bucket{le="+Inf"} 2',
            'repro_lat_seconds_sum 1.1',
            'repro_lat_seconds_count 2',
            '# HELP repro_runs_total Total runs.',
            '# TYPE repro_runs_total counter',
            'repro_runs_total{network="prefix"} 2.0',
            '',
        ])
        assert reg.to_prometheus() == expected

    def test_json_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("a_total", x="1").inc()
        reg.histogram("h").observe(0.5)
        snap = json.loads(reg.to_json())
        assert snap['a_total{x="1"}'] == {"type": "counter", "value": 1.0}
        assert snap["h"]["type"] == "histogram"
        assert snap["h"]["count"] == 1
        assert [c for _, c in snap["h"]["buckets"]] == [1, 1]
        assert snap["h"]["buckets"][-1][0] == "+Inf"

    def test_thread_safety_smoke(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total")
        h = reg.histogram("h")
        workers, per = 8, 2000

        def work():
            for i in range(per):
                c.inc()
                h.observe((i % 2) * 1.0)
                reg.counter("n_total")  # get-or-create race

        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == workers * per
        assert h.count == workers * per
        assert h.cumulative()[0] == (0.0, workers * per // 2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1e-7, 1e3), min_size=1, max_size=200),
           st.integers(0, 3))
    def test_quantile_within_rel_err(self, values, repeat):
        # repeats put several samples in one bucket and at equal ranks
        x = np.array(values * (repeat + 1))
        h = MetricsRegistry().histogram("q")
        for v in x:
            h.observe(v)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            exact = np.quantile(x, q, method="lower")
            assert abs(h.quantile(q) - exact) <= REL_ERR * exact * (1 + 1e-9)

    def test_merged_dumps_equal_one_registry(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(-7, 2, 3000)
        samples[::50] = 0.0
        a, b, whole = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for i, v in enumerate(samples):
            (a if i % 3 else b).histogram("lat", "L.", cell="x").observe(v)
            whole.histogram("lat", "L.", cell="x").observe(v)
        merged = MetricsRegistry()
        merged.merge_state(a.dump_state())
        merged.merge_state(json.loads(json.dumps(b.dump_state())))
        got, want = merged.dump_state(), whole.dump_state()
        assert got[0]["buckets"] == want[0]["buckets"]
        assert got[0]["zero_count"] == want[0]["zero_count"] == 60
        assert got[0]["count"] == want[0]["count"] == 3000
        assert got[0]["sum"] == pytest.approx(want[0]["sum"])
        hist = merged.histogram("lat", cell="x")
        for q in (0.5, 0.99):
            assert hist.quantile(q) == whole.histogram("lat", cell="x").quantile(q)

    def test_exposition_buckets_monotone_and_inf_is_count(self):
        reg = MetricsRegistry()
        rng = np.random.default_rng(3)
        for kind in ("sort", "route"):
            h = reg.histogram("repro_lat_seconds", "L.", kind=kind)
            for v in rng.exponential(2e-3, 500):
                h.observe(v)
        text = reg.to_prometheus()
        for kind in ("sort", "route"):
            lines = [ln for ln in text.splitlines()
                     if ln.startswith("repro_lat_seconds_bucket{")
                     and f'kind="{kind}"' in ln]
            les = [ln.split('le="')[1].split('"')[0] for ln in lines]
            counts = [int(ln.rsplit(" ", 1)[1]) for ln in lines]
            assert les[-1] == "+Inf"
            assert [float(le) for le in les[:-1]] == sorted(map(float, les[:-1]))
            assert counts == sorted(counts)
            count = [ln for ln in text.splitlines()
                     if ln.startswith(f'repro_lat_seconds_count{{kind="{kind}"}}')]
            assert counts[-1] == int(count[0].rsplit(" ", 1)[1]) == 500

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        reg.reset()
        assert len(reg) == 0


# -- tracing ------------------------------------------------------------------

class TestTracing:
    def test_span_nesting_and_ids(self):
        tracer = Tracer()
        ring = RingBufferSink()
        tracer.add_sink(ring)
        with tracer.span("outer", a=1):
            with tracer.span("inner"):
                tracer.event("tick", x=2)
        inner_tick, inner, outer = ring.events()[-3:]
        assert [r["name"] for r in (outer, inner, inner_tick)] == \
            ["outer", "inner", "tick"]
        assert outer["type"] == "span" and inner_tick["type"] == "event"
        assert inner["parent"] == outer["sid"]
        assert inner_tick["parent"] == inner["sid"]
        assert (outer["depth"], inner["depth"], inner_tick["depth"]) == (0, 1, 2)
        assert outer["dur"] >= inner["dur"] >= 0
        assert outer["attrs"] == {"a": 1}

    def test_span_attrs_mutable_inside_body(self):
        tracer = Tracer()
        ring = RingBufferSink()
        tracer.add_sink(ring)
        with tracer.span("work") as attrs:
            attrs["result"] = 42
        assert ring.events()[0]["attrs"] == {"result": 42}

    def test_ring_capacity(self):
        ring = RingBufferSink(capacity=3)
        for i in range(10):
            ring.write({"i": i})
        assert [r["i"] for r in ring.events()] == [7, 8, 9]

    def test_file_sink_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = FileSink(path)
        tracer = Tracer()
        tracer.add_sink(sink)
        with tracer.span("s", k="v"):
            tracer.event("e")
        sink.close()
        result = read_trace(path)
        assert not result.truncated and result.corrupt == 0
        assert [r["name"] for r in result] == ["e", "s"]

    def test_read_trace_tolerates_truncated_tail(self, tmp_path):
        """A SIGKILL mid-write leaves one partial final line; the reader
        must drop exactly that line and flag it."""
        path = tmp_path / "t.jsonl"
        sink = FileSink(path)
        for i in range(3):
            sink.write({"type": "event", "name": f"e{i}", "attrs": {}})
        sink.close()
        whole = path.read_bytes()
        cut = whole[: len(whole) - len(whole.splitlines(True)[-1]) // 2 - 1]
        path.write_bytes(cut)  # simulate the kill: last line half-written
        result = read_trace(path)
        assert result.truncated
        assert [r["name"] for r in result] == ["e0", "e1"]

    def test_read_trace_strict_on_midfile_corruption(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"name": "a"}\nGARBAGE\n{"name": "b"}\n')
        with pytest.raises(ValueError, match="line 2"):
            read_trace(path)
        lenient = read_trace(path, strict=False)
        assert lenient.corrupt == 1
        assert [r["name"] for r in lenient] == ["a", "b"]

    def test_global_helpers_disabled_are_passthrough(self):
        assert not obs.enabled()
        with obs.trace_span("x", a=1) as attrs:
            attrs["b"] = 2  # must still be a real dict
        obs.trace_event("y")
        assert obs.ring_events() == []

    def test_enable_disable_roundtrip(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.enable(trace_path=trace)
        assert obs.enabled()
        with obs.trace_span("hello", n=1):
            pass
        obs.enable(trace_path=trace)  # idempotent: no duplicate sinks
        with obs.trace_span("again", n=2):
            pass
        obs.reset()
        names = [r["name"] for r in read_trace(trace)]
        assert names == ["hello", "again"]
        assert len(obs.ring_events()) == 0


# -- switch activity ----------------------------------------------------------

class TestActivity:
    def test_comparator_crossing_counts_exact(self):
        """A single comparator crosses only on (a=1, b=0): count it
        exactly over the exhaustive 2-input batch."""
        from repro.circuits import exhaustive_inputs, get_plan
        from repro.core.prefix_sorter import build_prefix_sorter

        net = build_prefix_sorter(4)
        obs.enable()
        plan = get_plan(net)
        batch = exhaustive_inputs(4)  # 16 rows -> unpacked path
        out = plan.execute_unpacked(batch)
        assert np.array_equal(out, np.sort(batch, axis=1))
        prof = obs.activity_profiles()[plan.name]
        assert prof.lanes == 16
        summary = obs.summarize_profile(prof)
        assert summary["switching_elements"] > 0
        # toggle fractions are true fractions
        for el in summary["top_elements"]:
            assert 0.0 <= el["frac"] <= 1.0
        # control wires tagged by the builder are all profiled
        assert summary["control_wires"] == len(net.control_wires)

    def test_packed_and_unpacked_counts_agree(self):
        """The packed path must popcount only real lanes (pad bits are
        driven high by constants) — same batch, same counts."""
        from repro.circuits import get_plan
        from repro.core.prefix_sorter import build_prefix_sorter

        net = build_prefix_sorter(8)
        rng = np.random.default_rng(7)
        batch = rng.integers(0, 2, (70, 8)).astype(np.uint8)  # not a word multiple
        obs.enable()
        plan = get_plan(net)
        plan.execute_unpacked(batch)
        unpacked = obs.activity_profiles()[plan.name].crossed.copy()
        obs.reset_activity()
        plan.execute_packed(batch)
        packed = obs.activity_profiles()[plan.name].crossed.copy()
        assert np.array_equal(unpacked, packed)

    def test_flush_activity_emits_trace_events(self, tmp_path):
        from repro.circuits import get_plan
        from repro.core.prefix_sorter import build_prefix_sorter

        trace = tmp_path / "t.jsonl"
        obs.enable(trace_path=trace)
        plan = get_plan(build_prefix_sorter(4))
        plan.execute_unpacked(np.zeros((3, 4), dtype=np.uint8))
        summaries = obs.flush_activity()
        obs.reset()
        events = [r for r in read_trace(trace) if r["name"] == "engine.activity"]
        assert {e["attrs"]["netlist"] for e in events} == set(summaries)


# -- engine + supervisor integration -----------------------------------------

class TestIntegration:
    def test_engine_span_carries_step_profile(self):
        from repro.circuits import get_plan
        from repro.core.prefix_sorter import build_prefix_sorter

        obs.enable()
        plan = get_plan(build_prefix_sorter(8))
        plan.execute_unpacked(np.zeros((5, 8), dtype=np.uint8))
        spans = [r for r in obs.ring_events() if r["name"] == "engine.execute"]
        assert spans
        attrs = spans[-1]["attrs"]
        assert attrs["mode"] == "unpacked" and attrs["batch"] == 5
        assert len(attrs["steps"]) == len(plan.steps)
        for level, kind, dt, n_el in attrs["steps"]:
            assert dt >= 0 and n_el >= 1
        snap = obs.registry().snapshot()
        assert any(k.startswith("repro_engine_kernel_seconds_total")
                   for k in snap)

    def test_supervisor_events_on_fallback(self):
        """A supervisor run on broken hardware journals its decisions:
        alarms on the failing tiers, retries, degradations, and the
        final acceptance."""
        import dataclasses

        from repro.circuits import ControlInvert, apply_fault, control_wires
        from repro.circuits.checkers import with_checkers
        from repro.core.api import make_sorter
        from repro.runtime import RecoveryPolicy, Supervisor

        net = make_sorter(8, "prefix")
        checked = with_checkers(net, control=True)
        steering = sorted(set(control_wires(net)) - set(net.inputs))
        broken = dataclasses.replace(
            checked,
            netlist=apply_fault(checked.netlist, ControlInvert(steering[0])),
        )
        obs.enable()
        sup = Supervisor(
            "prefix",
            policy=RecoveryPolicy(max_retries=1, backoff_s=0),
            hardware=lambda _n: broken,
        )
        row = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        out, report = sup.sort_verbose(row)
        assert np.array_equal(out, np.sort(row))
        assert report.fell_back
        names = {r["name"] for r in obs.ring_events()}
        assert "supervisor.sort" in names
        assert "supervisor.alarm" in names
        assert "supervisor.retry" in names
        assert "supervisor.degrade" in names
        assert "supervisor.accept" in names
        sort_span = [r for r in obs.ring_events()
                     if r["name"] == "supervisor.sort"][-1]
        assert sort_span["attrs"]["fell_back"]
        snap = obs.registry().snapshot()
        assert any(k.startswith("repro_supervisor_fallbacks_total")
                   for k in snap)

    def test_interpreter_span(self):
        from repro.circuits.simulate import simulate_interpreted
        from repro.core.prefix_sorter import build_prefix_sorter

        obs.enable()
        net = build_prefix_sorter(4)
        simulate_interpreted(net, np.zeros((2, 4), dtype=np.uint8))
        spans = [r for r in obs.ring_events() if r["name"] == "interp.execute"]
        assert spans and spans[-1]["attrs"]["mode"] == "bit"


# -- tools --------------------------------------------------------------------

def _run_tool(script, *argv):
    return subprocess.run(
        [sys.executable, str(TOOLS / script), *map(str, argv)],
        capture_output=True, text=True, cwd=str(REPO),
    )


class TestTraceReport:
    def _make_trace(self, tmp_path):
        from repro.circuits import get_plan
        from repro.core.prefix_sorter import build_prefix_sorter

        trace = tmp_path / "trace.jsonl"
        obs.enable(trace_path=trace)
        plan = get_plan(build_prefix_sorter(8))
        with obs.trace_span("sweep.item", item="prefix/n=8", ok=True):
            plan.execute_unpacked(np.zeros((5, 8), dtype=np.uint8))
        obs.trace_event("sweep.quarantine", item="prefix/n=64",
                        error="TimeoutError()")
        obs.flush_activity()
        obs.reset()
        return trace

    def test_report_sections(self, tmp_path):
        trace = self._make_trace(tmp_path)
        proc = _run_tool("trace_report.py", trace)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        assert "hot levels" in out
        assert "switch activity" in out
        assert "sweep.item: 1 items" in out
        assert "QUARANTINED prefix/n=64" in out

    def test_report_json_mode(self, tmp_path):
        trace = self._make_trace(tmp_path)
        proc = _run_tool("trace_report.py", trace, "--json")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["counts"]["engine.execute"] >= 1
        assert "prefix-sorter-8" in report["activity"]
        assert report["quarantined"][0]["item"] == "prefix/n=64"

    def test_report_tolerates_truncated_tail(self, tmp_path):
        trace = self._make_trace(tmp_path)
        data = trace.read_bytes()
        trace.write_bytes(data[:-10])  # SIGKILL-style partial final line
        proc = _run_tool("trace_report.py", trace)
        assert proc.returncode == 0, proc.stderr
        assert "final line truncated" in proc.stdout

    def test_report_rejects_midfile_corruption_unless_lenient(self, tmp_path):
        trace = self._make_trace(tmp_path)
        lines = trace.read_text().splitlines(True)
        lines[1] = "NOT JSON\n"
        trace.write_text("".join(lines))
        proc = _run_tool("trace_report.py", trace)
        assert proc.returncode == 2
        proc = _run_tool("trace_report.py", trace, "--lenient")
        assert proc.returncode == 0, proc.stderr
        assert "1 corrupt lines skipped" in proc.stdout

    def test_report_missing_file(self, tmp_path):
        proc = _run_tool("trace_report.py", tmp_path / "nope.jsonl")
        assert proc.returncode == 2


class TestDocsLinkChecker:
    def test_repo_docs_have_no_dead_links(self):
        proc = _run_tool("check_docs_links.py")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_dead_link_detected(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "[ok](docs/REAL.md) [broken](docs/MISSING.md#sec)\n"
        )
        (tmp_path / "docs" / "REAL.md").write_text("# real\n")
        proc = _run_tool("check_docs_links.py", "--root", tmp_path)
        assert proc.returncode == 1
        assert "MISSING.md" in proc.stdout

    def test_external_links_ignored_and_anchors_checked(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "# Here\n[web](https://example.com) [anchor](#here) "
            "[mail](mailto:x@y.z)\n"
        )
        proc = _run_tool("check_docs_links.py", "--root", tmp_path)
        assert proc.returncode == 0, proc.stdout
        # in-page anchors are now validated, not skipped
        (tmp_path / "README.md").write_text("# Here\n[gone](#nowhere)\n")
        proc = _run_tool("check_docs_links.py", "--root", tmp_path)
        assert proc.returncode == 1
        assert "nowhere" in proc.stdout


# -- env-var opt-in -----------------------------------------------------------

def test_env_var_opt_in(tmp_path):
    """REPRO_OBS=1 / REPRO_OBS_TRACE switch the layer on at import."""
    trace = tmp_path / "env.jsonl"
    code = (
        "import repro.obs as obs, numpy as np\n"
        "from repro.circuits import get_plan\n"
        "from repro.core.prefix_sorter import build_prefix_sorter\n"
        "assert obs.enabled()\n"
        "plan = get_plan(build_prefix_sorter(4))\n"
        "plan.execute_unpacked(np.zeros((2, 4), dtype=np.uint8))\n"
        "obs.reset()\n"
    )
    import os
    import subprocess as sp
    env = dict(os.environ, REPRO_OBS="1", REPRO_OBS_TRACE=str(trace),
               PYTHONPATH=str(REPO / "src"))
    proc = sp.run([sys.executable, "-c", code], env=env,
                  capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = read_trace(trace)
    assert any(r["name"] == "engine.execute" for r in result)

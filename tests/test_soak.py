"""End-to-end tests for the chaos-soak driver (``tools/soak.py``).

The three load-bearing properties:

* a small smoke soak under payload chaos **passes its SLOs** and emits a
  BENCH file that ``tools/compare_sweeps.py`` gates;
* the deterministic soak document is **byte-identical** across runs of
  the same seed (the resume/audit contract);
* a soak SIGKILLed mid-run and restarted produces the **same bytes** as
  one that was never interrupted (crash-safe checkpointing).

Kill-storm chaos is exercised by the CI smoke job at 50k requests; at
this scale a single kill would blow the quarantine-rate SLO, so these
tests stick to the deterministic injectors.
"""

import importlib.util
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SOAK = REPO / "tools" / "soak.py"

pytestmark = pytest.mark.slow


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _soak_cmd(tmp, tag, requests=640, workloads="uniform,adversarial",
              chaos="faults,deadlines", extra=()):
    out = tmp / f"{tag}.json"
    cmd = [
        sys.executable, str(SOAK),
        "--requests", str(requests),
        "--workloads", workloads,
        "--chaos", chaos,
        "--jobs", "2",
        "--n", "8",
        "--seed", "7",
        "--workdir", str(tmp / f"{tag}.work"),
        "--out", str(out),
        "--measured-out", str(tmp / f"{tag}.measured.json"),
        # A few hundred requests is only a handful of chunks, so run
        # the payload chaos always-on with a 50/50 mode split: batch
        # chunks prove fault detection (they ignore deadlines), while
        # supervised chunks prove deadline hits.
        "--chunk", "64",
        "--chaos-period", "1",
        "--chaos-duty", "1.0",
        "--supervised-fraction", "0.5",
    ]
    cmd.extend(extra)
    return cmd, out


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestSmoke:
    def test_pass_verdict_and_bench_gating(self, tmp_path):
        bench = tmp_path / "BENCH_workloads.json"
        cmd, out = _soak_cmd(tmp_path, "smoke",
                             extra=["--bench-out", str(bench)])
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "PASS"
        assert all(doc["slo"].values())
        # the driver proves every answer: silent corruption must be 0
        measured = json.loads((tmp_path / "smoke.measured.json").read_text())
        assert measured["slo"]["silent_corruption"]["value"] == 0
        # chaos efficacy: both payload injectors actually fired
        assert measured["slo"]["chaos_faults_detected"]["value"] > 0
        assert measured["slo"]["chaos_deadlines_hit"]["value"] > 0
        # throughput is on the parent's clock: the cells' round times
        # fit inside the run's wall clock (in-worker chunk times, summed
        # across parallel workers, need not)
        cell_wall = sum(c["wall_s"] for c in measured["cells"].values())
        assert 0 < cell_wall <= measured["wall_s"]

        records = json.loads(bench.read_text())
        assert {r["workload"] for r in records} == {"uniform", "adversarial"}
        assert all(r["chaos"] == "deadlines+faults" for r in records)
        # compare_sweeps understands, self-gates, and floors the format
        cs = _load_tool("compare_sweeps")
        assert cs.main([str(bench), str(bench)]) == 0
        bad = json.loads(bench.read_text())
        bad[0]["slo_pass"] = False
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(bad))
        assert cs.main([str(bench), str(broken)]) == 1

    def test_same_seed_byte_identical_and_resume_after_sigkill(self, tmp_path):
        cmd_a, out_a = _soak_cmd(tmp_path, "a", requests=600,
                                 workloads="uniform")
        proc = subprocess.run(cmd_a, env=_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

        # same seed, fresh workdir -> byte-identical deterministic doc
        cmd_b, out_b = _soak_cmd(tmp_path, "b", requests=600,
                                 workloads="uniform")
        subprocess.run(cmd_b, env=_env(), capture_output=True, check=True)
        assert out_b.read_bytes() == out_a.read_bytes()

        # SIGKILL a third run mid-flight, then restart it to completion:
        # the checkpointed resume must land on the identical bytes.  The
        # checkpoint is the --out document itself; one chunk per round
        # (neither meta nor the chaos schedules depend on it) gives the
        # run ten checkpoints, so the kill lands between two of them.
        cmd_c, out_c = _soak_cmd(tmp_path, "c", requests=600,
                                 workloads="uniform",
                                 extra=["--round-chunks", "1"])
        victim = subprocess.Popen(cmd_c, env=_env(),
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if out_c.exists() and out_c.stat().st_size > 0:
                break
            if victim.poll() is not None:  # finished before we could kill
                break
            time.sleep(0.01)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
            victim.wait()
            assert victim.returncode == -signal.SIGKILL
            partial = json.loads(out_c.read_text())
            assert partial["meta"]["complete"] is False
        resumed = subprocess.run(cmd_c, env=_env(), capture_output=True,
                                 text=True)
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert out_c.read_bytes() == out_a.read_bytes()


class TestUsageErrors:
    def test_obstrunc_requires_trace(self, tmp_path):
        cmd, _ = _soak_cmd(tmp_path, "x", chaos="obstrunc")
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True)
        assert proc.returncode == 2
        assert "obstrunc" in (proc.stdout + proc.stderr)

    def test_unknown_workload_and_injector(self, tmp_path):
        cmd, _ = _soak_cmd(tmp_path, "y", workloads="quicksort")
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True)
        assert proc.returncode == 2
        assert "unknown workload" in (proc.stdout + proc.stderr)
        cmd, _ = _soak_cmd(tmp_path, "z", chaos="meteor")
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True)
        assert proc.returncode == 2

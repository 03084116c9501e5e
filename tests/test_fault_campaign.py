"""End-to-end tests for tools/fault_campaign.py: crash-safety and resume.

The campaign's contract is that a SIGKILL at any point leaves a loadable
checkpoint (atomic writes: the file is always a complete JSON document)
and that re-running picks up where it left off without re-computing or
duplicating records — and, because sampling is seeded, the resumed
campaign's records are byte-identical to an uninterrupted run's.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "fault_campaign.py"

CAMPAIGN_ARGS = [
    "--n", "8",
    "--networks", "prefix,mux_merger",
    "--faults", "stuck,swap,control",
    "--max-faults", "60",
    "--checkpoint-every", "2",
]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run(out: pathlib.Path, extra=()):
    return subprocess.run(
        [sys.executable, str(TOOL), *CAMPAIGN_ARGS, "--out", str(out), *extra],
        capture_output=True, text=True, env=_env(), timeout=300,
    )


def _load(out: pathlib.Path) -> dict:
    return json.loads(out.read_text())


class TestCampaignEndToEnd:
    def test_smoke_campaign_completes(self, tmp_path):
        out = tmp_path / "faults.json"
        proc = _run(out)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = _load(out)
        assert doc["meta"]["complete"] is True
        records = doc["records"]
        ids = [r["id"] for r in records]
        assert len(ids) == len(set(ids)) and records
        assert sum(1 for r in records if r["outcome"] == "detected") > 0
        assert sum(r["divergences"] for r in records) == 0
        assert doc["summary"]  # aggregated table rows present
        assert "Fault resilience" in proc.stdout
        # atomic writes never leave temp droppings behind
        assert not list(tmp_path.glob("*.tmp"))

    def test_sigkill_then_resume_no_duplicates(self, tmp_path):
        out = tmp_path / "faults.json"
        baseline = tmp_path / "fresh.json"
        proc = _run(baseline)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        fresh = _load(baseline)

        victim = subprocess.Popen(
            [sys.executable, str(TOOL), *CAMPAIGN_ARGS, "--out", str(out)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=_env(),
        )
        # wait for a mid-run checkpoint, then kill without warning
        deadline = time.time() + 120
        while time.time() < deadline:
            if out.is_file():
                try:
                    if len(_load(out)["records"]) >= 4:
                        break
                except ValueError:  # pragma: no cover - never: writes are atomic
                    pytest.fail("checkpoint was readable mid-write: not atomic")
            if victim.poll() is not None:
                break  # finished before we could kill it (fast machine)
            time.sleep(0.02)
        killed = victim.poll() is None
        if killed:
            victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)

        partial = _load(out)  # must parse even right after SIGKILL
        partial_ids = [r["id"] for r in partial["records"]]
        assert len(partial_ids) == len(set(partial_ids))
        if killed:
            assert partial["meta"]["complete"] is False

        resume = _run(out)
        assert resume.returncode == 0, resume.stdout + resume.stderr
        if killed and partial_ids:
            assert "resuming" in resume.stdout
        doc = _load(out)
        ids = [r["id"] for r in doc["records"]]
        assert len(ids) == len(set(ids)), "resume duplicated records"
        assert doc["meta"]["complete"] is True
        # deterministic: resumed run == uninterrupted run, record for record
        assert {r["id"]: r for r in doc["records"]} == {
            r["id"]: r for r in fresh["records"]
        }
        if killed:  # ... and byte for byte
            assert out.read_text() == baseline.read_text()

    def test_changed_settings_invalidate_checkpoint(self, tmp_path):
        out = tmp_path / "faults.json"
        proc = _run(out)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        n_before = len(_load(out)["records"])
        proc = _run(out, extra=["--seed", "99"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "different settings" in proc.stdout
        assert _load(out)["meta"]["seed"] == 99
        assert len(_load(out)["records"]) == n_before  # fresh, not merged


class TestQuarantine:
    def test_tiny_timeout_quarantines_but_completes(self, tmp_path):
        """An absurd per-item budget must not hang or crash the campaign:
        slow items land in the checkpoint's quarantine list, the run
        still finishes and writes a complete, loadable document."""
        out = tmp_path / "faults.json"
        proc = subprocess.run(
            [sys.executable, str(TOOL),
             "--n", "8", "--networks", "prefix", "--faults", "control",
             "--max-faults", "10",
             "--item-timeout", "0.0005", "--item-retries", "0",
             "--out", str(out)],
            capture_output=True, text=True, env=_env(), timeout=300,
        )
        doc = _load(out)
        assert doc["meta"]["complete"] is True
        assert doc["quarantine"], proc.stdout + proc.stderr
        q = doc["quarantine"][0]
        assert q["id"] and "DeadlineExceeded" in q["error"] and q["attempts"] == 1
        # no overlap: an id is either a record or quarantined, never both
        rids = {r["id"] for r in doc["records"]}
        qids = {qq["id"] for qq in doc["quarantine"]}
        assert not (rids & qids)

    def test_generous_timeout_quarantines_nothing(self, tmp_path):
        out = tmp_path / "faults.json"
        proc = subprocess.run(
            [sys.executable, str(TOOL),
             "--n", "8", "--networks", "prefix", "--faults", "control",
             "--max-faults", "10",
             "--item-timeout", "120", "--item-retries", "1",
             "--out", str(out)],
            capture_output=True, text=True, env=_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = _load(out)
        assert doc["quarantine"] == []
        assert doc["records"]

    def test_quarantined_items_survive_resume(self, tmp_path):
        out = tmp_path / "faults.json"
        subprocess.run(
            [sys.executable, str(TOOL),
             "--n", "8", "--networks", "prefix", "--faults", "control",
             "--max-faults", "10",
             "--item-timeout", "0.0005", "--item-retries", "0",
             "--out", str(out)],
            capture_output=True, text=True, env=_env(), timeout=300,
        )
        quarantined = {q["id"] for q in _load(out)["quarantine"]}
        if not quarantined:  # pragma: no cover - machine too fast to trip
            pytest.skip("no item exceeded the tiny budget on this machine")
        # resume with the same settings: quarantined ids are not re-run
        proc = subprocess.run(
            [sys.executable, str(TOOL),
             "--n", "8", "--networks", "prefix", "--faults", "control",
             "--max-faults", "10",
             "--item-timeout", "0.0005", "--item-retries", "0",
             "--out", str(out)],
            capture_output=True, text=True, env=_env(), timeout=300,
        )
        assert "resuming" in proc.stdout
        doc = _load(out)
        assert {q["id"] for q in doc["quarantine"]} == quarantined
        assert not ({r["id"] for r in doc["records"]} & quarantined)


class TestSupervisedCampaign:
    def test_supervised_zero_silent_and_all_recovered(self, tmp_path):
        """Acceptance: with checkers attached, every steering fault is
        masked or detected (zero silent past the checkers, input-bus
        faults excepted) and every supervised sort recovers correctly."""
        out = tmp_path / "faults.json"
        proc = subprocess.run(
            [sys.executable, str(TOOL),
             "--n", "8", "--networks", "prefix,mux_merger",
             "--faults", "stuck,control",
             "--max-faults", "25", "--supervised",
             "--out", str(out)],
            capture_output=True, text=True, env=_env(), timeout=480,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = _load(out)
        assert doc["meta"]["supervised"] is True
        records = doc["records"]
        assert records
        for r in records:
            assert r["supervised_ok"] is True, r["id"]
            if not r["input_fault"]:
                assert r["supervised_outcome"] != "silent-corruption", r["id"]
        # the checkers strictly improve detection over the plain run
        plain = sum(1 for r in records if r["outcome"] == "detected")
        checked = sum(
            1 for r in records if r["supervised_outcome"] == "detected"
        )
        assert checked >= plain

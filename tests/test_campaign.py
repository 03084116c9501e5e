"""Unit tests for :class:`repro.parallel.Campaign`, the crash-safe driver
behind ``tools/fault_campaign.py`` and ``tools/soak.py``: checkpoint
shape and cadence, resume and the done filter, quarantine reporting,
and the final re-sort into enumeration order."""

import json

import pytest

import repro.obs as obs
from repro.parallel import Campaign, report_quarantine, run_items

META = {"version": 1, "seed": 7}


def _record(x):
    if x == "boom":
        raise ValueError("boom payload")
    return {"id": f"i{x}", "square": x * x}


def _items(xs):
    return [(f"i{x}", x) for x in xs]


def _load(path):
    return json.loads(path.read_text())


@pytest.fixture
def ring():
    obs.reset()
    obs.enable(activity=False)
    yield
    obs.reset()


class TestCheckpoint:
    def test_cadence_shape_and_completion_order(self, tmp_path):
        path = tmp_path / "c.json"
        camp = Campaign(path, META, "t", checkpoint_every=2,
                        extras={"note": {"n": 0}})
        assert camp.run(_items([3, 1, 2]), _record) == []
        # two outcomes made one checkpoint; the third is not written yet
        doc = _load(path)
        assert list(doc) == ["meta", "records", "quarantine", "note"]
        assert doc["meta"] == {**META, "complete": False}
        assert [r["id"] for r in doc["records"]] == ["i3", "i1"]
        camp.checkpoint()
        assert [r["id"] for r in _load(path)["records"]] == ["i3", "i1", "i2"]

    def test_on_record_edits_before_storing(self, tmp_path):
        camp = Campaign(tmp_path / "c.json", META, "t",
                        on_record=lambda r: r.pop("square"))
        camp.run(_items([2]), _record)
        assert camp.records == [{"id": "i2"}]

    def test_finish_sorts_into_enumeration_order(self, tmp_path):
        path = tmp_path / "c.json"
        camp = Campaign(path, META, "t")
        camp.run(_items([3, 1, 2]), _record)
        camp.sort(["i1", "i2", "i3"])
        camp.finish(records=camp.records, extra=1)
        doc = _load(path)
        assert list(doc) == ["meta", "records", "extra"]
        assert doc["meta"]["complete"] is True
        assert [r["id"] for r in doc["records"]] == ["i1", "i2", "i3"]

    def test_pool_and_serial_documents_are_byte_identical(self, tmp_path):
        docs = []
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.json"
            camp = Campaign(path, META, "t")
            items = _items(range(8))
            camp.run(items, _record, jobs=jobs)
            camp.sort(rid for rid, _ in items)
            camp.finish(records=camp.records, quarantine=camp.quarantine)
            docs.append(path.read_bytes())
        assert docs[0] == docs[1]


class TestResume:
    def test_resume_restores_records_quarantine_and_extras(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        first = Campaign(path, META, "t", extras={"tally": {"n": 0}})
        first.run(_items([1, "boom"]), _record)
        first.extras["tally"]["n"] = 5
        first.checkpoint()
        capsys.readouterr()

        again = Campaign(path, META, "t", extras={"tally": {"n": 0}})
        assert "resuming" in capsys.readouterr().out
        assert [r["id"] for r in again.records] == ["i1"]
        assert [q["id"] for q in again.quarantine] == ["iboom"]
        assert again.extras["tally"] == {"n": 5}
        assert again.pending(_items([1, "boom", 2])) == [("i2", 2)]

    def test_changed_meta_or_no_resume_starts_over(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        camp = Campaign(path, META, "t")
        camp.run(_items([1]), _record)
        camp.checkpoint()
        other = Campaign(path, dict(META, seed=8), "t")
        assert "different settings" in capsys.readouterr().out
        assert other.prior is None and other.records == []
        fresh = Campaign(path, META, "t", resume=False)
        assert fresh.prior is None and fresh.pending(_items([1])) == [("i1", 1)]

    def test_partial_document_of_another_shape_starts_over(self, tmp_path):
        """A partial document with matching meta but no records list
        (e.g. a per-cell chunk map) must not mark its quarantine done."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "meta": {**META, "complete": False},
            "chunks": {"a": {"0": {}}}, "quarantine": [{"id": "i1"}],
        }))
        camp = Campaign(path, META, "t")
        assert camp.prior is None and camp.pending(_items([1])) == [("i1", 1)]

    def test_complete_document_is_the_prior(self, tmp_path):
        path = tmp_path / "c.json"
        camp = Campaign(path, META, "t")
        camp.finish(verdict="PASS")
        again = Campaign(path, META, "t")
        assert again.prior["meta"]["complete"] is True
        assert again.prior["verdict"] == "PASS"


class TestQuarantine:
    def test_failed_item_is_reported_and_handed_back(self, tmp_path, capsys, ring):
        path = tmp_path / "c.json"
        camp = Campaign(path, META, "t")
        back = camp.run(_items([2, "boom", 3]), _record)
        assert back == [("iboom", "boom")]
        assert [r["id"] for r in camp.records] == ["i2", "i3"]
        (entry,) = camp.quarantine
        assert entry["id"] == "iboom" and "boom payload" in entry["error"]
        assert entry["attempts"] == 1 and "unguarded" not in entry
        assert "quarantined iboom" in capsys.readouterr().out
        events = [e for e in obs.ring_events() if e.get("name") == "t.quarantine"]
        assert len(events) == 1 and events[0]["attrs"]["item"] == "iboom"
        assert camp.pending(_items(["boom"])) == []

    def test_rerun_record_joins_the_same_checkpoint(self, tmp_path):
        """A caller may re-run a handed-back item before checkpointing:
        the id is then both a quarantine event and a record."""
        path = tmp_path / "c.json"
        camp = Campaign(path, META, "t")
        for rid, _payload in camp.run(_items(["boom"]), _record):
            camp.add({"id": rid, "square": None})
        camp.checkpoint()
        doc = _load(path)
        assert [r["id"] for r in doc["records"]] == ["iboom"]
        assert [q["id"] for q in doc["quarantine"]] == ["iboom"]

    def test_report_quarantine_matches_outcome_record(self, capsys):
        (outcome,) = run_items(_items(["boom"]), _record)
        assert report_quarantine("t", outcome) == outcome.quarantine_record()
        assert "quarantined iboom" in capsys.readouterr().out

"""Tests for the one checked-run path (repro.runtime.checked) and its gate.

* the acceptance gate ``accept_rows`` is sound: on 0/1 inputs, any row
  it accepts is exactly ``np.sort`` of the held input, whatever the
  output was (including monotone rows with the wrong ones count);
* ``run_checked`` returns correct rows on faulted hardware, counts the
  recovered rows, and names the rung that answered;
* the tier label names the backend that ran, and the jit rung is
  skipped without a detection above ``JIT_MAX_ELEMENTS``.
"""

import dataclasses
import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits import ControlInvert, StuckAt, apply_fault, control_wires
from repro.circuits import jit
from repro.circuits.checkers import accept_rows, with_checkers
from repro.core.api import make_sorter
from repro.ioutil import atomic_write_json, load_checkpoint
from repro.runtime import RecoveryPolicy, run_checked
from repro.serve import FabricExecutor


@st.composite
def _input_and_output(draw):
    width = draw(st.integers(1, 24))
    bits = st.lists(st.integers(0, 1), min_size=width, max_size=width)
    x = np.array(draw(bits), dtype=np.uint8)
    k = draw(st.integers(0, width))
    monotone = np.array([0] * (width - k) + [1] * k, dtype=np.uint8)
    y = draw(st.one_of(
        st.just(monotone),  # sorted shape, ones count often wrong
        st.just(np.sort(x)),
        bits.map(lambda v: np.array(v, dtype=np.uint8)),
        st.lists(st.integers(0, 255), min_size=width, max_size=width)
        .map(lambda v: np.array(v, dtype=np.uint8)),
    ))
    return x, y


class TestAcceptRows:
    @given(_input_and_output())
    def test_accepted_row_is_the_sorted_input(self, pair):
        x, y = pair
        ok = accept_rows(x[None], y[None])
        assert ok.shape == (1,)
        if ok[0]:
            assert np.array_equal(y, np.sort(x))

    @given(_input_and_output())
    def test_sorted_input_always_accepted_unless_alarmed(self, pair):
        x, _ = pair
        assert accept_rows(x[None], np.sort(x)[None]).all()
        assert not accept_rows(x[None], np.sort(x)[None], [True]).any()

    def test_shape_mismatch_rejects(self):
        x = np.zeros((2, 4), dtype=np.uint8)
        assert not accept_rows(x, x[:, :3]).any()


def _faulted_prefix8(fault):
    checked = with_checkers(make_sorter(8, "prefix"), control=True)
    return dataclasses.replace(checked, netlist=apply_fault(checked.netlist, fault))


def _rows(seed=0, lanes=64, width=8):
    return np.random.default_rng(seed).integers(0, 2, (lanes, width)).astype(np.uint8)


class TestRunChecked:
    def test_stuck_input_recovered_behaviorally(self):
        net = make_sorter(8, "prefix")
        hw = _faulted_prefix8(StuckAt(net.inputs[0], 1))
        rows = _rows()
        assert (rows[:, 0] == 0).any()  # some rows see the fault
        run = run_checked(hw, rows, RecoveryPolicy(max_retries=0))
        assert np.array_equal(run.data, np.sort(rows, axis=1))
        assert run.recovered == int((~run.accepted).sum()) > 0
        assert "invariant" in run.detections
        assert run.tier == "behavioral" and run.fell_back
        # rows that already held a 1 on the stuck wire stay on hardware
        assert run.accepted[rows[:, 0] == 1].all()

    def test_control_inversion_recovered(self):
        net = make_sorter(8, "prefix")
        wire = sorted(set(control_wires(net)) - set(net.inputs))[0]
        rows = _rows(seed=1)
        run = run_checked(_faulted_prefix8(ControlInvert(wire)), rows,
                          RecoveryPolicy(max_retries=0))
        assert np.array_equal(run.data, np.sort(rows, axis=1))
        assert run.recovered == int((~run.accepted).sum())
        assert run.alarms + run.invariant_fails >= run.recovered

    def test_healthy_batch_one_pass(self):
        hw = with_checkers(make_sorter(8, "prefix"))
        rows = _rows(seed=2)
        run = run_checked(hw, rows, RecoveryPolicy())
        assert np.array_equal(run.data, np.sort(rows, axis=1))
        assert run.accepted.all() and run.tier == "jit"
        assert (run.attempts, run.recovered, run.detections) == (1, 0, ())


class TestTierTruth:
    def test_serve_batch_reports_jit(self):
        rows = _rows(lanes=16, width=64)
        outcome = FabricExecutor().run_batch(64, rows)
        assert outcome.tier == "jit"
        assert np.array_equal(outcome.data, np.sort(rows, axis=1))

    def test_jit_rung_skipped_above_window(self, monkeypatch):
        hw = with_checkers(make_sorter(8, "prefix"))
        monkeypatch.setattr(jit, "JIT_MAX_ELEMENTS", len(hw.netlist.elements) - 1)
        rows = _rows(seed=3)
        run = run_checked(hw, rows, RecoveryPolicy())
        assert run.tier == "engine" and not run.fell_back
        assert run.detections == () and run.attempts == 1
        assert np.array_equal(run.data, np.sort(rows, axis=1))
        assert hw.netlist not in jit._JIT_CACHE  # nothing compiled


class TestLoadCheckpoint:
    def test_resume_only_same_settings(self, tmp_path, capsys):
        path = tmp_path / "ckpt.json"
        meta = {"version": 3, "seed": 1, "complete": False}
        assert load_checkpoint(path, meta, 3) is None  # no file yet
        atomic_write_json(path, {"meta": dict(meta, complete=True), "x": 1})
        assert load_checkpoint(path, meta, 3)["x"] == 1
        assert load_checkpoint(path, dict(meta, seed=2), 3) is None
        assert load_checkpoint(path, meta, 4) is None
        assert "starting over" in capsys.readouterr().out
        path.write_text("{truncated")
        assert load_checkpoint(path, meta, 3) is None
        path.write_text(json.dumps([1, 2]))
        assert load_checkpoint(path, meta, 3) is None

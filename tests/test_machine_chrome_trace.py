"""The Chrome-trace view of a real machine run, through the one exporter
(:func:`repro.obs.perfetto.build_trace`; its document format is pinned by
the golden file in ``test_obs_perfetto.py``)."""

import json

import pytest

from repro.machine.spec import dual_p100_nvlink
from repro.obs.perfetto import build_trace, save_trace
from repro.pipelines import simulate


@pytest.fixture
def traced():
    return simulate("fft1d", 1 << 16, dual_p100_nvlink())


def _ops(doc):
    """One duration event per ledger op (receiver-side mirrors dropped)."""
    return [e for e in doc["traceEvents"]
            if e["ph"] == "X" and "rx_of" not in e["args"]]


class TestChromeTrace:
    def test_event_per_op(self, traced):
        doc = build_trace(traced.ledger, traced.spec)
        assert len(_ops(doc)) == len(traced.ledger)

    def test_event_schema(self, traced):
        ev = _ops(build_trace(traced.ledger, traced.spec))[0]
        assert set(ev) >= {"name", "cat", "pid", "tid", "ts", "dur", "args"}

    def test_timestamps_microseconds(self, traced):
        ops = {e["args"]["uid"]: e for e in _ops(build_trace(traced.ledger))}
        for r in traced.ledger:
            assert ops[r.uid]["ts"] == pytest.approx(r.start * 1e6)
            assert ops[r.uid]["dur"] == pytest.approx(r.duration * 1e6)

    def test_pids_are_devices(self, traced):
        assert {e["pid"] for e in _ops(build_trace(traced.ledger))} == {0, 1}

    def test_streams_get_distinct_tids(self, traced):
        doc = build_trace(traced.ledger, traced.spec)
        tracks = [(e["pid"], e["tid"], e["args"]["name"])
                  for e in doc["traceEvents"]
                  if e["ph"] == "M" and e["name"] == "thread_name"]
        # each (device, engine) maps to exactly one tid, and back
        assert len({(p, t) for p, t, _ in tracks}) == len(tracks)
        assert len({(p, n) for p, _, n in tracks}) == len(tracks)
        assert {(e["pid"], e["tid"]) for e in _ops(doc)} <= {
            (p, t) for p, t, _ in tracks}

    def test_save_loads_as_json(self, traced, tmp_path):
        path = save_trace(tmp_path / "trace.json", traced.ledger, traced.spec)
        doc = json.loads(path.read_text())
        assert len(_ops(doc)) == len(traced.ledger)

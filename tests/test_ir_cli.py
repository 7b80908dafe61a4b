"""CLI surfaces of the IR subsystem: ``repro ir`` and ``repro verify --ir``."""

from __future__ import annotations

import json

from repro.cli import main
from repro.pipelines import NAMES


class TestIrCommand:
    def test_single_pipeline_table(self, capsys):
        rc = main(["ir", "--pipeline", "fft1d", "--n", "2^10",
                   "--system", "2xP100", "--repeats", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "IR capture/replay" in out
        assert "fft1d" in out
        for col in ("nodes", "records", "fused", "peak live/dev",
                    "capture [ms]", "replay [ms]", "host speedup"):
            assert col in out

    def test_nufft_falls_back_to_single_device(self, capsys):
        rc = main(["ir", "--pipeline", "nufft", "--n", "2^8",
                   "--system", "2xP100", "--repeats", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "nufft" in out

    def test_json_payload(self, capsys, tmp_path):
        path = tmp_path / "ir.json"
        rc = main(["ir", "--pipeline", "fft1d", "--n", "2^10",
                   "--system", "2xP100", "--repeats", "1",
                   "--json", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["system"] == "2xP100"
        assert payload["n"] == 1024
        (row,) = payload["pipelines"]
        assert row["pipeline"] == "fft1d"
        assert row["nodes"] > 0
        assert row["records_per_replay"] > 0
        assert row["peak_live_bytes"] > 0
        assert row["capture_s"] > 0 and row["replay_s"] > 0

    def test_comm_algorithm_knob(self, capsys):
        rc = main(["ir", "--pipeline", "fft1d", "--n", "2^10",
                   "--system", "2xP100", "--comm", "ring", "--repeats", "1"])
        assert rc == 0
        assert "ring" in capsys.readouterr().out


class TestVerifyIr:
    def test_verify_ir_table_and_exit_code(self, capsys, tmp_path):
        path = tmp_path / "findings.json"
        rc = main(["verify", "--ir", "--ir-n", "2^12", "--g-list", "2",
                   "--json", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "IR graph preallocation" in out
        for name in NAMES:
            assert name in out
        assert "certified" in out
        doc = json.loads(path.read_text())
        assert doc["findings"] == []

    def test_verify_without_ir_unchanged(self, capsys):
        rc = main(["verify", "--g-list", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "IR graph preallocation" not in out

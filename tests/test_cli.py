import pytest

from repro.cli import _parse_size, build_parser, main


class TestParseSize:
    @pytest.mark.parametrize("s,expected", [
        ("4096", 4096), ("2^12", 4096), ("2**12", 4096), (" 2^4 ", 16),
    ])
    def test_forms(self, s, expected):
        assert _parse_size(s) == expected


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--system", "9xH100"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "2xP100" in out and "8xP100" in out

    def test_transform_meets_tolerance(self, capsys):
        rc = main(["transform", "--n", "2^12", "--tolerance", "1e-9"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "relative l2 error" in out

    def test_transform_explicit_q(self, capsys):
        rc = main(["transform", "--n", "2^12", "--q", "16", "--tolerance", "1e-12"])
        assert rc == 0

    def test_transform_fails_impossible_tolerance_q(self, capsys):
        rc = main(["transform", "--n", "2^12", "--q", "4", "--tolerance", "1e-14"])
        assert rc == 1

    def test_search(self, capsys):
        assert main(["search", "--n", "2^16", "--system", "2xP100"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "fastest" in out

    def test_speedup_sweep(self, capsys):
        assert main(["speedup", "--system", "2xK40c", "--min", "14", "--max", "16"]) == 0
        out = capsys.readouterr().out
        assert "14" in out and "16" in out

    def test_profile_fmmfft(self, capsys):
        assert main(["profile", "--n", "2^18", "--system", "2xP100", "--width", "60"]) == 0
        out = capsys.readouterr().out
        assert "dev0:" in out and "legend" in out

    def test_profile_baseline(self, capsys):
        assert main(["profile", "--n", "2^18", "--baseline", "--width", "60"]) == 0
        out = capsys.readouterr().out
        assert "transpose" in out

    def test_model(self, capsys):
        assert main(["model", "--n", "2^18"]) == 0
        out = capsys.readouterr().out
        assert "FMM stage model" in out and "model speedup" in out

    def test_energy(self, capsys):
        assert main(["energy", "--n", "2^20", "--system", "8xP100"]) == 0
        out = capsys.readouterr().out
        assert "energy ratio" in out

    def test_multinode(self, capsys):
        assert main(["multinode", "--n", "2^18"]) == 0
        out = capsys.readouterr().out
        assert "Multi-node projection" in out

    def test_multinode_beyond_32_devices(self, capsys):
        # 8 nodes x 8 GPUs: 64 devices, past the paper's B <= 5 grid
        assert main(["multinode", "--n", "2^24", "--gpus-per-node", "8"]) == 0
        assert "\n8     | 64 |" in capsys.readouterr().out

    def test_tune_roundtrip(self, capsys, tmp_path):
        wisdom = str(tmp_path / "w.json")
        assert main(["tune", "--min", "14", "--max", "15", "--wisdom", wisdom]) == 0
        # second run hits the cache and keeps the same entries
        assert main(["tune", "--min", "14", "--max", "15", "--wisdom", wisdom]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out

    def test_tune_feeds_serve(self, capsys, tmp_path):
        """The file ``tune`` writes is the one ``serve --wisdom`` reads:
        a tuned service starts warm and searches nothing."""
        import json

        wisdom, doc = str(tmp_path / "w.json"), tmp_path / "run.json"
        assert main(["tune", "--system", "8xP100", "--min", "16",
                     "--max", "18", "--wisdom", wisdom]) == 0
        assert main(["serve", "--requests", "12", "--wisdom", wisdom,
                     "--json", str(doc)]) == 0
        rep = json.loads(doc.read_text())["report"]
        assert rep["searches"] == 0 and rep["wisdom_misses"] == 0
        assert rep["wisdom_hits"] > 0

    def test_trace_export(self, capsys, tmp_path):
        import json

        from repro.obs import validate_trace

        out_file = tmp_path / "t.json"
        assert main(["trace", "--n", "2^16", "--out", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["traceEvents"] and validate_trace(doc) == []

    def test_metrics_fmmfft(self, capsys, tmp_path):
        import json

        from repro.obs import validate_trace

        j = tmp_path / "m.json"
        t = tmp_path / "t.json"
        assert main(["metrics", "--pipeline", "fmmfft", "--n", "2^18",
                     "--json", str(j), "--trace-out", str(t)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out and "hidden frac" in out
        assert "Sec. 5" in out  # the model join table
        payload = json.loads(j.read_text())
        assert payload["critical_path_length"] == pytest.approx(
            payload["wall_time"], abs=1e-9
        )
        assert 0.0 < payload["overlap_fraction"] <= 1.0
        assert validate_trace(json.loads(t.read_text())) == []

    def test_metrics_baseline_pipeline(self, capsys):
        assert main(["metrics", "--pipeline", "fft1d", "--n", "2^16"]) == 0
        out = capsys.readouterr().out
        assert "fft1d/" in out  # regioned rollup

    def test_profile_devices_filter(self, capsys):
        assert main(["profile", "--n", "2^18", "--devices", "0",
                     "--width", "60"]) == 0
        out = capsys.readouterr().out
        assert "dev0:" in out and "dev1:" not in out

    def test_profile_trace_out(self, capsys, tmp_path):
        import json

        from repro.obs import validate_trace

        t = tmp_path / "t.json"
        assert main(["profile", "--n", "2^18", "--width", "60",
                     "--trace-out", str(t)]) == 0
        assert validate_trace(json.loads(t.read_text())) == []

    def test_transform_trace_out(self, capsys, tmp_path):
        import json

        from repro.obs import validate_trace

        t = tmp_path / "t.json"
        rc = main(["transform", "--n", "2^12", "--tolerance", "1e-9",
                   "--trace-out", str(t)])
        assert rc == 0
        assert validate_trace(json.loads(t.read_text())) == []


class TestServeCommand:
    ARGS = ["serve", "--system", "2xP100", "--requests", "8",
            "--rate", "5000", "--sizes", "2^14"]

    def test_serve_reports_percentiles(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        for token in ("p50", "p95", "p99", "throughput", "plan cache"):
            assert token in out

    def test_serve_wisdom_warm_start_skips_search(self, capsys, tmp_path):
        import json

        wisdom = str(tmp_path / "w.json")
        j = str(tmp_path / "rep.json")
        assert main(self.ARGS + ["--wisdom", wisdom]) == 0
        cold = capsys.readouterr().out
        assert "1 searches" in cold
        assert main(self.ARGS + ["--wisdom", wisdom, "--json", j]) == 0
        warm = capsys.readouterr().out
        assert "0 searches" in warm
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["kind"] == "serve-run" and doc["version"] == 1
        rep = doc["report"]
        assert rep["searches"] == 0 and rep["wisdom_misses"] == 0
        # the snapshot rides along with the cache counters mirrored
        names = {row["name"] for row in doc["telemetry"]["series"]}
        assert "cache.plan_hit" in names and "serve.request_latency" in names
        assert "cache.search" not in names  # warm start never searched

    def test_serve_sanitize_and_trace(self, capsys, tmp_path):
        import json

        from repro.obs import validate_trace

        t = tmp_path / "t.json"
        assert main(self.ARGS + ["--sanitize", "--trace-out", str(t)]) == 0
        out = capsys.readouterr().out
        assert "hazard-free" in out
        doc = json.loads(t.read_text())
        assert validate_trace(doc) == []
        assert any(e.get("args", {}).get("name") == "serve"
                   for e in doc["traceEvents"])

    def test_serve_no_batching(self, capsys):
        assert main(self.ARGS + ["--no-batching"]) == 0
        out = capsys.readouterr().out
        assert "mean size 1.00" in out

    def test_metrics_serve_pipeline(self, capsys):
        assert main(["metrics", "--pipeline", "serve", "--system", "2xP100"]) == 0
        out = capsys.readouterr().out
        assert "serve latency / throughput" in out
        assert "p99" in out and "serve/" in out  # regioned rollup too


class TestTopCommand:
    ARGS = ["top", "--system", "2xP100", "--requests", "8",
            "--rate", "5000", "--sizes", "2^14"]

    def test_top_live_dashboard(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        for token in ("repro top", "queue depth", "plan cache",
                      "slo burn rate"):
            assert token in out

    def test_top_replay_matches_serve_json(self, capsys, tmp_path):
        """`repro top --replay` of a serve --json doc renders the same
        dashboard the equivalent live run prints."""
        j = str(tmp_path / "run.json")
        serve_args = ["serve"] + self.ARGS[1:] + ["--json", j]
        assert main(serve_args) == 0
        capsys.readouterr()
        out_file = tmp_path / "top.txt"
        assert main(["top", "--replay", j, "--out", str(out_file)]) == 0
        live = capsys.readouterr().out
        assert "repro top" in live
        # --out captures exactly what was printed (plus trailing newline)
        assert out_file.read_text().rstrip("\n") in live

    def test_top_replay_rejects_non_telemetry_json(self, tmp_path):
        import json

        p = tmp_path / "bogus.json"
        p.write_text(json.dumps({"kind": "something-else"}))
        from repro.util.validation import ParameterError

        with pytest.raises(ParameterError):
            main(["top", "--replay", str(p)])


class TestChaosJson:
    def test_chaos_json_is_a_serve_run_doc(self, capsys, tmp_path):
        import json

        j = tmp_path / "chaos.json"
        assert main(["chaos", "--system", "2xP100", "--requests", "8",
                     "--rate", "5000", "--sizes", "2^14",
                     "--json", str(j)]) == 0
        doc = json.loads(j.read_text())
        assert doc["kind"] == "serve-run" and doc["version"] == 1
        assert doc["report"]["completed"] > 0
        assert {row["name"] for row in doc["telemetry"]["series"]}
        assert "objectives" in doc["slo"]


class TestVerifyCommand:
    def test_verify_small_matrix_certifies(self, capsys):
        rc = main(["verify", "--g-list", "2,4", "--no-degraded"])
        assert rc == 0
        out = capsys.readouterr().out
        for token in ("algorithm", "verdict", "certified", "plans certified"):
            assert token in out
        assert "FAIL" not in out

    def test_verify_json_findings_doc(self, capsys, tmp_path):
        from repro.analysis.findings import load_findings

        j = tmp_path / "verify.json"
        rc = main(["verify", "--g-list", "2", "--no-degraded",
                   "--json", str(j)])
        assert rc == 0
        doc = load_findings(j)
        assert doc["kind"] == "analysis-findings"
        assert doc["count"] == 0

    def test_analyze_json_findings_doc(self, capsys, tmp_path):
        from repro.analysis.findings import load_findings

        j = tmp_path / "analyze.json"
        rc = main(["analyze", "--pipeline", "fft1d", "--n", "2^12",
                   "--system", "2xP100", "--json", str(j)])
        assert rc == 0
        doc = load_findings(j)
        assert doc["kind"] == "analysis-findings"
        assert doc["count"] == 0

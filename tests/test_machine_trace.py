import numpy as np
import pytest

from repro.machine.cluster import VirtualCluster
from repro.machine.spec import dual_p100_nvlink


@pytest.fixture
def traced_cluster():
    cl = VirtualCluster(dual_p100_nvlink())
    e = cl.launch(0, "S2M", "batched_gemm", 1e9, 1e6, np.float64)
    cl.sendrecv(0, 1, 1e7, "COMM-S", after=[e])
    cl.launch(1, "S2T", "custom", 1e9, 1e6, np.float64)
    cl.alltoall(1e7, "COMM-MB")
    return cl


class TestProfile:
    def test_contains_devices_and_streams(self, traced_cluster):
        out = traced_cluster.trace().render_profile(width=60)
        assert "dev0:" in out and "dev1:" in out
        assert "compute" in out

    def test_comm_marked_with_tilde(self, traced_cluster):
        out = traced_cluster.trace().render_profile(width=60)
        assert "~" in out

    def test_legend(self, traced_cluster):
        out = traced_cluster.trace().render_profile(width=60)
        assert "legend:" in out
        assert "S=S2M" in out

    def test_device_filter(self, traced_cluster):
        out = traced_cluster.trace().render_profile(width=60, devices=[0])
        assert "dev1:" not in out

    def test_wall_time_positive(self, traced_cluster):
        assert traced_cluster.trace().wall_time() > 0


class TestSummary:
    def test_stage_summary_rows(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--n", "2^16", "--width", "60"]) == 0
        text = capsys.readouterr().out.split("Per-stage rollup (by name)")[1]
        assert "S2M" in text and "S2T" in text and "COMM-MB" in text

    def test_compute_vs_comm_split(self, traced_cluster):
        tr = traced_cluster.trace()
        assert tr.compute_time() > 0
        assert tr.comm_time() > 0

    def test_per_device_filter(self, traced_cluster):
        tr = traced_cluster.trace()
        assert tr.compute_time(0) > 0
        assert tr.compute_time(0) != tr.compute_time()


class TestProfileEdgeCases:
    def test_empty_ledger_renders(self):
        from repro.machine.ledger import Ledger
        from repro.machine.trace import ExecutionTrace

        tr = ExecutionTrace(Ledger(), dual_p100_nvlink())
        out = tr.render_profile(width=60)
        assert isinstance(out, str)
        assert tr.wall_time() == 0.0

    def test_single_device(self):
        from repro.machine.spec import p100_nvlink_node

        cl = VirtualCluster(p100_nvlink_node(1), execute=False)
        cl.launch(0, "S2M", "batched_gemm", 1e9, 1e6, np.float64)
        out = cl.trace().render_profile(width=60)
        assert "dev0" in out
        assert "dev1" not in out

    def test_zero_duration_op_renders(self):
        cl = VirtualCluster(dual_p100_nvlink(), execute=False)
        cl.launch(0, "S2M", "batched_gemm", 1e9, 1e6, np.float64)
        cl.host_op(0, "noop", lambda devs: None)
        out = cl.trace().render_profile(width=60)
        assert "S2M"[0] in out

    def test_hazards_accessor(self, traced_cluster):
        rep = traced_cluster.trace().hazards()
        assert rep.ok
        assert rep.num_ops == len(traced_cluster.ledger)

import dataclasses

import numpy as np
import pytest

from repro.machine.spec import (
    K40C,
    P100,
    ClusterSpec,
    DeviceSpec,
    LinkSpec,
    dgx1_p100,
    dual_k40c_pcie,
    dual_p100_nvlink,
    p100_nvlink_node,
    preset,
    scaled,
)
from repro.machine import topology as topo
from repro.machine.graph import Graph
from repro.util.validation import ParameterError


class TestDeviceSpec:
    def test_paper_parameters(self):
        # Section 5.4's practical architecture parameters
        assert K40C.gamma_f == pytest.approx(2.8e12)
        assert K40C.gamma_d == pytest.approx(1.2e12)
        assert K40C.beta == pytest.approx(100e9)
        assert P100.gamma_f == pytest.approx(10e12)
        assert P100.gamma_d == pytest.approx(5e12)
        assert P100.beta == pytest.approx(360e9)

    def test_gamma_by_dtype(self):
        assert P100.gamma(np.float32) == P100.gamma_f
        assert P100.gamma(np.complex64) == P100.gamma_f
        assert P100.gamma(np.float64) == P100.gamma_d
        assert P100.gamma(np.complex128) == P100.gamma_d

    def test_gamma_rejects_int(self):
        with pytest.raises(ParameterError):
            P100.gamma(np.int32)

    def test_rejects_bad_derate(self):
        with pytest.raises(ParameterError):
            DeviceSpec(name="x", gamma_f=1, gamma_d=1, beta=1, batched_gemm_derate=1.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            DeviceSpec(name="x", gamma_f=0, gamma_d=1, beta=1)


class TestLinkSpec:
    def test_paper_p2p(self):
        assert dual_k40c_pcie().pair_bandwidth(0, 1) == pytest.approx(13.2e9)
        assert dual_p100_nvlink().pair_bandwidth(0, 1) == pytest.approx(36e9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            LinkSpec(bandwidth=0)


class TestClusterSpec:
    def test_presets(self):
        assert preset("2xK40c").num_devices == 2
        assert preset("2xP100").num_devices == 2
        assert preset("8xP100").num_devices == 8

    def test_unknown_preset(self):
        with pytest.raises(ParameterError):
            preset("3xV100")

    def test_node_scaling(self):
        for G in (1, 2, 4, 8):
            assert p100_nvlink_node(G).num_devices == G

    def test_node_scaling_rejects(self):
        with pytest.raises(ParameterError):
            p100_nvlink_node(3)

    def test_dgx1_degree(self):
        spec = dgx1_p100()
        assert all(d == 4 for _, d in spec.graph.degree())

    def test_fallback_pair_bandwidth(self):
        spec = dgx1_p100()
        # 0 and 6 are not NVLink-adjacent -> PCIe fallback
        assert not spec.graph.has_edge(0, 6)
        assert spec.pair_bandwidth(0, 6) == pytest.approx(topo.DEFAULT_FALLBACK_BANDWIDTH)

    def test_alltoall_scaling_poorly_at_8(self):
        """Per-device injection bw at G=8 is below G=2's (Section 6.1)."""
        assert dgx1_p100().alltoall_bandwidth() < dual_p100_nvlink().alltoall_bandwidth()

    def test_nodes_must_be_contiguous(self):
        g = Graph()
        g.add_nodes_from([0, 2])
        g.add_edge(0, 2, link=LinkSpec(1e9))
        with pytest.raises(ParameterError):
            ClusterSpec(device=P100, num_devices=2, graph=g, name="bad")

    @staticmethod
    def _islands():
        """Devices {0, 1} and {2, 3}, no edge between the pairs."""
        g = Graph()
        g.add_nodes_from(range(4))
        g.add_edge(0, 1, link=LinkSpec(1e9))
        g.add_edge(2, 3, link=LinkSpec(1e9))
        return g

    def test_islands_without_fallback_rejected(self):
        with pytest.raises(ParameterError, match="must be connected"):
            ClusterSpec(device=P100, num_devices=4, graph=self._islands(),
                        name="bad")

    def test_islands_joined_by_fallback_accepted(self):
        g = self._islands()
        g.graph["fallback_link"] = LinkSpec(1e9)
        spec = ClusterSpec(device=P100, num_devices=4, graph=g, name="ok")
        assert spec.pair_bandwidth(0, 2) == pytest.approx(1e9)

    def test_single_device_latency_zero(self):
        assert p100_nvlink_node(1).comm_latency() == 0.0

    def test_dgx1_latency_includes_fallback(self):
        assert dgx1_p100().comm_latency() >= topo.DEFAULT_FALLBACK_LATENCY

    def test_scaled_override(self):
        s = scaled(dual_p100_nvlink(), beta=720e9)
        assert s.device.beta == pytest.approx(720e9)
        assert s.num_devices == 2

    def test_link_accessor(self):
        spec = dual_p100_nvlink()
        assert spec.link(0, 1).bandwidth == pytest.approx(36e9)
        with pytest.raises(ParameterError):
            dgx1_p100().link(0, 6)

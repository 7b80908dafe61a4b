import pytest

from repro.machine.graph import Graph
from repro.machine.spec import LinkSpec
from repro.machine import topology as topo
from repro.util.validation import ParameterError

LINK = LinkSpec(bandwidth=36e9, latency=8e-6)


class TestGraphBuilders:
    def test_fully_connected(self):
        g = topo.fully_connected(4, LINK)
        assert g.number_of_edges() == 6
        assert "fallback_link" in g.graph

    def test_ring(self):
        g = topo.ring(5, LINK)
        assert g.number_of_edges() == 5
        assert all(d == 2 for _, d in g.degree())

    def test_quad_is_fully_connected(self):
        g = topo.nvlink_quad(LINK)
        assert g.number_of_edges() == 6

    def test_hcm_structure(self):
        g = topo.dgx1_hybrid_cube_mesh(LINK)
        assert g.number_of_nodes() == 8
        assert all(d == 4 for _, d in g.degree())
        # cube edges pair the quads
        for a in range(4):
            assert g.has_edge(a, a + 4)
        # exactly 3 non-adjacent peers per GPU
        for a in range(8):
            assert sum(1 for b in range(8) if b != a and not g.has_edge(a, b)) == 3


class TestPairBandwidth:
    def test_direct(self):
        g = topo.fully_connected(2, LINK)
        assert topo.pair_bandwidth(g, 0, 1) == pytest.approx(36e9)

    def test_fallback(self):
        g = topo.dgx1_hybrid_cube_mesh(LINK)
        assert topo.pair_bandwidth(g, 0, 6) == pytest.approx(
            topo.DEFAULT_FALLBACK_BANDWIDTH
        )

    def test_same_device_rejected(self):
        g = topo.fully_connected(2, LINK)
        with pytest.raises(ParameterError):
            topo.pair_bandwidth(g, 1, 1)

    def test_pair_latency(self):
        g = topo.dgx1_hybrid_cube_mesh(LINK)
        assert topo.pair_latency(g, 0, 1) == pytest.approx(8e-6)
        assert topo.pair_latency(g, 0, 6) == pytest.approx(topo.DEFAULT_FALLBACK_LATENCY)


class TestAllToAll:
    def test_pair_at_full_efficiency(self):
        g = topo.fully_connected(2, LINK)
        bw = topo.alltoall_effective_bandwidth(g, efficiency=1.0)
        assert bw == pytest.approx(36e9)

    def test_default_efficiency_applied(self):
        g = topo.fully_connected(2, LINK)
        assert topo.alltoall_effective_bandwidth(g) == pytest.approx(
            36e9 * topo.ALLTOALL_EFFICIENCY
        )

    def test_hcm_limited_by_fallback(self):
        g = topo.dgx1_hybrid_cube_mesh(LINK)
        bw = topo.alltoall_effective_bandwidth(g, efficiency=1.0)
        # 3 fallback peers serialize through 10 GB/s: 7 / (3/10e9)
        assert bw == pytest.approx(7 / (3 / topo.DEFAULT_FALLBACK_BANDWIDTH))

    def test_quad_aggregates_links(self):
        g = topo.nvlink_quad(LINK)
        bw = topo.alltoall_effective_bandwidth(g, efficiency=1.0)
        assert bw == pytest.approx(3 * 36e9)

    def test_needs_two_devices(self):
        g = topo.fully_connected(1, LINK)
        with pytest.raises(ParameterError):
            topo.alltoall_effective_bandwidth(g)

    def test_bad_efficiency(self):
        g = topo.fully_connected(2, LINK)
        with pytest.raises(ParameterError):
            topo.alltoall_effective_bandwidth(g, efficiency=0.0)

    def test_missing_fallback_raises(self):
        g = Graph()
        g.add_edge(0, 1, link=LINK)
        with pytest.raises(ParameterError):
            topo.fallback_link(g)


class TestDiameterLatency:
    def test_single(self):
        assert topo.diameter_latency(topo.fully_connected(1, LINK)) == 0.0

    def test_pair(self):
        assert topo.diameter_latency(topo.fully_connected(2, LINK)) == pytest.approx(8e-6)

    def test_hcm_worst_is_fallback(self):
        g = topo.dgx1_hybrid_cube_mesh(LINK)
        assert topo.diameter_latency(g) == pytest.approx(topo.DEFAULT_FALLBACK_LATENCY)

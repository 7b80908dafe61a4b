import numpy as np
import pytest

from repro.core.distributed import FmmFftDistributed
from repro.core.plan import FmmFftPlan
from repro.machine.cluster import VirtualCluster
from repro.machine.multinode import DEFAULT_NIC, multinode_graph, multinode_p100
from repro.machine.spec import NVLINK_P100_LINK
from repro.model.search import find_fastest
from repro.pipelines import simulate
from repro.util.prng import random_signal
from repro.util.validation import ParameterError


class TestGraph:
    def test_structure(self):
        g = multinode_graph(2, 4, NVLINK_P100_LINK, DEFAULT_NIC)
        assert g.number_of_nodes() == 8
        # intra-node complete, no inter-node edges
        assert g.has_edge(0, 3)
        assert not g.has_edge(3, 4)
        assert g.graph["node_of"][5] == 1

    def test_spec_fields(self):
        spec = multinode_p100(2, gpus_per_node=4)
        assert spec.num_devices == 8
        assert "IB" in spec.name

    def test_rejects_zero_nodes(self):
        with pytest.raises(ParameterError):
            multinode_p100(0)


class TestBandwidths:
    def test_intra_node_pair_is_nvlink(self):
        spec = multinode_p100(2, 4)
        assert spec.pair_bandwidth(0, 1) == pytest.approx(36e9)

    def test_inter_node_pair_is_nic(self):
        spec = multinode_p100(2, 4)
        assert spec.pair_bandwidth(0, 4) == pytest.approx(DEFAULT_NIC.bandwidth)

    def test_alltoall_nic_bound(self):
        """Off-node traffic serializes through the per-node NIC."""
        one = multinode_p100(1, 4)
        two = multinode_p100(2, 4)
        assert two.alltoall_bandwidth() < 0.2 * one.alltoall_bandwidth()

    def test_more_nodes_weaker_alltoall(self):
        bw = [multinode_p100(n, 4).alltoall_bandwidth() for n in (2, 4, 8)]
        assert bw[0] > bw[1] > bw[2]


class TestNumerics:
    def test_distributed_fmmfft_correct_across_nodes(self):
        """Real numerics on a 2-node (8-device) cluster."""
        N = 1 << 13
        plan = FmmFftPlan.create(N=N, P=32, ML=16, B=3, Q=16, G=8)
        cl = VirtualCluster(multinode_p100(2, 4))
        x = random_signal(N, seed=5)
        out = FmmFftDistributed(plan, cl).run(x)
        ref = np.fft.fft(x)
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 2e-14


class TestPaperPrediction:
    def test_relative_performance_improves_across_nodes(self):
        """Section 7: 'the performance on multiple nodes is very likely
        to improve relative performance ... due to higher internode
        communication costs.'"""
        N = 1 << 24
        single = find_fastest(N, multinode_p100(1, 4))
        double = find_fastest(N, multinode_p100(2, 4))
        assert double.speedup > 1.5 * single.speedup
        assert double.speedup > 2.0

    def test_speedup_approaches_comm_reduction_limit(self):
        """On a NIC-bound fabric the FMM-FFT approaches the 3x
        communication-reduction ceiling."""
        r = find_fastest(1 << 26, multinode_p100(4, 4))
        assert 2.2 < r.speedup < 3.2

    def test_baseline_collapses_with_nodes(self):
        N = 1 << 24
        t1 = simulate("fft1d", N, multinode_p100(1, 4)).wall_time()
        t2 = simulate("fft1d", N, multinode_p100(2, 4)).wall_time()
        assert t2 > 3.0 * t1  # more devices, *much* slower baseline

"""The fused M2L+L2L execution path (Section 5.3's suggested fusion)."""

import numpy as np
import pytest

from repro.fmm.distributed import DistributedFMM
from repro.fmm.plan import FmmGeometry, FmmOperators
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import dual_p100_nvlink, p100_nvlink_node


def _pair(G, M=512, P=8, ML=16, B=3, Q=16, rng=None):
    ops = FmmOperators.create(M=M, P=P, ML=ML, B=B, Q=Q, G=G)
    S = rng.uniform(-1, 1, (P, M)) + 1j * rng.uniform(-1, 1, (P, M))
    cl_s = VirtualCluster(p100_nvlink_node(G))
    d_s = DistributedFMM(ops, cl_s)
    d_s.run(S)
    cl_f = VirtualCluster(p100_nvlink_node(G))
    d_f = DistributedFMM(ops, cl_f, fuse_m2l_l2l=True)
    d_f.run(S)
    return (cl_s, d_s), (cl_f, d_f)


class TestFusion:
    @pytest.mark.parametrize("G", [1, 2, 4])
    def test_identical_numerics(self, G, rng):
        (cl_s, d_s), (cl_f, d_f) = _pair(G, rng=rng)
        np.testing.assert_array_equal(d_s.finalize(), d_f.finalize())

    def test_fewer_launches(self, rng):
        (cl_s, _), (cl_f, _) = _pair(2, rng=rng)
        # L - B = 2 levels: 2 M2L + 2 L2L become 2 fused kernels
        assert cl_f.ledger.launch_count(device=0) == cl_s.ledger.launch_count(device=0) - 2

    def test_fewer_memory_ops(self, rng):
        (cl_s, _), (cl_f, _) = _pair(2, rng=rng)
        assert cl_f.ledger.total("mops") < cl_s.ledger.total("mops")

    def test_same_comm(self, rng):
        (cl_s, _), (cl_f, _) = _pair(2, rng=rng)
        assert cl_f.ledger.total("comm_bytes") == pytest.approx(
            cl_s.ledger.total("comm_bytes")
        )

    def test_same_total_flops(self, rng):
        (cl_s, _), (cl_f, _) = _pair(2, rng=rng)
        assert cl_f.ledger.total("flops") == pytest.approx(cl_s.ledger.total("flops"))

    def test_timing_only_mode(self):
        geom = FmmGeometry.create(M=1 << 16, P=64, ML=64, B=3, Q=16, G=2)
        cl_s = VirtualCluster(dual_p100_nvlink(), execute=False)
        DistributedFMM(geom, cl_s).run(staged=True)
        cl_f = VirtualCluster(dual_p100_nvlink(), execute=False)
        DistributedFMM(geom, cl_f, fuse_m2l_l2l=True).run(staged=True)
        assert cl_f.wall_time() <= cl_s.wall_time()

    def test_fused_kernel_names(self, rng):
        (_, _), (cl_f, _) = _pair(2, rng=rng)
        names = set(cl_f.ledger.time_by_name())
        assert any(n.startswith("M2L+L2L-") for n in names)
        assert not any(n.startswith("L2L-") for n in names)

    def test_l_equals_b_degenerates(self, rng):
        """No hierarchical levels: fusion has nothing to fuse."""
        ops = FmmOperators.create(M=128, P=8, ML=16, B=3, Q=16, G=2)
        S = rng.uniform(-1, 1, (8, 128)) + 0j
        cl = VirtualCluster(p100_nvlink_node(2))
        d = DistributedFMM(ops, cl, fuse_m2l_l2l=True)
        d.run(S)
        ref_ops = FmmOperators.create(M=128, P=8, ML=16, B=3, Q=16)
        from repro.fmm.batched import BatchedFMM

        Tref, _ = BatchedFMM(ref_ops).apply(S)
        assert np.linalg.norm(d.finalize() - Tref) / np.linalg.norm(Tref) < 1e-13

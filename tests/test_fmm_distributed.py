import numpy as np
import pytest

from repro.fmm.batched import BatchedFMM
from repro.fmm.distributed import DistributedFMM
from repro.fmm.plan import FmmGeometry, FmmOperators
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import p100_nvlink_node
from repro.model.comm import fmm_comm_bytes
from repro.model.flops import fmm_stage_flops
from repro.util.validation import ParameterError


def _signal(P, M, rng):
    return rng.uniform(-1, 1, (P, M)) + 1j * rng.uniform(-1, 1, (P, M))


def _run(G, M=512, P=8, ML=16, B=3, Q=16, rng=None, execute=True):
    ops = FmmOperators.create(M=M, P=P, ML=ML, B=B, Q=Q, G=G)
    cl = VirtualCluster(p100_nvlink_node(G), execute=execute)
    dfmm = DistributedFMM(ops, cl)
    if execute:
        S = _signal(P, M, rng)
        evs, r = dfmm.run(S)
        return cl, dfmm, S, r
    dfmm.run(staged=True)
    return cl, dfmm, None, None


class TestMatchesBatched:
    @pytest.mark.parametrize("G", [1, 2, 4, 8])
    def test_all_device_counts(self, G, rng):
        cl, dfmm, S, r = _run(G, rng=rng)
        T = dfmm.finalize()
        ref_ops = FmmOperators.create(M=512, P=8, ML=16, B=3, Q=16)
        Tref, rref = BatchedFMM(ref_ops).apply(S)
        assert np.linalg.norm(T - Tref) / np.linalg.norm(Tref) < 1e-13
        np.testing.assert_allclose(r, rref, atol=1e-11)

    @pytest.mark.parametrize("B", [2, 3, 4, 5])
    def test_base_levels(self, B, rng):
        cl, dfmm, S, _ = _run(2, M=512, ML=16, B=B, rng=rng)
        T = dfmm.finalize()
        ref_ops = FmmOperators.create(M=512, P=8, ML=16, B=B, Q=16)
        Tref, _ = BatchedFMM(ref_ops).apply(S)
        assert np.linalg.norm(T - Tref) / np.linalg.norm(Tref) < 1e-13

    def test_l_equals_b(self, rng):
        """No hierarchical levels at all."""
        cl, dfmm, S, _ = _run(2, M=128, ML=16, B=3, rng=rng)
        T = dfmm.finalize()
        ref_ops = FmmOperators.create(M=128, P=8, ML=16, B=3, Q=16)
        Tref, _ = BatchedFMM(ref_ops).apply(S)
        assert np.linalg.norm(T - Tref) / np.linalg.norm(Tref) < 1e-13


class TestLedgerAccounting:
    def test_flops_match_model(self, rng):
        """The engine's per-launch flops sum to the Section 5.1 counts."""
        G = 2
        cl, dfmm, _, _ = _run(G, rng=rng)
        model = fmm_stage_flops(dfmm.ops.geometry, "complex128")
        logged = cl.ledger.flops_by_name()
        for stage, f in model.items():
            assert logged[stage] == pytest.approx(f * G), stage

    def test_comm_bytes_match_model(self, rng):
        G = 4
        cl, dfmm, _, _ = _run(G, rng=rng)
        model = fmm_comm_bytes(dfmm.ops.geometry, "complex128")
        logged = cl.ledger.comm_bytes_by_name()
        assert logged["COMM-S"] == pytest.approx(model["COMM-S"] * G)
        m_levels = sum(v for k, v in logged.items() if k.startswith("COMM-M") and k != "COMM-MB")
        assert m_levels == pytest.approx(model["COMM-M"] * G)
        assert logged["COMM-MB"] == pytest.approx(model["COMM-MB"] * G)

    def test_launch_inventory(self, rng):
        """1 S2M + (L-B) M2M + 1 S2T + (L-B) M2L + 1 M2L-B + 1 REDUCE +
        (L-B) L2L + 1 L2T per device."""
        cl, dfmm, _, _ = _run(2, rng=rng)
        t = dfmm.ops.tree
        expected = 5 + 3 * (t.L - t.B)
        assert cl.ledger.launch_count(device=0) == expected

    def test_comm_hidden_behind_compute(self):
        """At large scale the FMM's communication is negligible and
        overlapped (Section 5.2)."""
        geom = FmmGeometry.create(M=1 << 19, P=256, ML=64, B=3, Q=16, G=2)
        cl = VirtualCluster(p100_nvlink_node(2), execute=False)
        DistributedFMM(geom, cl).run(staged=True)
        tr = cl.trace()
        assert tr.comm_time(0) < 0.2 * tr.compute_time(0)


class TestTimingOnly:
    def test_geometry_is_enough(self):
        geom = FmmGeometry.create(M=1 << 19, P=256, ML=64, B=3, Q=16, G=2)
        cl = VirtualCluster(p100_nvlink_node(2), execute=False)
        evs, r = DistributedFMM(geom, cl).run(staged=True)
        assert r is None
        assert cl.wall_time() > 0

    def test_fig2_fmm_time_band(self):
        """Figure 2: 255 FMMs of 524k in ~32 ms on (half of) 2xP100.

        Our simulated FMM stage should land in the same band (20-50ms).
        """
        geom = FmmGeometry.create(M=1 << 19, P=256, ML=64, B=3, Q=16, G=2)
        cl = VirtualCluster(p100_nvlink_node(2), execute=False)
        DistributedFMM(geom, cl).run(staged=True)
        assert 15e-3 < cl.wall_time() < 60e-3

    def test_execute_requires_operators(self):
        geom = FmmGeometry.create(M=256, P=4, ML=16, B=2, Q=8, G=2)
        cl = VirtualCluster(p100_nvlink_node(2))
        with pytest.raises(ParameterError):
            DistributedFMM(geom, cl)

    def test_g_mismatch_rejected(self):
        ops = FmmOperators.create(M=256, P=4, ML=16, B=2, Q=8, G=2)
        cl = VirtualCluster(p100_nvlink_node(4), execute=False)
        with pytest.raises(ParameterError):
            DistributedFMM(ops, cl)

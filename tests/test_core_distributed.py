import numpy as np
import pytest

from repro.core.distributed import FmmFftDistributed
from repro.core.plan import FmmFftPlan
from repro.core.single import fmmfft_single
from repro.fftcore.oracle import reference_fft
from repro.fmm.distributed import DistributedFMM
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import dual_p100_nvlink, p100_nvlink_node
from repro.util.prng import random_signal
from repro.util.validation import ParameterError


def _plan(N=8192, P=32, ML=16, B=3, Q=16, G=2, **kw):
    return FmmFftPlan.create(N=N, P=P, ML=ML, B=B, Q=Q, G=G, **kw)


class TestCorrectness:
    @pytest.mark.parametrize("G", [1, 2, 4, 8])
    def test_matches_numpy(self, G):
        plan = _plan(G=G)
        cl = VirtualCluster(p100_nvlink_node(G))
        x = random_signal(plan.N, seed=G)
        out = FmmFftDistributed(plan, cl).run(x)
        ref = np.fft.fft(x)
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 2e-14

    def test_matches_single_device_executor(self):
        plan1 = _plan(G=1)
        plan2 = _plan(G=2)
        x = random_signal(plan1.N, seed=42)
        single = fmmfft_single(x, plan1)
        cl = VirtualCluster(p100_nvlink_node(2))
        dist = FmmFftDistributed(plan2, cl).run(x)
        np.testing.assert_allclose(dist, single, atol=1e-9)

    def test_own_backend(self):
        plan = _plan(G=2)
        cl = VirtualCluster(p100_nvlink_node(2))
        x = random_signal(plan.N, seed=9)
        out = FmmFftDistributed(plan, cl).run(x)
        ref = np.fft.fft(x)
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 2e-13

    def test_unfused_post_same_answer(self):
        plan = _plan(G=2)
        x = random_signal(plan.N, seed=10)
        cl1 = VirtualCluster(p100_nvlink_node(2))
        out1 = FmmFftDistributed(plan, cl1, fuse_post=True).run(x)
        cl2 = VirtualCluster(p100_nvlink_node(2))
        out2 = FmmFftDistributed(plan, cl2, fuse_post=False).run(x)
        np.testing.assert_allclose(out1, out2, atol=1e-10)

    def test_single_precision(self):
        plan = _plan(Q=8, dtype="complex64")
        cl = VirtualCluster(p100_nvlink_node(2))
        x = random_signal(plan.N, "complex64", seed=11)
        out = FmmFftDistributed(plan, cl).run(x)
        ref = np.fft.fft(x.astype(np.complex128))
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 4e-7


class TestTiming:
    def test_timing_only_no_operators(self):
        plan = FmmFftPlan.create(
            N=1 << 24, P=1 << 10, ML=64, B=3, Q=16, G=2, build_operators=False
        )
        cl = VirtualCluster(dual_p100_nvlink(), execute=False)
        assert FmmFftDistributed(plan, cl).run() is None
        assert cl.wall_time() > 0

    def test_single_alltoall_plus_gather(self):
        plan = FmmFftPlan.create(
            N=1 << 22, P=1 << 8, ML=64, B=3, Q=16, G=2, build_operators=False
        )
        cl = VirtualCluster(dual_p100_nvlink(), execute=False)
        FmmFftDistributed(plan, cl).run()
        comm = cl.ledger.comm_bytes_by_name()
        # exactly one big transpose; the rest are small FMM exchanges
        big = [k for k, v in comm.items() if v > 0.5 * max(comm.values())]
        assert big == ["fft2d.transpose"]

    def test_fuse_post_saves_time(self):
        plan = FmmFftPlan.create(
            N=1 << 24, P=1 << 10, ML=64, B=3, Q=16, G=2, build_operators=False
        )
        cl_f = VirtualCluster(dual_p100_nvlink(), execute=False)
        FmmFftDistributed(plan, cl_f, fuse_post=True).run()
        cl_u = VirtualCluster(dual_p100_nvlink(), execute=False)
        FmmFftDistributed(plan, cl_u, fuse_post=False).run()
        assert cl_f.wall_time() < cl_u.wall_time()

    def test_beats_baseline_at_large_n(self):
        """The headline result, as a regression guard."""
        from repro.dfft.fft1d import Distributed1DFFT

        N = 1 << 26
        plan = FmmFftPlan.create(N=N, P=1 << 9, ML=64, B=3, Q=16, G=2,
                                 build_operators=False)
        cl = VirtualCluster(dual_p100_nvlink(), execute=False)
        FmmFftDistributed(plan, cl).run()
        t_fmm = cl.wall_time()
        cl_b = VirtualCluster(dual_p100_nvlink(), execute=False)
        Distributed1DFFT(N, cl_b).run()
        assert cl_b.wall_time() / t_fmm > 1.15


class TestValidation:
    def test_g_mismatch(self):
        plan = _plan(G=2)
        cl = VirtualCluster(p100_nvlink_node(4), execute=False)
        with pytest.raises(ParameterError):
            FmmFftDistributed(plan, cl)

    def test_execute_needs_operators(self):
        plan = FmmFftPlan.create(N=4096, P=8, ML=16, B=3, Q=16, G=2,
                                 build_operators=False)
        cl = VirtualCluster(p100_nvlink_node(2))
        with pytest.raises(ParameterError):
            FmmFftDistributed(plan, cl)

    def test_execute_needs_input(self):
        plan = _plan(G=2)
        cl = VirtualCluster(p100_nvlink_node(2))
        with pytest.raises(ParameterError):
            FmmFftDistributed(plan, cl).run()

    @pytest.mark.parametrize("executor", ["fmmfft", "fmm"])
    def test_unknown_comm_algorithm_refused_before_any_issue(self, executor):
        plan = _plan(G=2)
        cl = VirtualCluster(p100_nvlink_node(2))
        with pytest.raises(ParameterError, match="'bogus'"):
            if executor == "fmmfft":
                FmmFftDistributed(plan, cl, comm_algorithm="bogus")
            else:
                DistributedFMM(plan.operators, cl, comm_algorithm="bogus")
        assert len(cl.ledger) == 0 and cl.comm_log == []


class TestInputUntouched:
    """The devices hold views of the caller's vector and POST runs in
    place: neither may write ``x``, and ``y`` may not alias anything the
    next run (or the caller) writes."""

    @pytest.mark.parametrize("dtype", ["complex64", "complex128"])
    @pytest.mark.parametrize("fuse_post", [True, False])
    def test_run_neither_writes_nor_aliases_the_input(self, fuse_post, dtype):
        plan = _plan(G=2, dtype=dtype)
        tol = 1e-5 if dtype == "complex64" else 1e-12
        ff = FmmFftDistributed(plan, VirtualCluster(p100_nvlink_node(2)),
                               fuse_post=fuse_post)
        x = random_signal(plan.N, dtype, seed=3)
        x0 = x.copy()
        y = ff.run(x)
        assert x.tobytes() == x0.tobytes()
        y0 = y.copy()
        x *= 2
        assert y.tobytes() == y0.tobytes()
        x2 = random_signal(plan.N, dtype, seed=4)
        y2 = ff.run(x2)  # a second run on the same cluster
        assert y.tobytes() == y0.tobytes()
        for xi, yi in ((x0, y), (x2, y2)):
            ref = reference_fft(xi)
            assert np.linalg.norm(yi - ref) / np.linalg.norm(ref) < tol

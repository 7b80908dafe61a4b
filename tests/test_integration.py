"""End-to-end integration scenarios across the whole stack."""

import numpy as np
import pytest

from repro.core.distributed import FmmFftDistributed
from repro.core.plan import FmmFftPlan
from repro.core.single import fmmfft_single
from repro.dfft.fft1d import Distributed1DFFT
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import dual_p100_nvlink, p100_nvlink_node, preset
from repro.model.search import find_fastest
from repro.pipelines import simulate
from repro.util.prng import random_signal, structured_signal


class TestFmmfftVsBaselineNumerics:
    """Both pipelines must produce the same spectrum."""

    @pytest.mark.parametrize("G", [1, 2, 4])
    def test_same_answer(self, G):
        N = 1 << 13
        x = random_signal(N, seed=G)
        plan = FmmFftPlan.create(N=N, P=32, ML=16, B=3, Q=16, G=G)
        cl1 = VirtualCluster(p100_nvlink_node(G))
        fmm_out = FmmFftDistributed(plan, cl1).run(x)
        cl2 = VirtualCluster(p100_nvlink_node(G))
        base_out = Distributed1DFFT(N, cl2).run(x)
        assert np.linalg.norm(fmm_out - base_out) / np.linalg.norm(base_out) < 1e-12

    def test_fmmfft_is_faster_in_simulated_time(self):
        N = 1 << 13
        x = random_signal(N, seed=0)
        plan = FmmFftPlan.create(N=N, P=32, ML=16, B=3, Q=16, G=2)
        cl1 = VirtualCluster(dual_p100_nvlink())
        FmmFftDistributed(plan, cl1).run(x)
        cl2 = VirtualCluster(dual_p100_nvlink())
        Distributed1DFFT(N, cl2).run(x)
        assert cl1.wall_time() < cl2.wall_time()


class TestExecuteVsTimingConsistency:
    """Timing-only runs must produce the same simulated schedule as
    execute runs (timing is shape-determined)."""

    def test_identical_wall_time(self):
        N = 1 << 13
        plan = FmmFftPlan.create(N=N, P=32, ML=16, B=3, Q=16, G=2)
        cl_e = VirtualCluster(dual_p100_nvlink(), execute=True)
        FmmFftDistributed(plan, cl_e).run(random_signal(N, seed=1))
        plan_t = FmmFftPlan.create(N=N, P=32, ML=16, B=3, Q=16, G=2,
                                   build_operators=False)
        cl_t = VirtualCluster(dual_p100_nvlink(), execute=False)
        FmmFftDistributed(plan_t, cl_t).run()
        assert cl_e.wall_time() == pytest.approx(cl_t.wall_time(), rel=1e-12)

    def test_identical_ledgers(self):
        N = 1 << 12
        cl_e = VirtualCluster(dual_p100_nvlink(), execute=True)
        Distributed1DFFT(N, cl_e).run(random_signal(N, seed=2))
        cl_t = VirtualCluster(dual_p100_nvlink(), execute=False)
        Distributed1DFFT(N, cl_t).run()
        assert len(cl_e.ledger) == len(cl_t.ledger)
        for a, b in zip(cl_e.ledger, cl_t.ledger):
            assert (a.name, a.kind, a.device) == (b.name, b.kind, b.device)
            assert a.start == pytest.approx(b.start)
            assert a.duration == pytest.approx(b.duration)


class TestScalingStudy:
    def test_fmm_scales_with_g(self):
        """'the FMM computation is scaled nearly perfectly' (Sec 6.1)."""
        from repro.fmm.distributed import DistributedFMM
        from repro.fmm.plan import FmmGeometry

        times = {}
        for G in (2, 4, 8):
            geom = FmmGeometry.create(M=1 << 17, P=256, ML=64, B=3, Q=16, G=G)
            cl = VirtualCluster(p100_nvlink_node(G), execute=False)
            DistributedFMM(geom, cl).run(staged=True)
            times[G] = cl.wall_time()
        assert times[4] < 0.65 * times[2]
        assert times[8] < 0.65 * times[4]

    def test_baseline_scales_poorly(self):
        """The transpose-bound baseline gains little from 2 -> 8 GPUs."""
        N = 1 << 26
        t2 = simulate("fft1d", N, p100_nvlink_node(2)).wall_time()
        t8 = simulate("fft1d", N, p100_nvlink_node(8)).wall_time()
        assert t8 > 0.25 * t2  # far from the 4x ideal


class TestSignals:
    """Spectral physics through the full pipeline."""

    def test_tones_detected(self):
        N = 1 << 12
        x = structured_signal(N, kind="tones", seed=3)
        plan = FmmFftPlan.create(N=N, P=16, ML=16, B=2, Q=16)
        spec = np.abs(fmmfft_single(x, plan))
        ref = np.abs(np.fft.fft(x))
        np.testing.assert_allclose(spec, ref, atol=1e-8 * ref.max())

    def test_convolution_theorem(self):
        N = 1 << 11
        plan = FmmFftPlan.create(N=N, P=8, ML=16, B=3, Q=16)
        x = random_signal(N, seed=4)
        h = structured_signal(N, kind="gaussian")
        X = fmmfft_single(x, plan)
        H = fmmfft_single(h, plan)
        conv_freq = np.fft.ifft(X * H)
        conv_direct = np.fft.ifft(np.fft.fft(x) * np.fft.fft(h))
        np.testing.assert_allclose(conv_freq, conv_direct, atol=1e-9)


class TestSearchEndToEnd:
    def test_search_result_reproducible(self):
        spec = preset("2xP100")
        r1 = find_fastest(1 << 16, spec)
        r2 = find_fastest(1 << 16, spec)
        assert r1.params == r2.params
        assert r1.fmmfft_time == pytest.approx(r2.fmmfft_time)

    def test_simulated_time_deterministic(self):
        spec = preset("8xP100")
        p = dict(P=256, ML=64, B=3, Q=16)
        t = [simulate("fmmfft", 1 << 22, spec, params=p).wall_time()
             for _ in range(2)]
        assert t[0] == pytest.approx(t[1])

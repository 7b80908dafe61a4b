import pytest

from repro.fmm.plan import FmmGeometry
from repro.machine.multinode import routed_multinode_p100
from repro.machine.spec import dual_p100_nvlink, dgx1_p100, dual_k40c_pcie, preset
from repro.model.roofline import (
    fft1d_model_time,
    fft2d_model_time,
    fmm_model_time,
    fmm_stage_times,
    fmmfft_model_time,
)
from repro.model.search import SearchResult, find_fastest, search_grid
from repro.pipelines import simulate


def geom(M=1 << 19, P=256, ML=64, B=3, Q=16, G=2):
    return FmmGeometry.create(M=M, P=P, ML=ML, B=B, Q=Q, G=G)


SPEC = dual_p100_nvlink()


class TestRoofline:
    def test_stage_times_positive(self):
        times = fmm_stage_times(geom(), SPEC)
        assert all(t > 0 for t in times.values())

    def test_model_time_is_sum(self):
        g = geom()
        assert fmm_model_time(g, SPEC) == pytest.approx(
            sum(fmm_stage_times(g, SPEC).values())
        )

    def test_fig2_fmm_model_band(self):
        """The N=2^27 FMM model lands in the measured ~32 ms band."""
        t = fmm_model_time(geom(), SPEC, "complex128")
        assert 15e-3 < t < 45e-3

    def test_model_below_simulated(self):
        """Model = idealized: no latency, no derates — must lower-bound
        the simulated 'measured' time (Figure 5's efficiency < 1)."""
        from repro.fmm.distributed import DistributedFMM
        from repro.machine.cluster import VirtualCluster

        g = geom()
        cl = VirtualCluster(SPEC, execute=False)
        DistributedFMM(g, cl).run(staged=True)
        assert fmm_model_time(g, SPEC) < cl.wall_time()

    def test_fft1d_model_3x_fft2d_at_large_n(self):
        N = 1 << 27
        t1 = fft1d_model_time(N, SPEC)
        t2 = fft2d_model_time(1 << 19, 256, SPEC)
        assert 1.8 < t1 / t2 < 3.2

    def test_fmmfft_model_accepts_measured_2d(self):
        g = geom()
        t = fmmfft_model_time(g, SPEC, fft2d_time=0.02)
        assert t == pytest.approx(fmm_model_time(g, SPEC) + 0.02)

    def test_single_precision_faster(self):
        g = geom()
        assert fmm_model_time(g, SPEC, "complex64") < fmm_model_time(g, SPEC, "complex128")


class TestSearch:
    def test_grid_nonempty_and_admissible(self):
        grid = search_grid(1 << 20, 2)
        assert grid
        for c in grid:
            assert c["P"] >= 32
            assert (1 << 20) // c["P"] >= 32

    def test_grid_square_first(self):
        grid = search_grid(1 << 20, 2)
        first = grid[0]
        from repro.util.bitmath import ilog2

        assert abs(ilog2(first["P"]) - ilog2((1 << 20) // first["P"])) <= 2

    def test_grid_beyond_32_devices(self):
        # no B <= 5 splits the tree across 64 devices: B = log2(G) at
        # M_L = 64, smallest P first
        grid = search_grid(1 << 24, 64)
        assert [c["P"] for c in grid] == [1 << k for k in range(7, 13)]
        assert all(c == dict(P=c["P"], ML=64, B=6, Q=16) for c in grid)
        assert all(c["Q"] == 8 for c in search_grid(1 << 24, 64, "complex64"))

    def test_find_fastest_beyond_32_devices(self):
        r = find_fastest(1 << 24, routed_multinode_p100(16, 4, radix=36,
                                                        oversubscription=2.0))
        assert r.params in search_grid(1 << 24, 64)
        assert r.fmmfft_time > 0 and r.baseline_time > 0

    def test_single_precision_q8(self):
        assert all(c["Q"] == 8 for c in search_grid(1 << 16, 2, "complex64"))

    def test_simulate_times_positive(self):
        cl = simulate("fmmfft", 1 << 20, SPEC,
                      params=dict(P=1024, ML=64, B=3, Q=16))
        assert cl.wall_time() > 0
        assert simulate("fft1d", 1 << 20, SPEC).wall_time() > 0

    def test_find_fastest_result(self):
        r = find_fastest(1 << 18, SPEC)
        assert isinstance(r, SearchResult)
        assert r.speedup == pytest.approx(r.baseline_time / r.fmmfft_time)
        assert r.params in search_grid(1 << 18, 2)

    @pytest.mark.parametrize("sysname", ["2xK40c", "2xP100", "8xP100"])
    def test_large_n_speedup_bands(self, sysname):
        """The Figure 3 headline: FMM-FFT wins at N = 2^26, with the
        8xP100 system showing the largest gain."""
        r = find_fastest(1 << 26, preset(sysname))
        assert r.speedup > 1.02

    def test_8x_beats_2x_gain(self):
        r2 = find_fastest(1 << 26, dual_p100_nvlink())
        r8 = find_fastest(1 << 26, dgx1_p100())
        assert r8.speedup > r2.speedup

    def test_k40_modest_gain_at_large_n(self):
        """Fig 3 top: 2xK40c large-N speedups are ~1.0-1.1."""
        r = find_fastest(1 << 26, dual_k40c_pcie())
        assert 1.0 < r.speedup < 1.3

import numpy as np
import pytest

from repro.nufft.barycentric import trig_barycentric_dense, trig_barycentric_fmm
from repro.nufft.nonuniform_fmm import NonuniformPeriodicFMM, cot_pi
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import p100_nvlink_node
from repro.nufft.transforms import (
    ClusterNufft2,
    nudft1_direct,
    nudft2_direct,
    nufft1_adjoint,
    nufft2,
)
from repro.util.validation import ParameterError


class TestCotPi:
    def test_values(self):
        assert cot_pi(np.array([0.25]))[0] == pytest.approx(1.0)
        assert cot_pi(np.array([0.75]))[0] == pytest.approx(-1.0)

    def test_zero_maps_to_zero(self):
        assert cot_pi(np.array([0.0]))[0] == 0.0

    def test_antisymmetric(self, rng):
        x = rng.uniform(0.01, 0.49, 20)
        np.testing.assert_allclose(cot_pi(-x), -cot_pi(x), atol=1e-12)

    def test_periodic(self, rng):
        x = rng.uniform(0.01, 0.49, 20)
        np.testing.assert_allclose(cot_pi(x + 1.0), cot_pi(x), rtol=1e-9)


class TestNonuniformFMM:
    @pytest.mark.parametrize(
        "L,B,Q,edges",
        [(4, 2, 16, False), (5, 3, 16, False), (6, 4, 16, False), (4, 4, 16, False),
         (4, 2, 16, True), (6, 3, 16, True)],
        ids=["4-2-16", "5-3-16", "6-4-16", "4-4-16", "4-2-16-edges", "6-3-16-edges"])
    def test_matches_dense(self, L, B, Q, edges, rng):
        src, tgt = rng.uniform(0, 1, 400), rng.uniform(0, 1, 300)
        if edges:  # every leaf-box edge b / 2^L, 0.0 included: local coordinate -1
            src[: 1 << L] = tgt[: 1 << L] = np.arange(1 << L) / (1 << L)
        fmm = NonuniformPeriodicFMM(src, tgt, L=L, B=B, Q=Q)
        w = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        got, ref = fmm.apply(w), fmm.apply_dense(w)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-12

    def test_accuracy_scales_with_q(self, rng):
        src, tgt = rng.uniform(0, 1, 300), rng.uniform(0, 1, 300)
        w = rng.standard_normal(300)
        errs = []
        for Q in (6, 10, 16):
            fmm = NonuniformPeriodicFMM(src, tgt, L=5, B=2, Q=Q)
            errs.append(
                np.linalg.norm(fmm.apply(w) - fmm.apply_dense(w))
                / np.linalg.norm(fmm.apply_dense(w))
            )
        assert errs[2] < 1e-3 * errs[0]

    def test_clustered_points(self, rng):
        """Severely nonuniform distributions (empty boxes) still work."""
        src = np.concatenate([rng.uniform(0.1, 0.12, 200), rng.uniform(0.8, 0.82, 200)])
        tgt = rng.uniform(0, 1, 100)
        fmm = NonuniformPeriodicFMM(src, tgt, L=6, B=3, Q=16)
        w = rng.standard_normal(400)
        got, ref = fmm.apply(w), fmm.apply_dense(w)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-11

    def test_coincident_point_skipped(self):
        src = np.array([0.3, 0.7])
        tgt = np.array([0.3, 0.5])
        fmm = NonuniformPeriodicFMM(src, tgt, L=2, B=2, Q=8)
        out = fmm.apply(np.array([1.0, 0.0]))
        # target 0.3 == source 0.3: self-pair contributes 0
        assert np.isfinite(out).all()

    def test_multiple_rhs(self, rng):
        src, tgt = rng.uniform(0, 1, 200), rng.uniform(0, 1, 150)
        fmm = NonuniformPeriodicFMM(src, tgt, L=4, B=2, Q=14)
        W = rng.standard_normal((200, 3))
        np.testing.assert_allclose(fmm.apply(W), fmm.apply_dense(W), atol=1e-9)

    def test_linearity(self, rng):
        src, tgt = rng.uniform(0, 1, 100), rng.uniform(0, 1, 100)
        fmm = NonuniformPeriodicFMM(src, tgt, L=4, B=2, Q=16)
        a, b = rng.standard_normal(100), rng.standard_normal(100)
        np.testing.assert_allclose(
            fmm.apply(a + 2 * b), fmm.apply(a) + 2 * fmm.apply(b), atol=1e-8
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            NonuniformPeriodicFMM(np.array([1.5]), np.array([0.5]))

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            NonuniformPeriodicFMM(np.array([]), np.array([0.5]))

    def test_rejects_wrong_weight_count(self, rng):
        fmm = NonuniformPeriodicFMM(rng.uniform(0, 1, 10), rng.uniform(0, 1, 10),
                                    L=2, B=2, Q=4)
        with pytest.raises(ParameterError):
            fmm.apply(np.zeros(5))

    def test_dense_oracle_refuses_large(self, rng):
        fmm = NonuniformPeriodicFMM(rng.uniform(0, 1, 5000), rng.uniform(0, 1, 5000),
                                    L=4, B=2, Q=4)
        with pytest.raises(ParameterError):
            fmm.apply_dense(np.zeros(5000))


class TestBarycentric:
    def test_interpolates_nodes(self, rng):
        n = 32
        f = rng.standard_normal(n)
        t = np.arange(n) / n
        np.testing.assert_allclose(trig_barycentric_dense(f, t), f, atol=1e-12)

    def test_exact_for_low_degree_trig(self, rng):
        """Exact for sum_{|k|<n/2} c_k e^{2 pi i k x}."""
        n = 64
        k = np.arange(-n // 4, n // 4)
        c = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
        t = np.arange(n) / n
        f = np.exp(2j * np.pi * np.outer(t, k)) @ c
        x = rng.uniform(0, 1, 50)
        exact = np.exp(2j * np.pi * np.outer(x, k)) @ c
        np.testing.assert_allclose(trig_barycentric_dense(f, x), exact, atol=1e-10)

    def test_fmm_matches_dense(self, rng):
        n = 256
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = rng.uniform(0, 1, 300)
        np.testing.assert_allclose(
            trig_barycentric_fmm(f, x), trig_barycentric_dense(f, x), atol=1e-10
        )

    def test_rejects_odd_n(self):
        with pytest.raises(ParameterError):
            trig_barycentric_dense(np.zeros(7), np.array([0.1]))


class TestNufft2:
    @pytest.mark.parametrize("n,m", [(32, 50), (64, 100), (256, 400), (1024, 1500)])
    def test_matches_direct(self, n, m, rng):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = rng.uniform(0, 1, m)
        got, ref = nufft2(c, x), nudft2_direct(c, x)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-12

    def test_node_hits_exact(self, rng):
        n = 64
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = np.arange(16) / 16.0
        np.testing.assert_allclose(nufft2(c, x), nudft2_direct(c, x), atol=1e-10)

    def test_uniform_points_reduce_to_fft(self, rng):
        """At x_j = j/n the type-2 NUDFT is an (shifted) inverse DFT."""
        n = 64
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = np.arange(n) / n
        got = nufft2(c, x)
        ref = nudft2_direct(c, x)
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_single_tone(self):
        n = 32
        c = np.zeros(n, dtype=complex)
        c[n // 2 + 3] = 1.0  # k = 3
        x = np.array([0.1, 0.37, 0.9])
        np.testing.assert_allclose(nufft2(c, x), np.exp(2j * np.pi * 3 * x), atol=1e-12)

    def test_rejects_odd_n(self):
        with pytest.raises(ParameterError):
            nufft2(np.zeros(7, dtype=complex), np.array([0.1]))

    def test_rejects_small_sigma(self):
        with pytest.raises(ParameterError):
            nufft2(np.zeros(8, dtype=complex), np.array([0.1]), sigma=1.1)


class TestNufft1Adjoint:
    @pytest.mark.parametrize("n,m", [(32, 60), (64, 100), (256, 300)])
    def test_matches_direct(self, n, m, rng):
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        x = rng.uniform(0, 1, m)
        got, ref = nufft1_adjoint(w, x, n), nudft1_direct(w, x, n)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-12

    def test_adjoint_identity(self, rng):
        """<nufft2(c), w> == <c, nufft1_adjoint(conj pairing)>."""
        n, m = 64, 80
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        x = rng.uniform(0, 1, m)
        lhs = np.vdot(w, nufft2(c, x))
        rhs = np.vdot(nufft1_adjoint(w, x, n), c)
        assert abs(lhs - rhs) / abs(lhs) < 1e-11

    def test_with_node_hits(self, rng):
        n, m = 32, 40
        x = np.concatenate([rng.uniform(0, 1, m - 4), np.array([0.0, 0.25, 0.5, 0.75])])
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        got, ref = nufft1_adjoint(w, x, n), nudft1_direct(w, x, n)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-11

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            nufft1_adjoint(np.zeros(3), np.zeros(4), 8)


_X = np.array([0.1, 0.6])


@pytest.mark.parametrize("call", [
    lambda: nufft2(np.zeros(0, dtype=complex), _X),
    lambda: nufft2(np.zeros((8, 2), dtype=complex), _X),
    lambda: nufft2(np.zeros(8, dtype=complex), _X, sigma=float("nan")),
    lambda: nufft2(np.zeros(8, dtype=complex), _X, sigma=float("inf")),
    lambda: nufft2(np.zeros(8, dtype=complex), np.array([0.1, np.nan])),
    lambda: nufft2(np.zeros(8, dtype=complex), np.array([0.1, np.inf])),
    lambda: nufft1_adjoint(np.ones(2), _X, 0),
    lambda: nufft1_adjoint(np.ones(2), _X, -4),
    lambda: nufft1_adjoint(np.ones(2), _X, 8, sigma=1.1),
    lambda: nufft1_adjoint(np.ones(2), _X, 8, sigma=0.1),
    lambda: nufft1_adjoint(np.ones(2), np.array([0.1, np.nan]), 8),
    lambda: nufft1_adjoint(np.ones(2), np.array([0.1, -np.inf]), 8),
    lambda: ClusterNufft2(0, 4, VirtualCluster(p100_nvlink_node(1), execute=False)),
    lambda: ClusterNufft2(8, 4, VirtualCluster(p100_nvlink_node(1), execute=False),
                          sigma=float("nan")),
    lambda: NonuniformPeriodicFMM(np.array([0.2, np.nan]), _X, L=2, B=2, Q=4),
], ids=["nufft2-n0", "nufft2-2d", "nufft2-sigma-nan", "nufft2-sigma-inf",
        "nufft2-x-nan", "nufft2-x-inf", "adjoint-n0", "adjoint-n-neg",
        "adjoint-sigma-1.1", "adjoint-sigma-0.1", "adjoint-x-nan", "adjoint-x-inf",
        "cluster-n0", "cluster-sigma-nan", "fmm-nan-source"])
def test_doors_raise_parameter_error(call):
    """Every NUFFT entry point refuses bad input with ParameterError, not
    NumPy's ValueError, a NaN result or silent zeros."""
    with pytest.raises(ParameterError):
        call()

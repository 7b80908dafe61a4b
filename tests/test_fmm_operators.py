import numpy as np
import pytest

from repro.fmm import operators as ops
from repro.fmm.chebyshev import cheb_points
from repro.fmm.plan import FmmGeometry, FmmOperators
from repro.util.validation import ParameterError


class TestS2M:
    def test_shape(self):
        assert ops.s2m_matrix(8, 16).shape == (8, 16)

    def test_columns_sum_to_one(self):
        """Sum preservation — the REDUCE trick (Section 4.8)."""
        S2M = ops.s2m_matrix(12, 32)
        np.testing.assert_allclose(S2M.sum(axis=0), np.ones(32), atol=1e-10)

    def test_l2t_is_transpose(self):
        np.testing.assert_array_equal(ops.l2t_matrix(8, 16), ops.s2m_matrix(8, 16).T)

    def test_source_map(self):
        """s_m = -1 + (2m+1)/M_L lands strictly inside [-1, 1]."""
        S2M = ops.s2m_matrix(4, 4)
        # with Q = ML and sources at non-node points, matrix is dense
        assert np.abs(S2M).min() > 0


class TestM2M:
    def test_shape(self):
        assert ops.m2m_matrix(8).shape == (8, 16)

    def test_columns_sum_to_one(self):
        M2M = ops.m2m_matrix(10)
        np.testing.assert_allclose(M2M.sum(axis=0), np.ones(20), atol=1e-10)

    def test_l2l_is_transpose(self):
        np.testing.assert_array_equal(ops.l2l_matrix(6), ops.m2m_matrix(6).T)

    def test_l2l_reproduces_polynomials(self):
        """M2M is anterpolation; its transpose L2L interpolates a parent
        expansion at the children's nodes exactly for degree < Q."""
        Q = 8
        zq = cheb_points(Q)
        f = lambda z: 1.0 + z + 0.5 * z**2 + z**5
        children = ops.l2l_matrix(Q) @ f(zq)  # (2Q,): left child then right
        # child node z_k in child coords sits at (z_k -+ 1)/2 in parent coords
        np.testing.assert_allclose(children[:Q], f((zq - 1) / 2), atol=1e-10)
        np.testing.assert_allclose(children[Q:], f((zq + 1) / 2), atol=1e-10)

    def test_m2m_preserves_moment(self):
        """Anterpolation preserves the total 'mass' carried upward."""
        rng = np.random.default_rng(0)
        child = rng.standard_normal(16)
        parent = ops.m2m_matrix(8) @ child
        assert parent.sum() == pytest.approx(child.sum())


class TestM2L:
    def test_level_tensor_shape(self):
        K = ops.m2l_level_tensor(4, Q=6, shifts=np.pi * np.arange(1, 8) / 2048)
        assert K.shape == (7, 2, 3, 6, 6)

    def test_base_tensor_shape(self):
        K = ops.m2l_base_tensor(3, Q=6, shifts=np.pi * np.arange(1, 8) / 2048)
        assert K.shape == (7, 5, 6, 6)

    def test_level_entries(self):
        """Spot-check the formula against Section 4.7."""
        level, P, Q, N = 3, 4, 3, 1024
        K = ops.m2l_level_tensor(level, Q, np.pi * np.arange(1, P) / N)
        zq = cheb_points(Q)
        p, parity, si, i, j = 2, 0, 1, 1, 2  # s = +2 for even boxes
        s = 2.0
        expect = 1.0 / np.tan(
            np.pi / 2**level * (zq[j] / 2 - zq[i] / 2 + s) + np.pi * (p + 1) / N
        )
        assert K[p, parity, si, i, j] == pytest.approx(expect)

    def test_level_requires_8_boxes(self):
        with pytest.raises(ParameterError):
            ops.m2l_level_tensor(2, Q=4, shifts=[0.0])

    def test_finite(self):
        K = ops.m2l_base_tensor(4, Q=16, shifts=np.pi * np.arange(1, 16) / (1 << 14))
        assert np.isfinite(K).all()


class TestS2T:
    def test_lag_vector_shape(self):
        lags = ops.s2t_lags(P=8, ML=16, N=2048)
        assert lags.shape == (7, 4 * 16 - 1)

    def test_matrix_shape(self):
        K = ops.s2t_matrix(P=8, ML=16, N=2048)
        assert K.shape == (7, 16, 48)

    def test_toeplitz_structure(self):
        """K[p, i, j'] depends only on j' - i."""
        K = ops.s2t_matrix(P=4, ML=8, N=256)
        for d in range(-3, 4):
            vals = [K[1, i, i + 8 + d] for i in range(3)]
            assert np.ptp(vals) < 1e-14

    def test_matches_paper_definition(self):
        """S2T[p, k] = cot(pi (p + P k)/N) for flattened lag k."""
        P, ML, N = 4, 8, 256
        M = N // P
        K = ops.s2t_matrix(P, ML, N)
        p, i, jp = 2, 3, 17
        k = jp - ML - i
        expect = 1.0 / np.tan(np.pi * (p + P * k) / N)
        assert K[p - 1, i, jp] == pytest.approx(expect)


class TestRho:
    def test_values(self):
        """rho_p = exp(-i pi p/P) sin(pi p/P)/M."""
        rho = ops.rho_factors(P=8, M=64)
        p = 3
        expect = np.exp(-1j * np.pi * p / 8) * np.sin(np.pi * p / 8) / 64
        assert rho[p - 1] == pytest.approx(expect)

    def test_length(self):
        assert ops.rho_factors(P=16, M=4).shape == (15,)


class TestFmmOperatorsBundle:
    def test_create_and_fields(self):
        b = FmmOperators.create(M=256, P=4, ML=16, B=2, Q=8)
        assert b.s2m.shape == (8, 16)
        assert b.m2m.shape == (8, 16)
        assert set(b.m2l_level) == {4, 3}
        # per-p operators are stored in the layout the GEMM consumes:
        # (in, out) with the source offsets merged into the inner axis
        assert b.m2l_level[4].shape == (3, 2, 3 * 8, 8)
        assert b.m2l_base.shape == (3, 1 * 8, 8)
        assert b.s2t.shape == (3, 48, 16)
        assert all(a.flags.c_contiguous for a in (b.s2t, b.m2l_base, b.m2l_level[3]))
        np.testing.assert_array_equal(
            b.s2t, ops.s2t_matrix(4, 16, 1024).transpose(0, 2, 1))
        K = ops.m2l_level_tensor(4, 8, np.pi * np.arange(1, 4) / 1024)  # [p, parity, si, i, j]
        np.testing.assert_array_equal(
            b.m2l_level[4].reshape(3, 2, 3, 8, 8), K.transpose(0, 1, 2, 4, 3))
        assert b.rho.shape == (3,)
        assert b.N == 1024

    def test_single_precision(self):
        b = FmmOperators.create(M=64, P=4, ML=16, B=2, Q=8, dtype="complex64")
        assert b.s2m.dtype == np.float32
        assert b.rho.dtype == np.complex64

    def test_rejects_p1(self):
        with pytest.raises(ParameterError):
            FmmOperators.create(M=64, P=1, ML=16, B=2, Q=8)

    def test_operator_bytes_positive(self):
        b = FmmOperators.create(M=256, P=4, ML=16, B=2, Q=8)
        assert b.operator_bytes() > 0

    def test_geometry_view(self):
        b = FmmOperators.create(M=256, P=4, ML=16, B=2, Q=8)
        g = b.geometry
        assert isinstance(g, FmmGeometry)
        assert (g.M, g.P, g.Q, g.L, g.B) == (256, 4, 8, 4, 2)

    def test_geometry_create_cheap(self):
        g = FmmGeometry.create(M=1 << 20, P=1 << 7, ML=64, B=3, Q=16, G=8)
        assert g.N == 1 << 27
        assert g.L == 14

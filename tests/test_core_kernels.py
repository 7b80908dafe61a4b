import numpy as np
import pytest

from repro.core.kernels import dense_c_matrix, dense_h_matrix, post_process
from repro.fmm.operators import rho_factors
from repro.fmm.plan import FmmOperators
from repro.fmm.reference import dense_apply_all
from repro.util.validation import ParameterError


class TestCMatrix:
    def test_p0_identity(self):
        np.testing.assert_array_equal(dense_c_matrix(8, 4, 0), np.eye(8))

    def test_rank_one_plus_cot_structure(self):
        M, P, p = 16, 4, 2
        C = dense_c_matrix(M, P, p)
        rho = rho_factors(P, M)[p - 1]
        cot_part = C / rho - 1j
        assert np.abs(cot_part.imag).max() < 1e-12


class TestHMatrix:
    def test_block_diagonal(self):
        M, P = 4, 3
        H = dense_h_matrix(M, P)
        for p in range(P):
            blk = H[p * M : (p + 1) * M, p * M : (p + 1) * M]
            np.testing.assert_array_equal(blk, dense_c_matrix(M, P, p))
        # off-diagonal blocks zero
        assert np.abs(H[:M, M : 2 * M]).max() == 0.0


class TestPostProcess:
    def test_matches_full_kernel(self, rng):
        """FMM output + POST == dense C_p application."""
        M, P = 32, 4
        S = rng.standard_normal((P, M)) + 1j * rng.standard_normal((P, M))
        T, r = dense_apply_all(S, M, P)
        out = post_process(T, r, M, P)
        for p in range(1, P):
            np.testing.assert_allclose(out[p], dense_c_matrix(M, P, p) @ S[p], atol=1e-12)

    def test_p0_untouched(self, rng):
        M, P = 16, 4
        T = rng.standard_normal((P, M)) + 0j
        r = np.zeros(P - 1)
        out = post_process(T, r, M, P)
        np.testing.assert_array_equal(out[0], T[0])

    def test_shape_checks(self):
        with pytest.raises(ParameterError):
            post_process(np.zeros((4, 8)), np.zeros(2), 8, 4)

    def test_real_input_promoted(self):
        out = post_process(np.ones((4, 8)), np.ones(3), 8, 4)
        assert np.iscomplexobj(out)

    def test_rho_in_the_plan_precision_keeps_complex64_narrow(self, rng, monkeypatch):
        """Given the plan's already-narrowed rho, nothing is recomputed
        per call and a complex64 T meets only complex64 factors; with
        none passed the default still is ``rho_factors(P, M)``."""
        M, P = 32, 4
        T = (rng.standard_normal((P, M)) + 1j * rng.standard_normal((P, M))).astype(np.complex64)
        r = T[1:].sum(axis=1)
        rho = FmmOperators.create(M=M, P=P, ML=8, B=2, Q=8, dtype="complex64").rho
        assert rho.dtype == np.complex64
        wide = post_process(T, r, M, P)

        import repro.core.kernels as ck
        monkeypatch.setattr(ck, "rho_factors", lambda *a: pytest.fail("recomputed rho"))
        out = post_process(T, r, M, P, rho=rho)
        assert out.dtype == np.complex64
        assert np.linalg.norm(out - wide) / np.linalg.norm(wide) < 1e-6
        # batched form, and the shape check on rho
        np.testing.assert_array_equal(
            post_process(np.stack([T, T]), np.stack([r, r]), M, P, rho=rho)[1], out)
        with pytest.raises(ParameterError):
            post_process(T, r, M, P, rho=rho[:-1])

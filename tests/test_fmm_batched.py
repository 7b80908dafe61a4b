import numpy as np
import pytest

from repro.fmm import kernels
from repro.fmm.batched import BatchedFMM
from repro.fmm.plan import FmmOperators
from repro.fmm.reference import dense_apply_all
from repro.util.validation import ParameterError


def _fmm(M=256, P=8, ML=16, B=2, Q=16, dtype="complex128"):
    return BatchedFMM(FmmOperators.create(M=M, P=P, ML=ML, B=B, Q=Q, dtype=dtype))


def _signal(P, M, rng, dtype=np.complex128):
    x = rng.uniform(-1, 1, (P, M)) + 1j * rng.uniform(-1, 1, (P, M))
    return x.astype(dtype)


class TestAccuracy:
    @pytest.mark.parametrize(
        "M,P,ML,B,Q",
        [
            (256, 8, 16, 2, 16),
            (256, 8, 16, 3, 16),
            (256, 8, 16, 4, 16),
            (512, 4, 32, 3, 16),
            (256, 8, 8, 4, 16),
            (128, 4, 32, 2, 16),   # L == B: no hierarchical levels
            (64, 16, 16, 2, 16),
            (1024, 4, 64, 2, 16),
        ],
    )
    def test_matches_dense(self, M, P, ML, B, Q, rng):
        fmm = _fmm(M, P, ML, B, Q)
        S = _signal(P, M, rng)
        T, r = fmm.apply(S)
        Tref, rref = dense_apply_all(S, M, P)
        assert np.linalg.norm(T - Tref) / np.linalg.norm(Tref) < 5e-13
        np.testing.assert_allclose(r, rref, atol=1e-12)

    def test_p0_passthrough(self, rng):
        fmm = _fmm()
        S = _signal(8, 256, rng)
        T, _ = fmm.apply(S)
        np.testing.assert_array_equal(T[0], S[0])

    def test_accuracy_improves_with_q(self, rng):
        S = _signal(8, 256, rng)
        errs = []
        for Q in (4, 8, 12, 16):
            T, _ = _fmm(Q=Q).apply(S)
            Tref, _ = dense_apply_all(S, 256, 8)
            errs.append(np.linalg.norm(T - Tref) / np.linalg.norm(Tref))
        assert errs[3] < errs[1] < errs[0]

    def test_real_input(self, rng):
        fmm = _fmm()
        S = rng.uniform(-1, 1, (8, 256))
        T, r = fmm.apply(S)
        Tref, rref = dense_apply_all(S, 256, 8)
        assert np.linalg.norm(T - Tref) / np.linalg.norm(Tref) < 1e-12
        assert not np.iscomplexobj(T)

    def test_single_precision(self, rng):
        fmm = _fmm(Q=8, dtype="complex64")
        S = _signal(8, 256, rng, np.complex64)
        T, _ = fmm.apply(S)
        Tref, _ = dense_apply_all(S.astype(np.complex128), 256, 8)
        assert np.linalg.norm(T - Tref) / np.linalg.norm(Tref) < 1e-3

    def test_linearity(self, rng):
        fmm = _fmm()
        S1, S2 = _signal(8, 256, rng), _signal(8, 256, rng)
        T12, r12 = fmm.apply(S1 + 2.0 * S2)
        T1, r1 = fmm.apply(S1)
        T2, r2 = fmm.apply(S2)
        np.testing.assert_allclose(T12, T1 + 2 * T2, atol=1e-10)
        np.testing.assert_allclose(r12, r1 + 2 * r2, atol=1e-10)


class TestStages:
    """Sum preservation of the upward kernels (S2M/M2M columns sum to
    one, Section 4.8), on the planar layout they work in."""

    def test_s2m_preserves_sums(self, rng):
        """Multipole coefficients carry the box sums upward."""
        S = _signal(8, 256, rng).reshape(8, 16, 16)
        Mexp = kernels.unfold(kernels.s2m(_fmm().ops, kernels.fold(S[1:])))
        np.testing.assert_allclose(Mexp.sum(axis=2), S[1:].sum(axis=2), atol=1e-10)

    def test_m2m_preserves_sums(self, rng):
        child = rng.standard_normal((7, 8, 16)) + 0j
        parent = kernels.unfold(kernels.m2m(_fmm().ops, kernels.fold(child)))
        np.testing.assert_allclose(
            parent.sum(axis=(1, 2)), child.sum(axis=(1, 2)), atol=1e-10
        )

    def test_reduce_equals_input_sum(self, rng):
        o = _fmm().ops
        S = _signal(8, 256, rng)
        Mexp = kernels.s2m(o, kernels.fold(S.reshape(8, 16, 16)[1:]))
        for _ in range(2):  # up to the base
            Mexp = kernels.m2m(o, Mexp)
        np.testing.assert_allclose(kernels.reduce(Mexp), S[1:].sum(axis=1), atol=1e-10)

    def test_s2t_is_near_field_only(self, rng):
        """A source in a far box must not touch S2T output."""
        fmm = _fmm(M=256, P=4, ML=16, B=2)
        S = np.zeros((4, 16, 16))
        S[1, 8, 3] = 1.0  # a single source in box 8
        T = fmm.s2t(S)
        # boxes 0..6 and 10..15 are not neighbours of box 8
        assert np.abs(T[0, :6]).max() == 0.0
        assert np.abs(T[0, 11:]).max() == 0.0
        assert np.abs(T[0, 7:10]).max() > 0.0


class TestValidation:
    def test_rejects_distributed_operators(self):
        b = FmmOperators.create(M=256, P=4, ML=16, B=2, Q=8, G=2)
        with pytest.raises(ParameterError):
            BatchedFMM(b)

    def test_rejects_bad_shape(self, rng):
        fmm = _fmm()
        with pytest.raises(ParameterError):
            fmm.apply(np.zeros((8, 128)))

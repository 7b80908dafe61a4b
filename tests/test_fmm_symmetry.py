"""The paper's Section 7 operator symmetries, checked on the shipped operators.

No kernel exploits them (pairing S2T's ``(p, P - p)`` kernels is an open
ROADMAP hypothesis, not a promise); what is pinned here is that they
*hold* for the arrays :class:`FmmOperators` hands the kernels, in the
GEMM layout it hands them in, so a change that does exploit one starts
from a checked fact:

- transpose sharing: ``L2T = S2M^T`` and ``L2L = M2M^T`` (the downward
  kernels reuse the upward operators);
- child mirror: ``M2M+ = J M2M- J`` (first-kind Chebyshev nodes are
  symmetric about 0);
- S2T reversal: ``S2T_{P-p}(k) = -S2T_p(-(k+1))`` (``cot`` is odd);
- M2L persymmetry: ``J K^T J = K`` for every kernel, level and shift.
"""

import numpy as np
import pytest

from repro.fmm import kernels
from repro.fmm import operators as ops
from repro.fmm.plan import FmmOperators


def _bundle(P=8, ML=16, Q=10, N=1 << 14, B=2):
    """L = 7 at the defaults: cousin-list levels 3..7 above base B."""
    return FmmOperators.create(M=N // P, P=P, ML=ML, B=B, Q=Q)


def is_persymmetric(K, atol=1e-12):
    """``J K^T J == K`` on the trailing two axes."""
    return bool(np.allclose(np.swapaxes(K, -1, -2)[..., ::-1, ::-1], K, atol=atol))


class TestTransposeSharing:
    """The downward kernels are the adjoints of the upward ones:
    ``<L2T a, b> = <a, S2M b>`` and ``<L2L a, b> = <a, M2M b>``."""

    def test_l2t_is_s2m_transposed(self, rng):
        o = _bundle()
        a = rng.standard_normal((o.P - 1, 1, 4, o.Q))
        b = rng.standard_normal((o.P - 1, 1, 4, o.ML))
        assert np.vdot(kernels.l2t(o, a), b) == pytest.approx(np.vdot(a, kernels.s2m(o, b)), rel=1e-12)

    def test_l2l_is_m2m_transposed(self, rng):
        o = _bundle()
        a = rng.standard_normal((o.P - 1, 1, 4, o.Q))
        b = rng.standard_normal((o.P - 1, 1, 8, o.Q))
        assert np.vdot(kernels.l2l(o, a), b) == pytest.approx(np.vdot(a, kernels.m2m(o, b)), rel=1e-12)


class TestM2MMirror:
    @pytest.mark.parametrize("Q", [2, 4, 8, 16, 24])
    def test_equals_direct_builder(self, Q):
        """The left-child half determines the shipped ``[M2M- | M2M+]``."""
        m2m = FmmOperators.create(M=64, P=2, ML=16, B=2, Q=Q).m2m
        minus = m2m[:, :Q]
        np.testing.assert_allclose(np.hstack([minus, minus[::-1, ::-1]]), m2m, atol=1e-13)

    def test_mirror_relation_explicit(self):
        Q = 8
        J = np.eye(Q)[::-1]
        np.testing.assert_array_equal(J @ J, np.eye(Q))
        m2m = _bundle(Q=Q).m2m
        np.testing.assert_allclose(J @ m2m[:, :Q] @ J, m2m[:, Q:], atol=1e-13)


class TestS2TReversal:
    @pytest.mark.parametrize("P,ML,N", [(4, 8, 512), (8, 16, 2048), (16, 4, 1024), (32, 8, 1 << 13)])
    def test_rebuild_matches_direct(self, P, ML, N):
        """Kernels ``p > P/2`` of the shipped ``s2t[p, j', i]`` (lag
        ``k = j' - ML - i``) are negated reversals of ``p <= P/2``: the
        lag ``-(k+1)`` of ``(j', i)`` sits at ``(3ML-2-j', ML-1-i)``,
        which leaves out only the last source column."""
        s2t = FmmOperators.create(M=N // P, P=P, ML=ML, B=2, Q=4).s2t
        half = s2t[: P // 2]                            # p = 1 .. P/2
        rebuilt = -half[::-1, ::-1, ::-1][:, 1:, :]     # p = P-1 .. P/2 -> ascending
        np.testing.assert_allclose(s2t[P // 2 - 1:, :-1, :], rebuilt, atol=1e-11)

    def test_paper_identity(self):
        """S2T_{P-p}(k) = -S2T_p(-(k+1)) directly from the cot formula."""
        P, ML, N = 8, 4, 256
        lags = ops.s2t_lags(P, ML, N)
        center = 2 * ML - 1
        for p in range(1, P):
            for k in range(-(2 * ML - 1), 2 * ML - 1):
                lhs = lags[(P - p) - 1, center + k]
                rhs = -lags[p - 1, center - (k + 1)]
                assert lhs == pytest.approx(rhs, rel=1e-12), (p, k)


class TestM2LPersymmetry:
    @pytest.mark.parametrize("level", [3, 4, 6])
    def test_level_tensors(self, level):
        o = _bundle()
        K = o.m2l_level[level].reshape(o.P - 1, 2, 3, o.Q, o.Q)  # [p, parity, si, j, i]
        assert is_persymmetric(K)

    @pytest.mark.parametrize("B", [2, 3, 4])
    def test_base_tensors(self, B):
        o = _bundle(B=B)
        assert is_persymmetric(o.m2l_base.reshape(o.P - 1, -1, o.Q, o.Q))

    def test_detects_asymmetry(self):
        """Control: the check above is not vacuous."""
        assert not is_persymmetric(np.arange(16.0).reshape(4, 4))

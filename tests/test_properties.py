"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.factorization import apply_perm_mp, perm_block_to_cyclic
from repro.fftcore.bluestein import fft_bluestein
from repro.fftcore.stockham import fft_pow2
from repro.fmm.chebyshev import cheb_points, lagrange_eval
from repro.fmm.interaction import coverage_map
from repro.dfft.layout import BlockRows
from repro.model.vfunc import v_levels, v_levels_exact
from repro.util.bitmath import ceil_div, ilog2, is_pow2, next_pow2, pow2_divisors, split_pow2

pow2s = st.integers(min_value=0, max_value=12).map(lambda k: 1 << k)
small_ints = st.integers(min_value=1, max_value=4096)


class TestBitmathProperties:
    @given(small_ints)
    def test_next_pow2_bounds(self, n):
        p = next_pow2(n)
        assert is_pow2(p) and p >= n and p < 2 * n

    @given(small_ints, st.integers(min_value=1, max_value=100))
    def test_ceil_div_definition(self, a, b):
        q = ceil_div(a, b)
        assert (q - 1) * b < a <= q * b

    @given(small_ints)
    def test_split_pow2_reconstructs(self, n):
        odd, k = split_pow2(n)
        assert odd * (1 << k) == n and odd % 2 == 1

    @given(pow2s)
    def test_ilog2_inverse(self, n):
        assert 1 << ilog2(n) == n

    @given(small_ints)
    def test_pow2_divisors_divide(self, n):
        for d in pow2_divisors(n):
            assert n % d == 0 and is_pow2(d)


class TestFftProperties:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=1, max_value=8), st.integers(0, 2**31 - 1))
    def test_parseval_pow2(self, q, seed):
        n = 1 << q
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        X = fft_pow2(x)
        assert np.sum(np.abs(X) ** 2) / n == pytest.approx(np.sum(np.abs(x) ** 2), rel=1e-9)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=2, max_value=200), st.integers(0, 2**31 - 1))
    def test_bluestein_inversion(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = fft_bluestein(fft_bluestein(x, -1), +1) / n
        assert np.abs(y - x).max() < 1e-7

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=1, max_value=8),
           st.integers(0, 2**31 - 1),
           st.integers(min_value=0, max_value=63))
    def test_shift_theorem(self, q, seed, shift):
        n = 1 << q
        shift = shift % n
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        k = np.arange(n)
        lhs = fft_pow2(np.roll(x, shift))
        rhs = fft_pow2(x) * np.exp(-2j * np.pi * shift * k / n)
        assert np.abs(lhs - rhs).max() < 1e-8


class TestPermutationProperties:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 32), st.integers(1, 32))
    def test_perm_is_bijection(self, M, P):
        idx = perm_block_to_cyclic(M, P)
        assert sorted(idx) == list(range(M * P))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**31 - 1))
    def test_perm_inverse(self, M, P, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(M * P)
        assert np.array_equal(apply_perm_mp(apply_perm_mp(x, M, P), P, M), x)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 12), st.integers(1, 12))
    def test_perm_mp_equals_reshape_transpose(self, M, P):
        x = np.arange(M * P)
        np.testing.assert_array_equal(
            apply_perm_mp(x, M, P), x.reshape(M, P).T.ravel()
        )


class TestChebyshevProperties:
    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 20), st.floats(-1.0, 1.0))
    def test_partition_of_unity(self, Q, z):
        L = lagrange_eval(Q, np.array([z]))
        assert L.sum() == pytest.approx(1.0, abs=1e-8)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 16), st.integers(0, 2**31 - 1))
    def test_interpolation_exact_on_random_poly(self, Q, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(Q)  # degree < Q
        f = np.polynomial.polynomial.Polynomial(coeffs)
        z = np.linspace(-1, 1, 13)
        L = lagrange_eval(Q, z)
        assert np.abs(f(cheb_points(Q)) @ L - f(z)).max() < 1e-6


class TestInteractionProperties:
    @settings(deadline=None, max_examples=12)
    @given(st.integers(2, 6), st.integers(2, 6))
    def test_exact_cover(self, L, B):
        if B > L:
            L, B = B, L
        cover = coverage_map(L, B)
        assert set(cover.values()) == {1}
        assert len(cover) == (1 << L) ** 2


class TestLayoutProperties:
    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 4).map(lambda k: 1 << k),
           st.integers(0, 5), st.integers(0, 5), st.integers(0, 2**31 - 1))
    def test_scatter_gather_roundtrip(self, G, rq, cq, seed):
        rows = G * (1 << rq)
        cols = G * (1 << cq)
        lay = BlockRows(rows=rows, cols=cols, G=G)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, cols))
        assert np.array_equal(lay.gather(lay.scatter(a)), a)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 3).map(lambda k: 1 << k), st.integers(0, 4), st.integers(0, 4))
    def test_transposed_involution(self, G, rq, cq):
        lay = BlockRows(rows=G * (1 << rq), cols=G * (1 << cq), G=G)
        assert lay.transposed().transposed() == lay


class TestModelProperties:
    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 3).map(lambda k: 1 << k),
           st.integers(2, 8), st.integers(8, 14))
    def test_v_levels_identity(self, G, B, L):
        if B > L:
            return
        if L <= ilog2(G):
            return
        assert v_levels(L, B, G) == pytest.approx(v_levels_exact(L, B, G))


class TestFmmFftProperty:
    @settings(deadline=None, max_examples=8)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_oracle_on_random_input(self, seed):
        from repro.core.plan import FmmFftPlan
        from repro.core.single import fmmfft_single

        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, 2048) + 1j * rng.uniform(-1, 1, 2048)
        plan = FmmFftPlan.create(N=2048, P=8, ML=16, B=3, Q=16)
        out = fmmfft_single(x, plan)
        ref = np.fft.fft(x)
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-13

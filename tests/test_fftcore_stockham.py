import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fftcore.oracle import reference_fft, reference_ifft
from repro.fftcore.plan import LocalFFTPlan
from repro.fftcore.stockham import dft_direct, fft_pow2
from repro.util.validation import ParameterError


def _rand(shape, rng, dtype=np.complex128):
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


class TestForward:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64, 128, 256, 1024, 4096])
    def test_matches_numpy(self, n, rng):
        x = _rand(n, rng)
        np.testing.assert_allclose(fft_pow2(x), np.fft.fft(x), rtol=0, atol=1e-9 * n)

    @pytest.mark.parametrize("n", [2, 8, 32, 512])
    def test_matches_direct_dft(self, n, rng):
        x = _rand(n, rng)
        np.testing.assert_allclose(fft_pow2(x), dft_direct(x), atol=1e-9 * n)

    def test_batched(self, rng):
        x = _rand((5, 3, 64), rng)
        np.testing.assert_allclose(fft_pow2(x), np.fft.fft(x, axis=-1), atol=1e-10)

    def test_real_input_promoted(self, rng):
        x = rng.standard_normal(32)
        y = fft_pow2(x)
        assert y.dtype == np.complex128
        np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-12)

    def test_single_precision(self, rng):
        x = _rand(256, rng, np.complex64)
        y = fft_pow2(x)
        assert y.dtype == np.complex64
        rel = np.linalg.norm(y - np.fft.fft(x.astype(np.complex128))) / np.linalg.norm(y)
        assert rel < 1e-5


class TestInverse:
    @pytest.mark.parametrize("n", [4, 64, 1024])
    def test_roundtrip(self, n, rng):
        x = _rand(n, rng)
        y = fft_pow2(fft_pow2(x, sign=-1), sign=+1) / n
        np.testing.assert_allclose(y, x, atol=1e-10)

    def test_inverse_matches_numpy(self, rng):
        x = _rand(128, rng)
        np.testing.assert_allclose(fft_pow2(x, sign=+1) / 128, np.fft.ifft(x), atol=1e-10)


class TestValidation:
    def test_rejects_non_pow2(self, rng):
        with pytest.raises(ValueError):
            fft_pow2(_rand(12, rng))

    def test_rejects_bad_sign(self, rng):
        with pytest.raises(ValueError):
            fft_pow2(_rand(8, rng), sign=0)

    def test_dft_direct_refuses_large(self, rng):
        with pytest.raises(ParameterError):
            dft_direct(_rand(8192, rng))


class TestBatchInvariance:
    """A row's bits do not depend on how many rows share the call.

    The serving tier's coalesced-vs-one-by-one determinism gate
    (test_serve_scheduler.TestDeterminism) rests on this; CI runs it at
    OPENBLAS_NUM_THREADS=1 and =2, where BLAS may split rows across
    threads.
    """

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("n", [8, 128, 512, 2048, 1 << 14])
    def test_stacked_rows_bit_identical(self, n, dtype, sign, rng):
        stack = _rand((7, n), rng, dtype)
        together = fft_pow2(stack, sign=sign)
        for i in range(len(stack)):
            assert np.array_equal(together[i], fft_pow2(stack[i], sign=sign))
            assert np.array_equal(together[i], fft_pow2(stack[i : i + 2], sign=sign)[0])


#: the contract: relative l2 error of an n-point transform against the
#: double-precision oracle is at most C * log2(n) * eps(dtype).  Measured
#: worst case over Gaussian, uniform, tone-plus-noise and 12-decade
#: dynamic-range signals, n = 2..2^16: 0.38 (forward), 0.59 (round trip).
C = 1.0


def _energy(a) -> float:
    """``sum |a|^2`` in double with the sum itself exact (``math.fsum``):
    a ~10^6-term ``np.linalg.norm`` rounds by more than the few ulp the
    Parseval tolerance leaves beside the transform's own error."""
    a = np.asarray(a, dtype=np.complex128).ravel()
    return math.fsum(a.real * a.real + a.imag * a.imag)


class TestNumericalContract:
    @settings(deadline=None, max_examples=120)
    @example(q=16, dtype=np.complex128, sign=1, batch=(3, 5), layout="contiguous", seed=16)
    @given(
        q=st.integers(1, 16),
        dtype=st.sampled_from([np.complex64, np.complex128]),
        sign=st.sampled_from([-1, 1]),
        batch=st.sampled_from([(), (1,), (3, 5)]),
        layout=st.sampled_from(["contiguous", "strided", "axis0"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_error_bound_roundtrip_parseval(self, q, dtype, sign, batch, layout, seed):
        n = 1 << q
        rng = np.random.default_rng(seed)
        if layout == "strided":
            x, axis = _rand(batch + (2 * n,), rng, dtype)[..., ::2], -1
        elif layout == "axis0":
            x, axis = _rand((n,) + batch, rng, dtype), 0
        else:
            x, axis = _rand(batch + (n,), rng, dtype), -1
        plan = LocalFFTPlan(n, dtype=dtype)
        bound = C * q * np.finfo(dtype).eps
        norm = np.linalg.norm(x)

        if sign < 0:
            y, ref = plan.forward(x, axis=axis), reference_fft(x, axis=axis)
            back = plan.inverse(y, axis=axis)
        else:
            y, ref = plan.inverse(x, axis=axis), reference_ifft(x, axis=axis)
            back = plan.forward(y, axis=axis)
        assert y.dtype == dtype and y.shape == x.shape
        assert np.linalg.norm(y - ref) <= bound * np.linalg.norm(ref)
        assert np.linalg.norm(back - x) <= 2 * bound * norm
        # Parseval, with the 1/n of whichever direction carried it.  The
        # yardstick first: it must pass on the oracle's own output
        scale = n if sign > 0 else 1 / n
        energy_in = _energy(x)
        ulps = 8 * np.finfo(float).eps
        assert abs(_energy(ref) * scale - energy_in) <= (
            2 * C * q * np.finfo(float).eps + ulps) * energy_in
        assert abs(_energy(y) * scale - energy_in) <= (2 * bound + ulps) * energy_in
        # convention check against the O(n^2) sum, which does not go
        # through numpy.fft; its own float-argument twiddles are only
        # good to ~n * eps, and its n^2 operator to ~1e3 points
        if n <= 1024:
            moved = np.moveaxis(x, axis, -1)
            direct = dft_direct(moved, sign=sign) / (n if sign > 0 else 1)
            assert np.linalg.norm(np.moveaxis(y, axis, -1) - direct) <= (
                n * np.finfo(dtype).eps * np.linalg.norm(direct))


class TestLinearity:
    def test_linear(self, rng):
        x, y = _rand(64, rng), _rand(64, rng)
        a, b = 2.5, -1.5 + 0.5j
        np.testing.assert_allclose(
            fft_pow2(a * x + b * y), a * fft_pow2(x) + b * fft_pow2(y), atol=1e-10
        )

    def test_parseval(self, rng):
        x = _rand(256, rng)
        X = fft_pow2(x)
        np.testing.assert_allclose(
            np.sum(np.abs(X) ** 2) / 256, np.sum(np.abs(x) ** 2), rtol=1e-12
        )

    def test_impulse(self):
        x = np.zeros(64, dtype=np.complex128)
        x[0] = 1.0
        np.testing.assert_allclose(fft_pow2(x), np.ones(64), atol=1e-12)

    def test_shift_theorem(self, rng):
        n = 128
        x = _rand(n, rng)
        k = np.arange(n)
        shifted = np.roll(x, 3)
        np.testing.assert_allclose(
            fft_pow2(shifted),
            fft_pow2(x) * np.exp(-2j * np.pi * 3 * k / n),
            atol=1e-9,
        )

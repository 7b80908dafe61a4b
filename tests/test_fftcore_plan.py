import re

import numpy as np
import pytest

from repro.fftcore.bluestein import fft_bluestein
from repro.fftcore.oracle import reference_fft
from repro.fftcore.plan import LocalFFTPlan, fft, ifft
from repro.fftcore.stockham import fft_pow2
from repro.fftcore.twiddle import twiddle_block, twiddles
from repro.util.validation import ParameterError


class TestPlanConstruction:
    def test_auto_pow2_is_stockham(self):
        assert LocalFFTPlan(64).kernel is fft_pow2

    def test_auto_general_is_bluestein(self):
        assert LocalFFTPlan(60).kernel is fft_bluestein

    def test_stockham_rejects_non_pow2(self):
        """The GEMM passes refuse the length a plan never hands them."""
        with pytest.raises(ParameterError, match="60"):
            fft_pow2(np.zeros(60, dtype=complex))

    def test_rejects_real_dtype(self):
        with pytest.raises(ParameterError):
            LocalFFTPlan(8, dtype="float64")

    def test_rejects_unknown_backend(self):
        """The kernel follows from ``n``; there is no switch to set."""
        with pytest.raises(TypeError, match="backend"):
            LocalFFTPlan(8, backend="numpy")

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ParameterError):
            LocalFFTPlan(0)


_X = np.zeros((2, 8), dtype=complex)

#: every way into fftcore with an argument it cannot use, and the text
#: the error must carry (the offending value)
BAD_INPUT = {
    "axis-out-of-range": (lambda: LocalFFTPlan(8).forward(_X, axis=5), "5"),
    "axis-not-int": (lambda: LocalFFTPlan(8).forward(_X, axis=1.0), "1.0"),
    "0-d-input": (lambda: LocalFFTPlan(8).forward(np.float64(3.0)), "shape ()"),
    "inverse-0-d-input": (lambda: LocalFFTPlan(8).inverse(np.float64(3.0)), "()"),
    "plan-float-n": (lambda: LocalFFTPlan(8.0), "8.0"),
    "plan-bool-n": (lambda: LocalFFTPlan(True), "True"),
    "plan-negative-n": (lambda: LocalFFTPlan(-4), "-4"),
    "fft_pow2-list": (lambda: fft_pow2([1, 2, 3, 4]), "list"),
    "fft_pow2-0-d": (lambda: fft_pow2(np.array(3.0)), "ndim 0"),
    "fft_pow2-length": (lambda: fft_pow2(np.zeros(12)), "12"),
    "fft_pow2-empty": (lambda: fft_pow2(np.zeros((3, 0))), "0"),
    "fft_pow2-sign": (lambda: fft_pow2(_X, sign=0), "0"),
    "fft_pow2-bool-sign": (lambda: fft_pow2(_X, sign=True), "True"),
    "bluestein-list": (lambda: fft_bluestein([1, 2, 3]), "list"),
    "bluestein-empty": (lambda: fft_bluestein(np.zeros((3, 0))), "0"),
    "bluestein-sign": (lambda: fft_bluestein(_X, sign=2), "2"),
    "twiddles-zero": (lambda: twiddles(0, -1), "0"),
    "twiddles-negative": (lambda: twiddles(-1, -1), "-1"),
    "twiddles-sign": (lambda: twiddles(8, 3), "3"),
    "twiddle_block-float-n": (lambda: twiddle_block(8.5, 2, 2, -1), "8.5"),
}


class TestBadInputDoors:
    @pytest.mark.parametrize("case", sorted(BAD_INPUT))
    def test_parameter_error_names_the_value(self, case):
        call, value = BAD_INPUT[case]
        with pytest.raises(ParameterError, match=re.escape(value)):
            call()


class TestPlanApply:
    @pytest.mark.parametrize("n", [128, 120], ids=["stockham", "bluestein"])
    def test_forward(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(LocalFFTPlan(n).forward(x), reference_fft(x), atol=1e-9)

    def test_bluestein_agrees_with_the_plan_on_pow2(self, rng):
        """The two kernels are one transform where both apply."""
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        np.testing.assert_allclose(fft_bluestein(x), LocalFFTPlan(128).forward(x), atol=1e-9)

    @pytest.mark.parametrize("n", [64, 60], ids=["stockham", "bluestein"])
    def test_inverse_roundtrip(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        plan = LocalFFTPlan(n)
        np.testing.assert_allclose(plan.inverse(plan.forward(x)), x, atol=1e-9)

    def test_axis_argument(self, rng):
        x = rng.standard_normal((8, 16, 4)) + 0j
        plan = LocalFFTPlan(16)
        np.testing.assert_allclose(plan.forward(x, axis=1), np.fft.fft(x, axis=1), atol=1e-10)

    def test_wrong_axis_length(self, rng):
        plan = LocalFFTPlan(16)
        with pytest.raises(ParameterError):
            plan.forward(np.zeros(15, dtype=complex))

    def test_single_precision_output(self, rng):
        plan = LocalFFTPlan(32, dtype="complex64")
        out = plan.forward(np.ones(32, dtype=np.complex64))
        assert out.dtype == np.complex64

    def test_reusable(self, rng):
        plan = LocalFFTPlan(32)
        for _ in range(3):
            x = rng.standard_normal(32) + 0j
            np.testing.assert_allclose(plan.forward(x), np.fft.fft(x), atol=1e-10)


class TestConvenience:
    def test_fft_matches(self, rng):
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-8)

    def test_ifft_matches(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_allclose(ifft(x), np.fft.ifft(x), atol=1e-10)

    def test_float32_input_uses_complex64(self):
        out = fft(np.ones(8, dtype=np.float32))
        assert out.dtype == np.complex64

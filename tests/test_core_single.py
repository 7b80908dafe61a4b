import numpy as np
import pytest

from repro.core.plan import FmmFftPlan
from repro.core.single import fmmfft_batched, fmmfft_relative_error, fmmfft_single
from repro.fftcore.oracle import reference_fft
from repro.util.prng import random_signal
from repro.util.validation import ParameterError


class TestAccuracy:
    @pytest.mark.parametrize(
        "N,P,ML,B",
        [
            (4096, 8, 16, 3),
            (4096, 16, 16, 2),
            (4096, 32, 8, 2),
            (1 << 14, 16, 64, 2),
            (1 << 14, 64, 16, 4),
            (1 << 16, 64, 64, 2),
        ],
    )
    def test_double_precision_claim(self, N, P, ML, B):
        """Section 6.1: ~2e-14 relative l2 error in double-complex.

        The paper quotes < 2e-14 for its fastest configurations; we allow
        a small margin since this sweep includes deliberately stressed
        parameter corners (tiny M_L, many kernels at small N).
        """
        plan = FmmFftPlan.create(N=N, P=P, ML=ML, B=B, Q=16)
        x = random_signal(N, "complex128", seed=1)
        err = fmmfft_relative_error(x, plan)
        assert err < 5e-14

    def test_single_precision_claim(self):
        """Section 6.1: < 4e-7 relative l2 error in single-complex."""
        plan = FmmFftPlan.create(N=4096, P=8, ML=16, B=3, Q=8, dtype="complex64")
        x = random_signal(4096, "complex64", seed=2)
        err = fmmfft_relative_error(x, plan)
        assert err < 4e-7

    def test_own_fft_backend_agrees(self):
        """The full pipeline through our Stockham engine (no numpy.fft)."""
        plan = FmmFftPlan.create(N=4096, P=8, ML=16, B=3, Q=16)
        x = random_signal(4096, seed=3)
        ours = fmmfft_single(x, plan)
        ref = np.fft.fft(x)
        assert np.linalg.norm(ours - ref) / np.linalg.norm(ref) < 2e-13

    def test_real_input(self):
        plan = FmmFftPlan.create(N=2048, P=8, ML=16, B=2, Q=16)
        x = random_signal(2048, "float64", seed=4)
        out = fmmfft_single(x, plan)
        ref = np.fft.fft(x)
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-13

    def test_impulse(self):
        plan = FmmFftPlan.create(N=1024, P=4, ML=16, B=2, Q=16)
        x = np.zeros(1024, dtype=np.complex128)
        x[5] = 1.0
        out = fmmfft_single(x, plan)
        np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-12)

    def test_pure_tone_spectrum(self):
        plan = FmmFftPlan.create(N=1024, P=4, ML=16, B=2, Q=16)
        t = np.arange(1024) / 1024
        x = np.exp(2j * np.pi * 100 * t)
        out = fmmfft_single(x, plan)
        assert np.argmax(np.abs(out)) == 100
        assert abs(out[100]) == pytest.approx(1024, rel=1e-10)

    def test_linearity(self):
        plan = FmmFftPlan.create(N=1024, P=4, ML=16, B=2, Q=16)
        x, y = random_signal(1024, seed=5), random_signal(1024, seed=6)
        fx = fmmfft_single(x, plan)
        fy = fmmfft_single(y, plan)
        fxy = fmmfft_single(x + 3j * y, plan)
        np.testing.assert_allclose(fxy, fx + 3j * fy, atol=1e-9)


class TestQBehaviour:
    def test_error_decreases_with_q(self):
        """Figure 9 (bottom): error falls with Q to a ~1e-15 floor."""
        x = random_signal(4096, seed=7)
        errs = {}
        for Q in (4, 8, 12, 16, 20):
            plan = FmmFftPlan.create(N=4096, P=8, ML=16, B=3, Q=Q)
            errs[Q] = fmmfft_relative_error(x, plan)
        assert errs[8] < errs[4] * 1e-1
        assert errs[16] < errs[8] * 1e-2
        assert errs[20] < 1e-13

    def test_error_floor_at_machine_precision(self):
        """Accuracy does not improve above Q ~ 18 (Section 6.3.4)."""
        x = random_signal(4096, seed=8)
        plan18 = FmmFftPlan.create(N=4096, P=8, ML=16, B=3, Q=18)
        plan24 = FmmFftPlan.create(N=4096, P=8, ML=16, B=3, Q=24)
        e18 = fmmfft_relative_error(x, plan18)
        e24 = fmmfft_relative_error(x, plan24)
        assert e24 > e18 * 0.1  # no order-of-magnitude gain past 18


class TestOneBody:
    """``fmmfft_single`` is the ``k = 1`` call of ``fmmfft_batched``,
    and a row's bits do not depend on what shares its stack."""

    @pytest.mark.parametrize("dtype", ["complex64", "complex128"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_single_is_batched_k1_bit_for_bit(self, kind, dtype):
        plan = FmmFftPlan.create(N=4096, P=8, ML=16, B=3, Q=16, dtype=dtype)
        xs = np.stack([random_signal(4096, dtype, seed=s) for s in (1, 2, 3)])
        xs = xs.real if kind == "real" else xs
        stacked = fmmfft_batched(xs, plan)
        for x, row in zip(xs, stacked):
            one = fmmfft_single(x, plan)
            assert one.dtype == np.dtype(dtype)
            assert np.array_equal(one, fmmfft_batched(x[None], plan)[0])
            assert np.array_equal(one, row)


class TestInputUntouched:
    """The fold reads the caller's stack in place and POST runs in place
    on the output: the stack stays as it was, the output is not a view
    of it."""

    @pytest.mark.parametrize("dtype", ["complex64", "complex128"])
    def test_batched_neither_writes_nor_aliases_the_input(self, dtype):
        plan = FmmFftPlan.create(N=4096, P=8, ML=16, B=3, Q=16, dtype=dtype)
        xs = np.stack([random_signal(4096, dtype, seed=s) for s in (1, 2)])
        xs0 = xs.copy()
        ys = fmmfft_batched(xs, plan)
        assert xs.tobytes() == xs0.tobytes()
        ys0 = ys.copy()
        xs *= 2
        assert ys.tobytes() == ys0.tobytes()
        tol = 1e-5 if dtype == "complex64" else 1e-12
        for x, y in zip(xs0, ys):
            ref = reference_fft(x)
            assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < tol


class TestValidation:
    def test_shape_check(self):
        plan = FmmFftPlan.create(N=1024, P=4, ML=16, B=2, Q=8)
        with pytest.raises(ParameterError):
            fmmfft_single(np.zeros(512, dtype=complex), plan)

    def test_requires_operators(self):
        plan = FmmFftPlan.create(N=1024, P=4, ML=16, B=2, Q=8, build_operators=False)
        with pytest.raises(ParameterError):
            fmmfft_single(np.zeros(1024, dtype=complex), plan)

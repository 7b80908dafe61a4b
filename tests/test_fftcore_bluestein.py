import numpy as np
import pytest

from repro.fftcore import bluestein
from repro.fftcore.bluestein import fft_bluestein
from repro.fftcore.twiddle import clear_cache


def _rand(n, rng):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestBluestein:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 12, 17, 31, 100, 127, 1000])
    def test_matches_numpy(self, n, rng):
        x = _rand(n, rng)
        np.testing.assert_allclose(fft_bluestein(x), np.fft.fft(x), atol=1e-8)

    @pytest.mark.parametrize("n", [4, 64, 256])
    def test_pow2_agrees_too(self, n, rng):
        x = _rand(n, rng)
        np.testing.assert_allclose(fft_bluestein(x), np.fft.fft(x), atol=1e-8)

    @pytest.mark.parametrize("n", [3, 30, 97])
    def test_inverse_roundtrip(self, n, rng):
        x = _rand(n, rng)
        y = fft_bluestein(fft_bluestein(x, sign=-1), sign=+1) / n
        np.testing.assert_allclose(y, x, atol=1e-8)

    def test_batched(self, rng):
        x = (rng.standard_normal((4, 30)) + 1j * rng.standard_normal((4, 30)))
        np.testing.assert_allclose(fft_bluestein(x), np.fft.fft(x, axis=-1), atol=1e-8)

    def test_rejects_bad_sign(self, rng):
        with pytest.raises(ValueError):
            fft_bluestein(_rand(5, rng), sign=2)

    def test_chirp_cached_second_call_two_ffts(self, rng, monkeypatch):
        # the chirp and its padded transform are per-(n, sign, dtype)
        # constants: the first call pays three power-of-two FFTs, every
        # later one two, and the answer does not change by a bit
        calls = []
        real = bluestein.fft_pow2
        monkeypatch.setattr(bluestein, "fft_pow2",
                            lambda a, sign=-1: calls.append(sign) or real(a, sign=sign))
        clear_cache()
        x = _rand((3, 60), rng)
        first = fft_bluestein(x)
        assert len(calls) == 3
        second = fft_bluestein(x)
        assert calls[3:] == [-1, 1]
        assert np.array_equal(first, second)
        fft_bluestein(x, sign=+1)  # a different key: the chirp is rebuilt
        assert len(calls) == 8

    def test_single_precision_dtype(self, rng):
        x = _rand(31, rng).astype(np.complex64)
        y = fft_bluestein(x)
        assert y.dtype == np.complex64

    def test_large_n_chirp_accuracy(self, rng):
        # The j^2 mod 2n reduction keeps the chirp exact at sizes where
        # naive j^2 would lose integer precision in double.
        n = 99991
        x = np.zeros(n, dtype=np.complex128)
        x[1] = 1.0
        got = fft_bluestein(x)
        k = np.arange(n)
        expected = np.exp(-2j * np.pi * k / n)
        assert np.abs(got - expected).max() < 1e-7

    def test_linearity(self, rng):
        x, y = _rand(21, rng), _rand(21, rng)
        np.testing.assert_allclose(
            fft_bluestein(x + 2j * y),
            fft_bluestein(x) + 2j * fft_bluestein(y),
            atol=1e-8,
        )

"""Real host-CPU benchmarks of the library's compute kernels.

Unlike the figure benches (which report *simulated* device time), these
measure the actual NumPy implementations on this machine via
pytest-benchmark — the numbers a developer profiles when optimizing the
substrate (see the HPC guides: measure, don't guess).
"""

import numpy as np
import pytest

from repro.core.plan import FmmFftPlan
from repro.core.single import fmmfft_single
from repro.fftcore.stockham import fft_pow2
from repro.fftcore.bluestein import fft_bluestein
from repro.fmm.batched import BatchedFMM
from repro.fmm.plan import FmmOperators
from repro.fmm.reference import dense_apply_all
from repro.util.prng import random_signal


@pytest.fixture(scope="module")
def signal_2_16():
    return random_signal(1 << 16, seed=0)


def test_host_stockham_2_16(benchmark, signal_2_16):
    out = benchmark(fft_pow2, signal_2_16)
    assert out.shape == signal_2_16.shape


def test_host_stockham_radix2_2_16(benchmark, signal_2_16):
    out = benchmark(lambda: fft_pow2(signal_2_16, radix=2))
    assert out.shape == signal_2_16.shape


def test_host_bluestein_60000(benchmark):
    x = random_signal(60000, seed=1)
    out = benchmark(fft_bluestein, x)
    assert out.shape == x.shape


def test_host_batched_fmm(benchmark, rng_seed=3):
    ops = FmmOperators.create(M=4096, P=16, ML=64, B=3, Q=16)
    fmm = BatchedFMM(ops)
    rng = np.random.default_rng(rng_seed)
    S = rng.uniform(-1, 1, (16, 4096)) + 1j * rng.uniform(-1, 1, (16, 4096))
    T, r = benchmark(fmm.apply, S)
    # the dense oracle, so a fast-but-wrong kernel cannot pass
    Tref, rref = dense_apply_all(S, 4096, 16)
    assert np.linalg.norm(T - Tref) / np.linalg.norm(Tref) < 1e-13
    assert np.linalg.norm(r - rref) / np.linalg.norm(rref) < 1e-13


def test_host_fmmfft_end_to_end(benchmark):
    plan = FmmFftPlan.create(N=1 << 14, P=16, ML=64, B=3, Q=16)
    x = random_signal(1 << 14, seed=4)
    out = benchmark(lambda: fmmfft_single(x, plan, backend="auto"))
    ref = np.fft.fft(x)
    assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-13


def test_host_numpy_fft_reference(benchmark, signal_2_16):
    """pocketfft on the same input, for context."""
    out = benchmark(np.fft.fft, signal_2_16)
    assert out.shape == signal_2_16.shape

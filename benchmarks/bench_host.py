"""Host wall-clock benches: what the NumPy substrate costs on this machine.

The paper's claims run on the simulated clock (``repro.figures``); these
read the host's clock, so they stay out of the deterministic tier-1 suite.
"""

import math
import time

import numpy as np

from repro.nufft import nufft2
from repro.nufft.nonuniform_fmm import NonuniformPeriodicFMM


def test_fig1_host_batched_matmul(benchmark):
    """Real measured batched GEMM on this host (NumPy/BLAS), the
    engine's compute substrate."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 128, 128))
    b = rng.standard_normal((64, 128, 128))

    result = benchmark(lambda: a @ b)
    assert result.shape == (64, 128, 128)


def test_nufft_scaling(benchmark):
    """FMM evaluation cost grows ~linearly in points; dense grows
    quadratically.  Measured on this host."""
    rng = np.random.default_rng(4)

    def measure(n):
        src = rng.uniform(0, 1, n)
        tgt = rng.uniform(0, 1, n)
        L = max(3, int(math.log2(n)) - 5)
        fmm = NonuniformPeriodicFMM(src, tgt, L=L, B=3 if L >= 3 else 2, Q=12)
        w = rng.standard_normal(n)
        t0 = time.perf_counter()
        fmm.apply(w)
        return time.perf_counter() - t0

    def sweep():
        return {n: measure(n) for n in (1000, 4000, 16000)}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # 16x the points should cost far less than 256x (the dense ratio)
    assert times[16000] < 64 * times[1000]


def test_nufft2_host_throughput(benchmark):
    rng = np.random.default_rng(5)
    n, m = 1024, 5000
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = rng.uniform(0, 1, m)
    out = benchmark(lambda: nufft2(c, x, Q=12))
    assert out.shape == (m,)

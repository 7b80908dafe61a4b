"""The baseline comparator: the cuFFTXT-style distributed 1D FFT.

A thin convenience over :class:`~repro.dfft.fft1d.Distributed1DFFT` so
benchmarks construct the paper's comparison ("Speedup over 1D cuFFTXT")
in one call with matching conventions.
"""

from __future__ import annotations

import numpy as np

from repro.dfft.fft1d import Distributed1DFFT
from repro.machine.cluster import VirtualCluster


def baseline_1d_fft(
    N: int,
    cluster: VirtualCluster,
    x: np.ndarray | None = None,
    dtype="complex128",
    chunks: int = 4,
) -> tuple[np.ndarray | None, float]:
    """Run the six-step baseline once; returns ``(result, wall_seconds)``.

    The cluster's clocks are *not* reset first — call on a fresh or
    freshly-reset cluster for standalone timings.
    """
    t0 = cluster.wall_time()
    plan = Distributed1DFFT(N, cluster, dtype=dtype, chunks=chunks)
    out = plan.run(x)
    return out, cluster.wall_time() - t0

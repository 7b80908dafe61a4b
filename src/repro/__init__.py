"""repro: a full reproduction of "Low Communication FMM-Accelerated FFT
on GPUs" (Cris Cecka, SC '17).

The package provides, from scratch:

- the **FMM-FFT** itself (:mod:`repro.core`) — the single-all-to-all
  factorization ``F_N = F_{M,P} H^_{M,P}`` with every FMM stage a
  batched dense tensor contraction;
- the **periodic 1D interpolative FMM** substrate (:mod:`repro.fmm`);
- a **local FFT engine** (:mod:`repro.fftcore`: GEMM passes + Bluestein);
- a **distributed FFT library** (:mod:`repro.dfft`) with the six-step
  three-transpose baseline and the single-transpose 2D FFT;
- a **virtual multi-GPU cluster** (:mod:`repro.machine`) that executes
  real NumPy numerics while simulating K40c/P100-class timing via the
  paper's roofline model, streams, and interconnect topologies;
- the **Section 5 performance model** (:mod:`repro.model`) and the
  parameter search behind the paper's Figure 3.

Quick start::

    import numpy as np
    from repro import fmmfft

    x = np.random.default_rng(0).uniform(-1, 1, 4096).astype(np.complex128)
    X = fmmfft(x)                 # == np.fft.fft(x) to ~1e-14
"""

from __future__ import annotations

from repro.core.api import fmmfft, fourier_transform, ifmmfft
from repro.core.plan import FmmFftPlan
from repro.core.single import fmmfft_single
from repro.core.distributed import FmmFftDistributed
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import preset

__version__ = "1.0.0"

__all__ = [
    "FmmFftDistributed",
    "FmmFftPlan",
    "VirtualCluster",
    "__version__",
    "fmmfft",
    "fmmfft_single",
    "fourier_transform",
    "ifmmfft",
    "preset",
]

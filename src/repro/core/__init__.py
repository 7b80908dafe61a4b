"""The FMM-FFT — the paper's primary contribution.

``F_N = F_{M,P} * H^_{M,P}``: P-1 interleaved periodic 1D FMMs followed
by a distributed M x P 2D FFT (one all-to-all), replacing the six-step
1D FFT's three all-to-alls.

- :mod:`repro.core.factorization` — permutation operators and dense
  Fourier-matrix factorization builders (the machine-precision validity
  checks behind everything else).
- :mod:`repro.core.kernels` — the ``C_p`` cotangent kernel matrices,
  ``rho_p`` prefactors, and the dense ``H`` / ``H^`` operators.
- :mod:`repro.core.plan` — :class:`FmmFftPlan`: parameter validation
  (``N = M P``, ``M = M_L 2^L``, ``L >= B >= 2``, ``G | 2^B``...) and
  operator precomputation.
- :mod:`repro.core.single` — single-device NumPy execution (the
  accuracy workhorse, Figure 9).
- :mod:`repro.core.distributed` — Algorithm 1 + fused POST + 2D FFT on
  a :class:`~repro.machine.cluster.VirtualCluster`.
- :mod:`repro.core.api` — one-call conveniences.
"""

from __future__ import annotations

from repro.core.plan import FmmFftPlan
from repro.core.single import fmmfft_single
from repro.core.distributed import FmmFftDistributed
from repro.core.api import fmmfft, fourier_transform, ifmmfft

__all__ = [
    "FmmFftDistributed",
    "FmmFftPlan",
    "fmmfft",
    "fmmfft_single",
    "fourier_transform",
    "ifmmfft",
]

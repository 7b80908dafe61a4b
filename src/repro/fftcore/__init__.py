"""From-scratch local FFT engine (the cuFFT-substitute substrate).

The paper's pipelines lean on a vendor FFT (cuFFT) for the *local*
transforms inside the distributed 1D and 2D FFTs.  This package provides
that substrate:

- :mod:`repro.fftcore.stockham` — the power-of-two FFT as dense-DFT GEMM
  passes (``n = a * b``: ``F_a`` matmul, twiddle, ``F_b`` matmul), the
  paper's every-stage-a-BatchedGEMM rule applied to the local transform.
- :mod:`repro.fftcore.twiddle` — roots of unity (twiddles, DFT operators,
  six-step blocks), correctly rounded, in one bounded process-wide cache.
- :mod:`repro.fftcore.bluestein` — chirp-z (Bluestein) transform for
  arbitrary lengths, built on the power-of-two core.
- :mod:`repro.fftcore.plan` — :class:`LocalFFTPlan` (GEMM passes for
  powers of two, Bluestein otherwise), plus module-level
  :func:`fft` / :func:`ifft` conveniences.
- :mod:`repro.fftcore.flops` — flop/memory-pass cost model used by the
  machine simulator to price local FFT launches.
"""

from __future__ import annotations

from repro.fftcore.plan import LocalFFTPlan, fft, ifft
from repro.fftcore.stockham import fft_pow2
from repro.fftcore.bluestein import fft_bluestein
from repro.fftcore.flops import fft_flops, fft_mops
from repro.fftcore.oracle import reference_fft, reference_ifft, reference_rfft
from repro.fftcore.real import irfft_pow2, rfft_pow2

__all__ = [
    "LocalFFTPlan",
    "fft",
    "fft_bluestein",
    "fft_flops",
    "fft_mops",
    "fft_pow2",
    "ifft",
    "irfft_pow2",
    "reference_fft",
    "reference_ifft",
    "reference_rfft",
    "rfft_pow2",
]

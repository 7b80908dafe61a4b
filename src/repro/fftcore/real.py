"""Real-input transforms via Hermitian symmetry.

The paper's C factor already accounts for real input costing half a
complex transform; this module realizes that saving in the local engine:
a length-n real FFT is computed with one length-n/2 complex FFT plus an
O(n) untangling pass (the classic "two-for-one" trick), matching
``numpy.fft.rfft`` conventions (n//2 + 1 output bins).
"""

from __future__ import annotations

import numpy as np

from repro.fftcore.stockham import fft_pow2
from repro.fftcore.twiddle import twiddles
from repro.util.bitmath import is_pow2
from repro.util.validation import ParameterError


def rfft_pow2(x: np.ndarray) -> np.ndarray:
    """Forward FFT of real input along the last axis (power-of-two n).

    Returns the ``n//2 + 1`` non-redundant bins, like ``numpy.fft.rfft``.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if not is_pow2(n) or n < 2:
        raise ParameterError(f"rfft_pow2 requires power-of-two n >= 2, got {n}")
    if x.dtype.kind == "c":
        raise ParameterError("rfft_pow2 requires real input")
    cdt = np.complex64 if x.dtype == np.float32 else np.complex128
    h = n // 2
    # pack even/odd samples into one complex signal z[k] = x[2k] + i x[2k+1]
    z = (x[..., 0::2] + 1j * x[..., 1::2]).astype(cdt)
    Z = fft_pow2(z, sign=-1)
    # untangle: E_k = (Z_k + conj(Z_{-k}))/2, O_k = (Z_k - conj(Z_{-k}))/(2i)
    idx = (-np.arange(h)) % h
    Zc = np.conj(Z[..., idx])
    E = 0.5 * (Z + Zc)
    O = -0.5j * (Z - Zc)
    w = twiddles(n, -1, cdt)[:h]
    out = np.empty(x.shape[:-1] + (h + 1,), dtype=cdt)
    out[..., :h] = E + w * O  # bins 0..h-1
    out[..., h] = (E[..., 0] - O[..., 0]).real  # bin h = E_0 - O_0 (real)
    return out


def irfft_pow2(X: np.ndarray, n: int | None = None) -> np.ndarray:
    """Inverse of :func:`rfft_pow2`: Hermitian bins -> real signal.

    Parameters
    ----------
    X:
        ``(..., n//2 + 1)`` spectrum.
    n:
        Output length (defaults to ``2 * (X.shape[-1] - 1)``).
    """
    X = np.asarray(X)
    if n is None:
        n = 2 * (X.shape[-1] - 1)
    if not is_pow2(n) or X.shape[-1] != n // 2 + 1:
        raise ParameterError(
            f"irfft_pow2 needs n//2+1 = {n // 2 + 1} bins for n = {n}, got {X.shape[-1]}"
        )
    h = n // 2
    cdt = np.complex64 if X.dtype == np.complex64 else np.complex128
    Xh = X[..., :h]
    # invert rfft_pow2's untangling: X_{-k} by Hermitian symmetry, then
    # Z_k = E_k + i O_k
    Xm = np.conj(np.concatenate([X[..., h:h + 1], Xh[..., :0:-1]], axis=-1))
    w = np.conj(twiddles(n, -1, cdt)[:h])
    Z = 0.5 * (Xh + Xm) + 0.5j * w * (Xh - Xm)
    z = fft_pow2(Z, sign=+1) / h
    out = np.empty(X.shape[:-1] + (n,), dtype=np.float32 if cdt == np.complex64 else np.float64)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def rfft_flop_saving(n: int) -> float:
    """Ratio of complex-FFT flops to two-for-one real-FFT flops.

    ~2x asymptotically — the engine-level realization of the paper's
    C = 1 accounting for real input.
    """
    if n < 4:
        return 1.0
    full = 5.0 * n * np.log2(n)
    half = 5.0 * (n / 2) * np.log2(n / 2) + 6.0 * n  # untangle pass
    return full / half

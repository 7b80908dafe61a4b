"""Power-of-two FFT as dense-DFT GEMM passes.

The paper's rule — every stage a BatchedGEMM (PAPER.md §1) — applied to
the local FFT.  Split ``n = a * b`` (factors at most :data:`MAX_FACTOR`)
and view a row as ``x[j_a, j_b]``, ``j = j_a b + j_b``; with
``k = k_a + a k_b``::

    X[k_b, k_a] = sum_{j_b} F_b[k_b, j_b] w_n^(k_a j_b) sum_{j_a} F_a[k_a, j_a] x[j_a, j_b]

— a matmul against the dense ``F_a``, a twiddle multiply, and a matmul
of ``F_b`` against the *transposed* intermediate (a BLAS flag, not a
copy), so the result lands in natural order: self-sorting, like the
Stockham passes whose slot this fills.  A larger ``n`` peels one
``MAX_FACTOR`` pass, recurses on the length-``b`` rows and pays one
transposing copy per level.  Several times the butterflies' flops and
several times faster on a host, where BLAS runs near peak and
whole-array butterfly passes were memory-bound.  Operators and twiddles
come from :mod:`repro.fftcore.twiddle`'s cache, O(n) bytes per key.

Batch invariance: both matmuls broadcast the operator over the batch
axis, so every row is its own pair of fixed-shape GEMMs and its bits
cannot depend on how many rows share the call (the serving tier's
coalesced-vs-one-by-one identity rests on this).
"""

from __future__ import annotations

import numpy as np

from repro.fftcore.twiddle import check_order, twiddle_block
from repro.util.bitmath import ilog2, is_pow2
from repro.util.validation import ParameterError, complex_dtype_for

#: Largest dense DFT factor: 64 keeps n <= 4096 at two GEMMs (2048 as
#: 64 * 32 measured 1.35x faster than 32 * 8 * 8, equally accurate).
MAX_FACTOR = 64


def check_rows(name: str, x: np.ndarray) -> None:
    """Require an ndarray with at least one axis to transform along."""
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        raise ParameterError(f"{name} needs an ndarray of shape (..., n), got "
                             f"{type(x).__name__} with ndim {np.ndim(x)}")


def fft_pow2(x: np.ndarray, sign: int = -1) -> np.ndarray:
    """Batched power-of-two FFT along the last axis (unnormalized).

    Parameters
    ----------
    x:
        Array of shape ``(..., n)`` with ``n`` a power of two.  Real input
        is promoted to the matching complex dtype.
    sign:
        -1 for the forward transform ``sum_j x_j exp(-2 pi i j k / n)``,
        +1 for the unnormalized inverse.

    Returns
    -------
    Array of the same shape, complex dtype.
    """
    check_rows("fft_pow2", x)
    n = x.shape[-1]
    if not is_pow2(n):
        raise ParameterError(f"fft_pow2 needs a power-of-two length, got n={n}")
    check_order(n, sign)
    dt = complex_dtype_for(x.dtype)
    a = min(MAX_FACTOR, 1 << ((ilog2(n) + 1) // 2))
    b = n // a
    y = np.ascontiguousarray(x, dtype=dt).reshape(x.size // n, a, b)
    t = np.matmul(twiddle_block(a, a, a, sign, dt), y)
    if b > 1:
        t *= twiddle_block(n, a, b, sign, dt)
        if b <= MAX_FACTOR:
            t = np.matmul(twiddle_block(b, b, b, sign, dt), t.transpose(0, 2, 1))
        else:
            t = np.ascontiguousarray(fft_pow2(t, sign).transpose(0, 2, 1))
    return t.reshape(x.shape)


def dft_direct(x: np.ndarray, sign: int = -1) -> np.ndarray:
    """O(n^2) direct DFT along the last axis — the test oracle.

    Only suitable for small ``n``; used to validate the fast transforms
    without assuming ``numpy.fft`` conventions.
    """
    n = x.shape[-1]
    if n > 4096:
        raise ParameterError(f"dft_direct is O(n^2); refusing n={n}")
    j = np.arange(n)
    w = np.exp(sign * 2j * np.pi * np.outer(j, j) / n)
    cdt = complex_dtype_for(x.dtype)
    return np.tensordot(x.astype(cdt), w.astype(cdt), axes=([-1], [0]))

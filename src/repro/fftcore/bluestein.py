"""Bluestein (chirp-z) FFT for arbitrary transform lengths.

Rewrites the DFT as a circular convolution with a chirp::

    X_k = conj(c_k) * sum_j (x_j * conj(c_j)) * c_(k-j),   c_j = exp(-sign pi i j^2 / n)

and evaluates the convolution with a zero-padded power-of-two FFT of
length >= 2n - 1 via :func:`repro.fftcore.stockham.fft_pow2`.  This makes
the local engine total: any length, same API, O(n log n).
"""

from __future__ import annotations

import numpy as np

from repro.fftcore.stockham import check_rows, fft_pow2
from repro.fftcore.twiddle import cached, check_order, unit_roots
from repro.util.bitmath import next_pow2
from repro.util.validation import complex_dtype_for


def _chirp_pair(n: int, sign: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """``(conj(c), fft(b))`` for the length-n transform (cached).

    ``c`` is a root of unity of order 2n, so ``j^2`` is reduced modulo 2n
    in exact integers (it overflows double-precision exactness around
    n ~ 2^26 otherwise); ``b`` is ``c`` wrapped to negative lags on the
    padded length.
    """
    def build():
        j = np.arange(n, dtype=np.int64)
        c = unit_roots(j * j, 2 * n, -sign, dtype)
        m = next_pow2(2 * n - 1)
        b = np.zeros(m, dtype=dtype)
        b[:n] = c
        b[m - n + 1 :] = c[1:][::-1]  # wrap negative lags: b[m-j] = c[j]
        return np.conj(c), fft_pow2(b, sign=-1)

    return cached(("bluestein", n, sign, dtype.name), build)


def fft_bluestein(x: np.ndarray, sign: int = -1) -> np.ndarray:
    """Batched arbitrary-length FFT along the last axis (unnormalized).

    Parameters
    ----------
    x:
        Array of shape ``(..., n)``, any ``n >= 1``.
    sign:
        -1 forward, +1 unnormalized inverse.
    """
    check_rows("fft_bluestein", x)
    n = x.shape[-1]
    check_order(n, sign)
    cdt = complex_dtype_for(x.dtype)
    cc, fb = _chirp_pair(n, sign, cdt)
    a = np.zeros(x.shape[:-1] + (fb.size,), dtype=cdt)
    a[..., :n] = x * cc
    conv = fft_pow2(fft_pow2(a, sign=-1) * fb, sign=+1)
    return (cc / fb.size * conv[..., :n]).astype(cdt, copy=False)

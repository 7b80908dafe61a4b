"""Local FFT plans and convenience transforms.

:class:`LocalFFTPlan` mirrors the plan-based API of vendor FFT libraries
(cuFFT/FFTW): construct once for a ``(n, dtype)`` pair, then apply to many
batches.  The plan picks its kernel from ``n``: the dense-DFT GEMM passes
(:func:`~repro.fftcore.stockham.fft_pow2`) for powers of two, Bluestein's
chirp-z (:func:`~repro.fftcore.bluestein.fft_bluestein`) otherwise.
``numpy.fft`` lives in :mod:`repro.fftcore.oracle` only.

Conventions match ``numpy.fft``: forward is unnormalized, inverse scales
by ``1/n``.
"""

from __future__ import annotations

import numpy as np

from repro.fftcore.bluestein import fft_bluestein
from repro.fftcore.stockham import fft_pow2
from repro.fftcore.twiddle import check_order
from repro.util.bitmath import is_pow2
from repro.util.validation import ParameterError, complex_dtype_for


class LocalFFTPlan:
    """A reusable 1D FFT plan applied along a chosen axis of a batch.

    Parameters
    ----------
    n:
        Transform length.
    dtype:
        Working complex precision: 'complex64' or 'complex128'.

    Examples
    --------
    >>> import numpy as np
    >>> plan = LocalFFTPlan(8)
    >>> x = np.arange(8.0)
    >>> np.allclose(plan.forward(x), np.fft.fft(x))
    True
    """

    def __init__(self, n: int, dtype="complex128"):
        check_order(n)
        dt = np.dtype(dtype)
        if dt.kind != "c":
            raise ParameterError(f"LocalFFTPlan dtype must be complex, got {dt!r}")
        self.n = int(n)
        self.dtype = dt
        self.kernel = fft_pow2 if is_pow2(n) else fft_bluestein

    def _apply(self, x: np.ndarray, axis: int, sign: int) -> np.ndarray:
        if (not isinstance(axis, (int, np.integer)) or not -x.ndim <= axis < x.ndim
                or x.shape[axis] != self.n):
            raise ParameterError(f"axis {axis!r} of an input of shape {x.shape} "
                                 f"is not an axis of length {self.n}")
        moved = np.moveaxis(x, axis, -1)
        out = self.kernel(moved.astype(self.dtype, copy=False), sign=sign)
        return np.moveaxis(out, -1, axis)

    def forward(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Unnormalized forward DFT along ``axis``."""
        return self._apply(np.asarray(x), axis, -1)

    def inverse(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Inverse DFT along ``axis`` (scaled by ``1/n``)."""
        return self._apply(np.asarray(x), axis, +1) / self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalFFTPlan(n={self.n}, dtype={self.dtype.name}, kernel={self.kernel.__name__})"


def fft(x: np.ndarray, axis: int = -1, dtype=None) -> np.ndarray:
    """One-shot forward FFT along ``axis`` using a throwaway plan."""
    x = np.asarray(x)
    dtype = dtype or complex_dtype_for(x.dtype)
    return LocalFFTPlan(x.shape[axis], dtype=dtype).forward(x, axis=axis)


def ifft(x: np.ndarray, axis: int = -1, dtype=None) -> np.ndarray:
    """One-shot inverse FFT along ``axis`` using a throwaway plan."""
    x = np.asarray(x)
    dtype = dtype or complex_dtype_for(x.dtype)
    return LocalFFTPlan(x.shape[axis], dtype=dtype).inverse(x, axis=axis)

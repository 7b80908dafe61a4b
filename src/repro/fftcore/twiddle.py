"""Roots of unity — twiddle tables, dense DFT operators — cached process-wide.

Everything the local FFT multiplies by is ``exp(±2πi r / n)`` for an
integer ``r``: the twiddle table, the dense ``F_a`` of a GEMM pass
(``r = k j``), the twiddle between passes, the six-step ``ω_N^{pm}``
block, the Bluestein chirp (``r = j²``, order 2n).  :func:`unit_roots`
reduces ``r`` mod ``n`` in exact integers and takes sine and cosine in
extended precision before narrowing, so entries are correctly rounded —
a dense length-64 DFT sum leans on that where log-depth butterflies did
not.  Tables live in one bounded cache (:func:`cached`): the paper's
sweeps touch a few dozen sizes, but a long-lived process running many
unrelated sizes should not grow without bound.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.util.validation import ParameterError

_CACHE: OrderedDict[tuple, object] = OrderedDict()
_CACHE_MAX = 256

_TWO_PI = 2 * np.arccos(np.longdouble(-1))


def cached(key: tuple, build: Callable[[], object]):
    """The cache entry for ``key``, built on a miss (bounded LRU)."""
    hit = _CACHE.get(key)
    if hit is not None:
        _CACHE.move_to_end(key)
        return hit
    value = _CACHE[key] = build()
    if len(_CACHE) > _CACHE_MAX:
        _CACHE.popitem(last=False)
    return value


def check_order(n: int, sign: int = -1) -> None:
    """Require an integer order ``n >= 1`` and ``sign`` of -1 or +1."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    if isinstance(sign, bool) or sign not in (-1, 1):
        raise ParameterError(f"sign must be -1 or +1, got {sign!r}")


def unit_roots(r: np.ndarray, n: int, sign: int, dtype) -> np.ndarray:
    """``exp(sign * 2πi * r / n)`` for an integer array ``r`` (uncached).

    Read-only, since cached tables are shared by every caller.
    """
    out = np.exp((np.asarray(r) % n) * (sign * 1j * _TWO_PI / n)).astype(dtype)
    out.setflags(write=False)
    return out


def twiddles(n: int, sign: int, dtype="complex128") -> np.ndarray:
    """Return ``exp(sign * 2πi * k / n)`` for ``k = 0..n-1`` (cached).

    Parameters
    ----------
    n:
        Table length (the transform size the factors belong to).
    sign:
        -1 for forward transforms, +1 for inverse.
    dtype:
        complex64 or complex128.
    """
    check_order(n, sign)
    dt = np.dtype(dtype)
    return cached((n, sign, dt.name),
                  lambda: unit_roots(np.arange(n), n, sign, dt))


def twiddle_block(n: int, rows: int, cols: int, sign: int, dtype="complex128",
                  row0: int = 0) -> np.ndarray:
    """``exp(sign * 2πi * p * m / n)``, ``row0 <= p < row0 + rows``, ``m < cols`` (cached).

    ``twiddle_block(a, a, a, ...)`` is the dense DFT operator ``F_a``;
    ``twiddle_block(a * b, a, b, ...)`` the twiddle between an ``a`` and
    a ``b`` pass; ``row0`` selects a device's row block of ``ω_N^{pm}``.
    """
    check_order(n, sign)
    dt = np.dtype(dtype)
    return cached(
        (n, rows, cols, row0, sign, dt.name),
        lambda: unit_roots(np.outer(np.arange(row0, row0 + rows), np.arange(cols)),
                           n, sign, dt))


def clear_cache() -> None:
    """Drop all cached tables (used by tests)."""
    _CACHE.clear()


def cache_size() -> int:
    """Number of cached tables."""
    return len(_CACHE)

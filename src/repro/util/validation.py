"""Parameter validation helpers with uniform, descriptive error messages.

Every public constructor in the library funnels its argument checking
through these helpers so that a mis-parameterized plan fails fast with a
message naming the offending parameter, the constraint, and the value —
rather than surfacing as a shape error three tensor contractions later.
"""

from __future__ import annotations

from typing import Any, Collection

import numpy as np

from repro.util.bitmath import is_pow2


class ParameterError(ValueError):
    """Raised when a plan or machine parameter violates its constraints."""


def check_positive(name: str, value: int | float) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ParameterError(f"{name} must be positive, got {value!r}")


def check_pow2(name: str, value: int) -> None:
    """Require ``value`` to be a positive power of two."""
    if not is_pow2(value):
        raise ParameterError(f"{name} must be a power of two, got {value!r}")


def check_multiple(name: str, value: int, of: int, of_name: str | None = None) -> None:
    """Require ``of | value`` (``value`` is a multiple of ``of``)."""
    label = of_name or str(of)
    if of <= 0 or value % of != 0:
        raise ParameterError(f"{name} (={value!r}) must be a multiple of {label} (={of!r})")


def check_count(name: str, value: Any) -> None:
    """Require ``value`` to be an ``int`` >= 1 (not a ``bool``, not a float)."""
    if type(value) is not int or value < 1:
        raise ParameterError(f"{name} must be an int >= 1, got {value!r}")


def check_range(name: str, value: int | float, lo: int | float | None = None, hi: int | float | None = None) -> None:
    """Require ``lo <= value <= hi`` (either bound may be None)."""
    if lo is not None and value < lo:
        raise ParameterError(f"{name} must be >= {lo!r}, got {value!r}")
    if hi is not None and value > hi:
        raise ParameterError(f"{name} must be <= {hi!r}, got {value!r}")


def check_in(name: str, value: Any, allowed: Collection[Any]) -> None:
    """Require ``value`` to be a member of ``allowed``."""
    if value not in allowed:
        raise ParameterError(f"{name} must be one of {sorted(map(str, allowed))}, got {value!r}")


#: dtypes the pipelines accept, mirroring the paper's four precisions
#: (single, double, single-complex, double-complex).
SUPPORTED_DTYPES = (
    np.dtype(np.float32),
    np.dtype(np.float64),
    np.dtype(np.complex64),
    np.dtype(np.complex128),
)


def check_dtype(name: str, dtype: Any) -> np.dtype:
    """Normalize and validate a dtype; returns the canonical ``np.dtype``."""
    dt = np.dtype(dtype)
    if dt not in SUPPORTED_DTYPES:
        raise ParameterError(
            f"{name} must be one of float32/float64/complex64/complex128, got {dt!r}"
        )
    return dt


def check_numeric(name: str, a: np.ndarray) -> None:
    """Reject arrays of strings, objects, dates: they would otherwise
    reach a cast or a GEMM and fail there with NumPy's own error."""
    if a.dtype.kind not in "biufc":
        raise ParameterError(f"{name} must be numeric, got dtype {a.dtype}")


def host_input(a: Any, dtype: Any, size: int) -> np.ndarray:
    """Host data on its way into a pipeline's ``stage_in``: numeric,
    ``size`` elements, cast to ``dtype`` (complex data is never
    narrowed to a real ``dtype``: that would drop its imaginary part).
    """
    a = np.asarray(a)
    check_numeric("input", a)
    if a.size != size:
        raise ParameterError(f"input must have {size} elements, got shape {a.shape}")
    if a.dtype.kind == "c" and np.dtype(dtype).kind != "c":
        raise ParameterError(f"input must be real, got dtype {a.dtype}")
    return a.astype(dtype, copy=False)


def complex_dtype_for(dtype: Any) -> np.dtype:
    """The complex dtype with the same precision as ``dtype``."""
    dt = np.dtype(dtype)
    return np.dtype(np.complex64) if dt in (np.float32, np.complex64) else np.dtype(np.complex128)


def real_dtype_for(dtype: Any) -> np.dtype:
    """The real dtype with the same precision as ``dtype``."""
    dt = np.dtype(dtype)
    return np.dtype(np.float32) if dt in (np.float32, np.complex64) else np.dtype(np.float64)


def is_complex_dtype(dtype: Any) -> bool:
    """True for complex64/complex128."""
    return np.dtype(dtype).kind == "c"


def c_factor(dtype: Any) -> int:
    """The paper's ``C`` factor: 1 for real input, 2 for complex input."""
    return 2 if is_complex_dtype(dtype) else 1

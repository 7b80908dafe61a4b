"""The FMM-FFT's cotangent kernels (Section 3).

``H_{P,M} = diag(I_M, C_1, ..., C_{P-1})`` with

    [C_p]_{mn} = rho_p [ cot(pi/M (n - m) + pi/N p) + i ]
    rho_p      = exp(-i pi p / P) sin(pi p / P) / M

Each ``C_p`` is what one periodic 1D FMM applies (approximately); the
``+ i`` rank-one part becomes the REDUCE stage and the ``rho_p`` scaling
the POST stage.  The dense builders here are oracles for tests and tiny
problems.
"""

from __future__ import annotations

import numpy as np

from repro.fmm.operators import rho_factors
from repro.fmm.reference import dense_kernel_matrix
from repro.util.validation import ParameterError


def dense_c_matrix(M: int, P: int, p: int) -> np.ndarray:
    """The full complex ``C_p`` (identity for p = 0)."""
    return dense_kernel_matrix(M, P, p, with_rho=True)


def dense_h_matrix(M: int, P: int) -> np.ndarray:
    """``H_{P,M}``: block diagonal of I_M and the C_p (size N x N)."""
    N = M * P
    H = np.zeros((N, N), dtype=np.complex128)  # lint: allow-dtype-discipline (dense reference, tiny N)
    for p in range(P):
        H[p * M : (p + 1) * M, p * M : (p + 1) * M] = dense_c_matrix(M, P, p)
    return H


def post_process(
    T: np.ndarray, r: np.ndarray, M: int, P: int, rho: np.ndarray | None = None
) -> np.ndarray:
    """Algorithm 1 line 15: ``T_p <- rho_p (T_p + i r_p)`` for p >= 1.

    Parameters
    ----------
    T:
        (P, M) array — row 0 is the p = 0 passthrough, rows 1.. are the
        FMM outputs (the cotangent part) — or (..., P, M) with leading
        batch axes (a stack of independent problems).
    r:
        (P-1,) reduction vector ``r[p-1] = sum_m S[p, m]``, or
        (..., P-1) matching T's leading axes.
    rho:
        (P-1,) prefactors in the working precision — a plan's
        ``operators.rho`` — so a complex64 T is not widened to
        complex128 for the multiply-add.  Default: ``rho_factors(P, M)``
        (complex128).
    """
    T = np.asarray(T)
    r = np.asarray(r)
    if T.ndim < 2 or T.shape[-2] != P or r.shape != (*T.shape[:-2], P - 1):
        raise ParameterError(
            f"shape mismatch: T {T.shape}, r {r.shape} for P={P}"
        )
    if rho is None:
        rho = rho_factors(P, M)
    elif rho.shape != (P - 1,):
        raise ParameterError(f"rho must have shape ({P - 1},), got {rho.shape}")
    out = np.array(T, dtype=np.result_type(T.dtype, np.complex64))
    post_in_place(np.swapaxes(out, -1, -2), r, rho)
    return out


def post_in_place(A: np.ndarray, r: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """POST in place on m-major ``A`` (..., m, P), ``r`` (..., P-1).  Keep the
    operand order: swapped, the complex product's FMA rounds differently."""
    tail = A[..., 1:]
    np.add(tail, 1j * r[..., None, :], out=tail)
    np.multiply(rho, tail, out=tail)
    return A

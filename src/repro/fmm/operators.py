"""FMM operator builders (Sections 4.4 - 4.8).

Every operator is a small dense real matrix (or stack of matrices,
batched over the kernel index p) built once per plan:

=========  =================  ========================================
stage      shape              entries
=========  =================  ========================================
S2M        (Q, M_L)           ``ell_q(s_m)``, ``s_m = -1 + (2m+1)/M_L``
L2T        (M_L, Q)           ``S2M^T``
M2M        (Q, 2Q)            ``[ell_q((z_k - 1)/2) | ell_q((z_k + 1)/2)]``
L2L        (2Q, Q)            ``M2M^T``
M2L-ell    (P-1, 2, 3, Q, Q)  ``cot(pi/2^ell (z_j/2 - z_i/2 + s) + c_p)``
M2L-B      (P-1, S, Q, Q)     same at level B for s = 2..2^B-2
S2T        (P-1, M_L, 3 M_L)  ``cot(pi (p + P k) / N)``, Toeplitz in k
rho        (P-1,)             ``exp(-i pi p / P) sin(pi p / P) / M``
=========  =================  ========================================

The M2L builders take the kernel shifts ``c_p``: ``pi p / N`` for the
FMM-FFT, ``0`` for the nonuniform FMM (:mod:`repro.nufft`).  The S2T
matrix is the flattened "interleaved and overlapped convolution"
of Section 4.6: entry (i, j') is the kernel at lag ``k = j' - M_L - i``
so that a single batched GEMM against the halo-extended sources applies
the whole near field.
"""

from __future__ import annotations

import numpy as np

from repro.fmm.chebyshev import cheb_points, lagrange_eval
from repro.fmm.interaction import COUSINS_EVEN, COUSINS_ODD, base_offsets
from repro.util.validation import check_positive, check_range


def cot(x: np.ndarray) -> np.ndarray:
    """Cotangent; callers guarantee arguments away from the poles
    (p >= 1 shifts every FMM-FFT kernel argument off k*pi)."""
    return 1.0 / np.tan(x)


def s2m_matrix(Q: int, ML: int) -> np.ndarray:
    """S2M: anterpolation from the M_L leaf sources to Q coefficients.

    Sources map to [-1, 1] via ``s_m = -1 + (2m+1)/M_L`` (Section 4.4).
    """
    check_positive("Q", Q)
    check_positive("ML", ML)
    m = np.arange(ML)
    s = -1.0 + (2.0 * m + 1.0) / ML
    return lagrange_eval(Q, s)  # (Q, ML)


def l2t_matrix(Q: int, ML: int) -> np.ndarray:
    """L2T = S2M^T: evaluate the local expansion at the target points."""
    return s2m_matrix(Q, ML).T


def m2m_matrix(Q: int) -> np.ndarray:
    """M2M = [M2M- | M2M+], (Q, 2Q), translating two children to a parent.

    ``M2M±[q, k] = ell_q((z_k ± 1)/2)`` — the children's nodes scaled
    into the parent's [-1, 1] (Section 4.5).  Level-independent thanks
    to the Chebyshev basis.
    """
    zq = cheb_points(Q)
    minus = lagrange_eval(Q, (zq - 1.0) / 2.0)  # left child
    plus = lagrange_eval(Q, (zq + 1.0) / 2.0)   # right child
    return np.hstack([minus, plus])


def l2l_matrix(Q: int) -> np.ndarray:
    """L2L = M2M^T, (2Q, Q): interpolate a parent's local expansion at
    both children's nodes (stacked left child first)."""
    return m2m_matrix(Q).T


def _m2l_tensor(level: int, Q: int, s, shifts) -> np.ndarray:
    """``K[pi, *s.shape, i, j] = cot(pi/2^level (z_j/2 - z_i/2 + s) + shifts[pi])``."""
    zq = cheb_points(Q)
    s = np.asarray(s, dtype=np.float64)[..., None, None]
    c = np.asarray(shifts, dtype=np.float64).reshape(-1, *(1,) * s.ndim)
    return cot(np.pi / (1 << level) * (zq[None, :] / 2.0 - zq[:, None] / 2.0 + s) + c)


def m2l_level_tensor(level: int, Q: int, shifts) -> np.ndarray:
    """Cousin M2L operators at a hierarchical level, one per kernel shift.

    Returns ``K[pi, parity, si, i, j]`` of shape (len(shifts), 2, 3, Q, Q)
    with ``K = cot(pi/2^level (z_j/2 - z_i/2 + s) + shifts[pi])`` and
    ``s = COUSINS_EVEN[si]`` / ``COUSINS_ODD[si]`` (Section 4.7).
    """
    check_range("level", level, 3, None)  # cyclic offsets need 2^level >= 8
    return _m2l_tensor(level, Q, [COUSINS_EVEN, COUSINS_ODD], shifts)


def m2l_base_tensor(B: int, Q: int, shifts) -> np.ndarray:
    """Dense base-level M2L: all non-neighbour offsets s = 2..2^B-2.

    Returns ``K[pi, si, i, j]`` of shape (len(shifts), 2^B-3, Q, Q).
    """
    check_range("B", B, 2, None)
    return _m2l_tensor(B, Q, base_offsets(B), shifts)


def s2t_lags(P: int, ML: int, N: int) -> np.ndarray:
    """The Toeplitz generator ``S2T[pi, k] = cot(pi (p + P k)/N)`` for
    lags ``k = -(2 M_L - 1) .. (2 M_L - 1)`` (Section 4.6)."""
    p = np.arange(1, P, dtype=np.float64)
    k = np.arange(-(2 * ML - 1), 2 * ML, dtype=np.float64)
    return cot(np.pi * (p[:, None] + P * k[None, :]) / N)


def s2t_matrix(P: int, ML: int, N: int) -> np.ndarray:
    """The near-field operator as a batched dense matrix.

    ``K[pi, i, j']`` with targets i in the centre box and sources j' in
    the halo-extended box triple ``[b-1, b, b+1]`` (length 3 M_L);
    lag ``k = j' - M_L - i`` indexes the Toeplitz generator.
    """
    lags = s2t_lags(P, ML, N)  # (P-1, 4ML-1), lag k at column k + 2ML - 1
    i = np.arange(ML)
    jp = np.arange(3 * ML)
    k_idx = (jp[None, :] - ML - i[:, None]) + (2 * ML - 1)  # (ML, 3ML)
    return lags[:, k_idx]  # (P-1, ML, 3ML)


def rho_factors(P: int, M: int) -> np.ndarray:
    """The complex prefactors ``rho_p = exp(-i pi p/P) sin(pi p/P)/M``
    for p = 1..P-1 (Section 3)."""
    p = np.arange(1, P, dtype=np.float64)
    return np.exp(-1j * np.pi * p / P) * np.sin(np.pi * p / P) / M

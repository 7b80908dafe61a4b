"""Single-device FMM-FFT execution (pure NumPy, no machine model).

The fastest way to run the *numerics* — used for accuracy studies
(Figure 9, Section 6.1's error claims) and as the reference the
distributed executor must match.  The pipeline is factorization (2)
read right-to-left::

    S[p, m]   = x[p + m P]                    (p-major view)
    T, r      = P-1 batched FMMs (C~_p S_p)   + passthrough p = 0
    T         = rho_p (T + i r_p)             (POST, p >= 1)
    A[m, p]   = T[p, m]
    A         = FFT_P along p; B[p, m] = A[m, p]; B = FFT_M along m
    X[m + pM] = B[p, m]                       (natural order)
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import post_in_place
from repro.core.plan import FmmFftPlan
from repro.fftcore.oracle import reference_fft
from repro.fftcore.plan import LocalFFTPlan
from repro.fmm.batched import BatchedFMM
from repro.util.validation import ParameterError, check_numeric


def fmmfft_single(x: np.ndarray, plan: FmmFftPlan) -> np.ndarray:
    """Compute the in-order DFT of the length-N ``x`` via the FMM-FFT:
    the ``k = 1`` call of :func:`fmmfft_batched` (same plan requirements,
    dtype promotion and ``numpy.fft.fft`` convention), so one transform
    and a row of a stack are the same code.
    """
    x = np.asarray(x)
    if x.shape != (plan.N,):
        raise ParameterError(f"input must have shape ({plan.N},), got {x.shape}")
    return fmmfft_batched(x[None], plan)[0]


def fmmfft_batched(xs: np.ndarray, plan: FmmFftPlan) -> np.ndarray:
    """Compute the DFTs of a stack of inputs via one batched FMM-FFT.

    Every stage runs as one broadcasted contraction over the leading
    batch axis (the serve batcher's coalesced execution), sharing a
    single operator bundle.  Results are bit-identical to transforming
    each row alone — numpy applies the same per-slice kernels either
    way — which is what makes serve's coalescing transparent to callers.

    Parameters
    ----------
    xs:
        (k, N) stack of inputs (k >= 1; real or complex, promoted to the
        plan dtype).
    plan:
        A :class:`FmmFftPlan` with operators built (any G — the G only
        matters for distributed layout).

    Returns
    -------
    The (k, N) stack of DFTs, same convention as ``numpy.fft.fft``.
    """
    if plan.operators is None:
        raise ParameterError("plan was built with build_operators=False")
    xs = np.asarray(xs)
    if xs.ndim != 2 or xs.shape[0] < 1 or xs.shape[1] != plan.N:
        raise ParameterError(f"input must have shape (k, {plan.N}) with k >= 1, got {xs.shape}")
    check_numeric("input", xs)
    k, (M, P) = xs.shape[0], (plan.M, plan.P)
    xs = xs.astype(plan.dtype, copy=False)

    # p-major view per problem, S[i, p, m] = xs[i, p + m P], folded in place
    S = np.swapaxes(xs.reshape(k, M, P), -1, -2)

    T, r = BatchedFMM(plan.operators).apply(S)
    # T is stored m-major: its transpose is the 2D FFT's (k, M, P) input
    A = post_in_place(np.swapaxes(T, -1, -2), r, plan.operators.rho)

    # the M x P 2D FFT: every (problem, row) pair is one row of the local plan
    A = LocalFFTPlan(P, dtype=plan.dtype).forward(A)
    Bt = np.ascontiguousarray(np.swapaxes(A, -1, -2))  # (k, P, M)
    return LocalFFTPlan(M, dtype=plan.dtype).forward(Bt).reshape(k, plan.N)


def fmmfft_relative_error(x: np.ndarray, plan: FmmFftPlan) -> float:
    """Relative l2 error of the FMM-FFT against the exact FFT.

    The oracle is ``numpy.fft.fft`` in double precision (our own FFT is
    validated against it separately); this is the quantity Figure 9
    (bottom) sweeps over Q.
    """
    got = fmmfft_single(x, plan)
    ref = reference_fft(x)
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))

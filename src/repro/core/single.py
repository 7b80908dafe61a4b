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

from repro.core.kernels import post_process
from repro.core.plan import FmmFftPlan
from repro.fftcore.oracle import reference_fft
from repro.fftcore.plan import LocalFFTPlan
from repro.fmm.batched import BatchedFMM
from repro.util.validation import ParameterError


def fmmfft_single(
    x: np.ndarray,
    plan: FmmFftPlan,
    backend: str = "auto",
) -> np.ndarray:
    """Compute the in-order DFT of ``x`` via the FMM-FFT.

    Parameters
    ----------
    x:
        Length-N input (real or complex; promoted to the plan dtype).
    plan:
        A :class:`FmmFftPlan` with operators built (any G — the G only
        matters for distributed layout).
    backend:
        Local FFT backend for the 2D stage ('auto' = our Stockham,
        'numpy' = pocketfft fast path).

    Returns
    -------
    The length-N DFT, same convention as ``numpy.fft.fft``.
    """
    if plan.operators is None:
        raise ParameterError("plan was built with build_operators=False")
    x = np.asarray(x)
    if x.shape != (plan.N,):
        raise ParameterError(f"input must have shape ({plan.N},), got {x.shape}")
    M, P = plan.M, plan.P
    x = x.astype(plan.dtype, copy=False)

    # p-major view: S[p, m] = x[p + m P]
    S = np.ascontiguousarray(x.reshape(M, P).T)

    fmm = BatchedFMM(plan.operators)
    T, r = fmm.apply(S)
    T = post_process(T, r, M, P, rho=plan.operators.rho)

    # the M x P 2D FFT
    A = np.ascontiguousarray(T.T)                     # A[m, p]
    A = LocalFFTPlan(P, dtype=plan.dtype, backend=backend).forward(A, axis=1)
    Bt = np.ascontiguousarray(A.T)                    # B[p, m]
    Bt = LocalFFTPlan(M, dtype=plan.dtype, backend=backend).forward(Bt, axis=1)
    return Bt.reshape(plan.N)


def fmmfft_batched(
    xs: np.ndarray,
    plan: FmmFftPlan,
    backend: str = "auto",
) -> np.ndarray:
    """Compute the DFTs of a stack of inputs via one batched FMM-FFT.

    The batched analogue of :func:`fmmfft_single`: every stage runs as
    one broadcasted contraction over the leading batch axis (the serve
    batcher's coalesced execution), sharing a single operator bundle.
    Results are bit-identical to calling :func:`fmmfft_single` on each
    row — numpy applies the same per-slice kernels either way — which is
    what makes serve's coalescing transparent to callers.

    Parameters
    ----------
    xs:
        (k, N) stack of inputs (k >= 1; real or complex).
    plan:
        A :class:`FmmFftPlan` with operators built.
    backend:
        Local FFT backend for the 2D stage.

    Returns
    -------
    The (k, N) stack of DFTs, same convention as ``numpy.fft.fft``.
    """
    if plan.operators is None:
        raise ParameterError("plan was built with build_operators=False")
    xs = np.asarray(xs)
    if xs.ndim != 2 or xs.shape[1] != plan.N:
        raise ParameterError(
            f"input must have shape (k, {plan.N}), got {xs.shape}"
        )
    k, (M, P) = xs.shape[0], (plan.M, plan.P)
    xs = xs.astype(plan.dtype, copy=False)

    # p-major view per problem: S[i, p, m] = xs[i, p + m P]
    S = np.ascontiguousarray(np.swapaxes(xs.reshape(k, M, P), -1, -2))

    fmm = BatchedFMM(plan.operators)
    T, r = fmm.apply(S)
    T = post_process(T, r, M, P, rho=plan.operators.rho)

    # the M x P 2D FFT, batched row-wise through the same local plans
    A = np.ascontiguousarray(np.swapaxes(T, -1, -2))  # (k, M, P)
    A = LocalFFTPlan(P, dtype=plan.dtype, backend=backend).forward(
        A.reshape(k * M, P), axis=1
    ).reshape(k, M, P)
    Bt = np.ascontiguousarray(np.swapaxes(A, -1, -2))  # (k, P, M)
    Bt = LocalFFTPlan(M, dtype=plan.dtype, backend=backend).forward(
        Bt.reshape(k * P, M), axis=1
    ).reshape(k, P, M)
    return Bt.reshape(k, plan.N)


def fmmfft_relative_error(
    x: np.ndarray, plan: FmmFftPlan, backend: str = "numpy"
) -> float:
    """Relative l2 error of the FMM-FFT against the exact FFT.

    The oracle is ``numpy.fft.fft`` in double precision (our own FFT is
    validated against it separately); this is the quantity Figure 9
    (bottom) sweeps over Q.
    """
    got = fmmfft_single(x, plan, backend=backend)
    ref = reference_fft(x)
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))

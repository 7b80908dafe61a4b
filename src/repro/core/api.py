"""One-call conveniences over the FMM-FFT pipelines.

For library users who just want a transform::

    >>> import numpy as np
    >>> from repro.core import fmmfft
    >>> x = np.random.default_rng(0).standard_normal(4096).astype(np.complex128)
    >>> X = fmmfft(x)                        # single device, auto params
    >>> np.allclose(X, np.fft.fft(x), atol=1e-8)
    True

For multi-device simulation, pass a :class:`VirtualCluster`; for full
control, build an :class:`FmmFftPlan` and use the executors directly.
"""

from __future__ import annotations

import numpy as np

from repro.core.distributed import FmmFftDistributed
from repro.core.plan import FmmFftPlan
from repro.core.single import fmmfft_single
from repro.fftcore.plan import LocalFFTPlan
from repro.machine.cluster import VirtualCluster
from repro.util.bitmath import ilog2, is_pow2
from repro.util.validation import ParameterError, check_numeric, complex_dtype_for


def default_params(N: int, G: int = 1) -> dict:
    """Reasonable default (P, ML, B, Q) for a size, following Section 6:
    ML = 64 and Q = 16 for large N, P sized to keep M = N/P >= 4 ML and
    the 2D FFT aspect ratio moderate.

    Always returns an admissible tuple for :meth:`FmmFftPlan.create`
    (or raises :class:`ParameterError` when no admissible configuration
    exists, e.g. G > N/2): the base level satisfies ``2 <= B <= L`` and
    ``G | 2^B``, and P is a multiple of G in ``[2, N/2]``.  Preference
    order when N is small for the device count: shrink P toward 2G,
    then shrink the leaf ML, then (last resort) allow P down to G.
    """
    if not is_pow2(N):
        raise ParameterError(f"FMM-FFT sizes must be powers of two, got {N}")
    if G < 1 or not is_pow2(G):
        raise ParameterError(f"G must be a positive power of two, got {G}")
    q = ilog2(N)
    Bmin = max(2, ilog2(G))         # smallest B with G | 2^B
    P_floor = max(2, G)             # smallest admissible P (G | P)
    if P_floor > N // 2 or N // P_floor < max(4, 1 << Bmin):
        raise ParameterError(
            f"no admissible FMM-FFT configuration for N={N} on G={G} devices"
        )
    ML = 64 if q >= 16 else max(4, 1 << max(2, q // 3))
    # target P near sqrt(N) but capped so M/ML leaves a usable tree:
    # M = N/P must hold at least max(4, 2^Bmin) leaf-level boxes.
    P = min(max(1 << max(1, q // 2 - 2), 2 * G, 2), N // 2)
    while P > max(2, 2 * G) and N // P < max(4, 1 << Bmin) * ML:
        P //= 2
    while ML > 1 and N // P < max(4, 1 << Bmin) * ML:
        ML //= 2
    while P > P_floor and N // P < max(4, 1 << Bmin) * ML:
        P //= 2
    M = N // P
    L = ilog2(M // ML)
    B = max(min(3, L), Bmin)
    return dict(P=P, ML=ML, B=B, Q=16)


def fmmfft(
    x: np.ndarray,
    P: int | None = None,
    ML: int | None = None,
    B: int | None = None,
    Q: int | None = None,
    cluster: VirtualCluster | None = None,
) -> np.ndarray:
    """Compute the DFT of ``x`` with the FMM-FFT.

    Any of (P, ML, B, Q) omitted falls back to :func:`default_params`.
    With a ``cluster``, runs distributed (execute-mode cluster required);
    otherwise runs the single-device pipeline.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ParameterError(f"input must be 1D, got shape {x.shape}")
    check_numeric("input", x)
    if cluster is not None and not cluster.execute:
        raise ParameterError(
            f"fmmfft returns a transform, which a timing-only cluster "
            f"(execute={cluster.execute}) does not compute; time one with "
            f"FmmFftDistributed(plan, cluster).run()")
    N = x.shape[0]
    G = cluster.G if cluster is not None else 1
    d = default_params(N, G)
    params = dict(
        P=P if P is not None else d["P"],
        ML=ML if ML is not None else d["ML"],
        B=B if B is not None else d["B"],
        Q=Q if Q is not None else d["Q"],
    )
    dtype = complex_dtype_for(x.dtype if x.dtype.kind in "fc" else np.float64)
    plan = FmmFftPlan.create(N=N, G=G, dtype=dtype, **params)
    if cluster is None:
        return fmmfft_single(x, plan)
    return FmmFftDistributed(plan, cluster).run(x)


def ifmmfft(
    X: np.ndarray,
    P: int | None = None,
    ML: int | None = None,
    B: int | None = None,
    Q: int | None = None,
    cluster: VirtualCluster | None = None,
) -> np.ndarray:
    """Inverse DFT via the FMM-FFT (numpy ``ifft`` convention).

    Uses the conjugation identity ``ifft(X) = conj(fft(conj(X))) / N``,
    so the inverse inherits the forward transform's accuracy and cost.
    """
    X = np.asarray(X)
    check_numeric("input", X)
    out = np.conj(fmmfft(np.conj(X), P=P, ML=ML, B=B, Q=Q, cluster=cluster))
    return out / X.shape[0]


def fourier_transform(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Plain (non-FMM) FFT via the library's own local engine.

    Exposed so examples can avoid ``numpy.fft`` entirely; any length.
    """
    x = np.asarray(x)
    plan = LocalFFTPlan(x.shape[-1], dtype=complex_dtype_for(
        x.dtype if x.dtype.kind in "fc" else np.float64))
    return plan.inverse(x) if inverse else plan.forward(x)

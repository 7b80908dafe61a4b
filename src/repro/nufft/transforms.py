"""Nonequispaced discrete Fourier transforms (Dutt-Rokhlin style).

Conventions (matching the common NUFFT literature):

- **type 2** (:func:`nufft2`): given uniform Fourier coefficients
  ``c_k`` for ``k = -n/2 .. n/2 - 1``, evaluate::

      f(x_j) = sum_k c_k exp(2 pi i k x_j)

  at arbitrary points ``x_j`` in [0, 1).  Implemented as: zero-pad the
  spectrum by ``sigma`` (so the signal is strictly below the fine
  grid's Nyquist), one uniform inverse FFT onto the fine grid, then
  FMM-accelerated barycentric interpolation — Dutt-Rokhlin, i.e.
  "Edelman's formulation with P = 1".

- **type 1 adjoint** (:func:`nufft1_adjoint`): the exact adjoint of
  type 2::

      c_k = sum_j w_j exp(-2 pi i k x_j)

  implemented by transposing the interpolation (FMM-accelerated
  spreading onto the fine grid) followed by one uniform FFT.

Both are O(n log n + m) with accuracy set by the FMM order Q —
"the ability ... to specify the error a priori regardless of the
complexity or distribution of the input" (Section 2).
"""

from __future__ import annotations

import math

import numpy as np

from repro.fftcore.plan import LocalFFTPlan
from repro.nufft.barycentric import HIT_TOL
from repro.nufft.nonuniform_fmm import NonuniformPeriodicFMM
from repro.util.bitmath import next_pow2
from repro.util.validation import ParameterError


def _fine_grid_size(n: int, sigma: float) -> int:
    return next_pow2(max(int(math.ceil(sigma * n)), 2 * n))


def _pad_spectrum(c: np.ndarray, nf: int) -> np.ndarray:
    """Centered zero-pad of coefficients k = -n/2..n/2-1 into length nf,
    stored in FFT (wrap-around) order."""
    n = c.shape[0]
    spec = np.zeros(nf, dtype=np.complex128)
    half = n // 2
    spec[:half] = c[half:]          # k = 0 .. n/2-1
    spec[nf - half :] = c[:half]    # k = -n/2 .. -1
    return spec


def nudft2_direct(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """O(n m) direct type-2 evaluation — the oracle."""
    c = np.asarray(c, dtype=np.complex128)
    n = c.shape[0]
    if n % 2:
        raise ParameterError(f"coefficient count must be even, got {n}")
    if n * np.asarray(x).size > 8_000_000:
        raise ParameterError("nudft2_direct refused: problem too large")
    k = np.arange(-n // 2, n // 2)
    x = np.asarray(x, dtype=np.float64).ravel()
    return np.exp(2j * np.pi * np.outer(x, k)) @ c


def nufft2(
    c: np.ndarray,
    x: np.ndarray,
    sigma: float = 2.0,
    Q: int = 16,
    B: int = 3,
) -> np.ndarray:
    """Fast type-2 NUDFT: coefficients -> samples at nonuniform points.

    Parameters
    ----------
    c:
        Even-length coefficient vector, ``k = -n/2 .. n/2 - 1``.
    x:
        Evaluation points in [0, 1) (any order, repeats allowed).
    sigma:
        Oversampling factor (>= 1.5; 2 recommended).
    Q, B:
        FMM order and base level (Q = 16 gives ~1e-13).
    """
    c = np.asarray(c, dtype=np.complex128)
    n = c.shape[0]
    if n % 2:
        raise ParameterError(f"coefficient count must be even, got {n}")
    if sigma < 1.5:
        raise ParameterError(f"sigma must be >= 1.5, got {sigma}")
    nf = _fine_grid_size(n, sigma)
    spec = _pad_spectrum(c, nf)
    grid = LocalFFTPlan(nf).inverse(spec) * nf  # sum_k spec_k e^{+2pi i k m/nf}

    from repro.nufft.barycentric import trig_barycentric_fmm

    return trig_barycentric_fmm(grid, x, Q=Q, B=B)


def nufft1_adjoint(
    w: np.ndarray,
    x: np.ndarray,
    n: int,
    sigma: float = 2.0,
    Q: int = 16,
    B: int = 3,
) -> np.ndarray:
    """Fast type-1 (adjoint of type 2): samples -> coefficients.

    Computes ``c_k = sum_j w_j exp(-2 pi i k x_j)`` for
    ``k = -n/2 .. n/2 - 1`` by transposing every step of :func:`nufft2`:
    spread through the transposed barycentric weights onto the fine
    grid (two FMM passes: one for the denominators at the points, one
    for the spreading), then one uniform FFT and spectrum truncation.
    """
    w = np.asarray(w, dtype=np.complex128).ravel()
    x = np.asarray(x, dtype=np.float64).ravel() % 1.0
    if w.shape != x.shape:
        raise ParameterError(f"weights {w.shape} and points {x.shape} differ")
    if n % 2:
        raise ParameterError(f"coefficient count must be even, got {n}")
    nf = _fine_grid_size(n, sigma)
    t = np.arange(nf) / nf
    sign = (-1.0) ** np.arange(nf)

    j_near = np.round(x * nf).astype(np.intp) % nf
    hits = np.abs(x * nf - np.round(x * nf)) < HIT_TOL

    L = max(B, int(math.log2(nf)) - 4)
    # denominators D(x_j) = sum_m (-1)^m cot(pi (x_j - t_m))
    fwd = NonuniformPeriodicFMM(t, x[~hits] if (~hits).any() else t[:1],
                                L=L, B=min(B, L), Q=Q)
    grid = np.zeros(nf, dtype=np.complex128)
    if (~hits).any():
        den = fwd.apply(sign.astype(np.float64))
        coeff = w[~hits] / den
        # spread: g_m = (-1)^m sum_j coeff_j cot(pi (x_j - t_m))
        #             = -(-1)^m sum_j coeff_j cot(pi (t_m - x_j))
        rev = NonuniformPeriodicFMM(x[~hits], t, L=L, B=min(B, L), Q=Q)
        grid -= sign * rev.apply(coeff)
    if hits.any():
        np.add.at(grid, j_near[hits], w[hits])

    spec = LocalFFTPlan(nf).forward(grid)  # sum_m g_m e^{-2pi i k m/nf}
    half = n // 2
    out = np.empty(n, dtype=np.complex128)
    out[half:] = spec[:half]
    out[:half] = spec[nf - half :]
    return out


class ClusterNufft2:
    """Type-2 NUFFT as a (single-device) cluster pipeline.

    The host-path :func:`nufft2` runs its three stages — centered pad,
    fine-grid inverse FFT, FMM-accelerated barycentric evaluation — as
    plain NumPy calls, invisible to the scheduling machinery.  This
    plan issues the same three stages as chained ``launch`` ops on a
    G = 1 :class:`~repro.machine.cluster.VirtualCluster`, so the NUFFT
    gets a ledger, regions, hazard checking, and (the point) an IR
    capture like every other pipeline.  Outputs are bit-identical to
    :func:`nufft2` — each stage closure calls the exact same helpers.

    Parameters
    ----------
    n:
        Even coefficient count (fixed at plan time).
    m:
        Number of evaluation points (fixed at plan time).
    cluster:
        A G = 1 cluster (execute or timing-only).
    sigma, Q, B:
        As for :func:`nufft2`.
    """

    #: device buffer prefix: the default ``key`` of every method below
    ns = "nufft"

    def __init__(self, n: int, m: int, cluster, sigma: float = 2.0,
                 Q: int = 16, B: int = 3):
        if cluster.G != 1:
            raise ParameterError(
                f"ClusterNufft2 is a single-device pipeline, got G={cluster.G}")
        if n % 2:
            raise ParameterError(f"coefficient count must be even, got {n}")
        if sigma < 1.5:
            raise ParameterError(f"sigma must be >= 1.5, got {sigma}")
        if m < 1:
            raise ParameterError(f"need at least one point, got m={m}")
        self.n, self.m, self.cl = n, m, cluster
        self.sigma, self.Q, self.B = sigma, Q, B
        self.nf = _fine_grid_size(n, sigma)
        self._plan = LocalFFTPlan(self.nf)  # twiddles built at plan time

    def graph_key(self) -> tuple:
        """Hashable configuration key: equal keys, equal schedules."""
        return ("nufft", self.n, self.m, self.sigma, self.Q, self.B)

    def stage_in(self, c: np.ndarray, x: np.ndarray, key: str = ns) -> None:
        """Place coefficients and points into device buffers (host-side)."""
        c = np.asarray(c, dtype=np.complex128)
        x = np.asarray(x, dtype=np.float64).ravel()
        if c.shape != (self.n,):
            raise ParameterError(f"coefficients must have shape ({self.n},), got {c.shape}")
        if x.shape != (self.m,):
            raise ParameterError(f"points must have shape ({self.m},), got {x.shape}")
        dev = self.cl.dev(0)
        dev[f"{key}.c"] = c
        dev[f"{key}.x"] = x

    def finalize(self, key: str = ns) -> np.ndarray:
        """Read the evaluated samples back from the device (host-side)."""
        return np.asarray(self.cl.dev(0)[f"{key}.out"])

    def run(self, c: np.ndarray | None = None, x: np.ndarray | None = None,
            key: str = ns) -> np.ndarray | None:
        """Execute the three-stage pipeline; returns samples or None."""
        from repro.fftcore.flops import fft_flops, fft_mops
        from repro.nufft.barycentric import trig_barycentric_fmm

        cl, n, nf, m = self.cl, self.n, self.nf, self.m
        if cl.execute:
            if c is None or x is None:
                raise ParameterError("execute-mode cluster requires input data")
            self.stage_in(c, x, key)
        else:
            dev = cl.dev(0)
            dev.alloc(f"{key}.c", (n,), np.complex128)
            dev.alloc(f"{key}.x", (m,), np.float64)
        plan, Q, B = self._plan, self.Q, self.B

        def pad_fn(cluster) -> None:
            d = cluster.dev(0)
            d[f"{key}.spec"] = _pad_spectrum(np.asarray(d[f"{key}.c"]), nf)

        def ifft_fn(cluster) -> None:
            d = cluster.dev(0)
            d[f"{key}.grid"] = plan.inverse(np.asarray(d[f"{key}.spec"])) * nf

        def eval_fn(cluster) -> None:
            d = cluster.dev(0)
            d[f"{key}.out"] = trig_barycentric_fmm(
                np.asarray(d[f"{key}.grid"]), np.asarray(d[f"{key}.x"]),
                Q=Q, B=B)

        itemc = 16  # complex128
        with cl.region("nufft"):
            with cl.region("pad"):
                ev = cl.launch(0, "nufft.pad", "copy", flops=0.0,
                               mops=(n + nf) * itemc, dtype=np.complex128,
                               fn=pad_fn,
                               reads=[f"{key}.c"], writes=[f"{key}.spec"])
            with cl.region("ifft"):
                ev = cl.launch(0, "nufft.ifft", "fft",
                               flops=fft_flops(nf),
                               mops=fft_mops(nf, batch=1, itemsize=itemc),
                               dtype=np.complex128, after=[ev], fn=ifft_fn,
                               reads=[f"{key}.spec"], writes=[f"{key}.grid"])
            with cl.region("eval"):
                # barycentric FMM: O(Q) work per point plus the fine-grid
                # sweep; charged as a single custom kernel
                cl.launch(0, "nufft.eval", "custom",
                          flops=20.0 * Q * m + 10.0 * nf,
                          mops=(nf + 2 * m) * itemc,
                          dtype=np.complex128, after=[ev], fn=eval_fn,
                          reads=[f"{key}.grid", f"{key}.x"],
                          writes=[f"{key}.out"])
            cl.barrier()
        if cl.execute:
            return self.finalize(key)
        return None


def nudft1_direct(w: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """O(n m) direct type-1 adjoint — the oracle."""
    w = np.asarray(w, dtype=np.complex128).ravel()
    x = np.asarray(x, dtype=np.float64).ravel()
    if n % 2:
        raise ParameterError(f"coefficient count must be even, got {n}")
    if n * x.size > 8_000_000:
        raise ParameterError("nudft1_direct refused: problem too large")
    k = np.arange(-n // 2, n // 2)
    return np.exp(-2j * np.pi * np.outer(k, x)) @ w

"""Roofline stage and pipeline times (Sections 5.4, 6).

The *model* time of a stage is Eq. (3) with no launch latency and no
kind derates — the idealized minimum the paper's Figure 5 efficiencies
are measured against.  Pipeline models:

- FMM stage:  sum of stage rooflines (stages serialize on the compute
  stream; communication is hidden).
- 2D FFT:     ``fftP + max(transpose, 0) + fftM`` with the transpose
  overlapping the first FFT's chunks.
- 1D FFT:     three transposes, local FFTs overlapped under them.
- FMM-FFT:    FMM model + (simulated or modeled) 2D FFT — the paper
  deliberately treats the measured 2D FFT as 100% efficient when
  quoting FMM-FFT efficiency (Section 6.2).
"""

from __future__ import annotations

import numpy as np

from repro.dfft.localfft import local_fft_price
from repro.fmm.plan import FmmGeometry
from repro.machine.roofline import op_time
from repro.machine.spec import ClusterSpec
from repro.model.comm import fft1d_comm_bytes, fft2d_comm_bytes
from repro.model.flops import fmm_stage_flops
from repro.model.mops import fmm_stage_mops
from repro.util.bitmath import ilog2
from repro.util.validation import real_dtype_for


def fmm_stage_times(
    geom: FmmGeometry, spec: ClusterSpec, dtype="complex128"
) -> dict[str, float]:
    """Idealized Eq. (3) time per FMM stage on one device."""
    flops = fmm_stage_flops(geom, dtype)
    mops = fmm_stage_mops(geom, dtype)
    return {
        name: op_time(spec.device, flops[name], mops[name], dtype, kind="gemm")
        for name in flops
    }


def fmm_model_time(geom: FmmGeometry, spec: ClusterSpec, dtype="complex128") -> float:
    """Model minimum wall time of the whole FMM stage (per device)."""
    return sum(fmm_stage_times(geom, spec, dtype).values())


def _local_fft_time(n: int, batch: float, spec: ClusterSpec, dtype) -> float:
    itemsize = 2 * real_dtype_for(dtype).itemsize
    return op_time(spec.device, *local_fft_price(n, batch, itemsize), dtype,
                   kind="fft")


def _alltoall_time(bytes_sent_per_device: float, spec: ClusterSpec) -> float:
    if spec.num_devices == 1:
        return 0.0
    return bytes_sent_per_device / spec.alltoall_bandwidth()


def fft2d_model_time(M: int, P: int, spec: ClusterSpec, dtype="complex128") -> float:
    """Model time of the distributed M x P 2D FFT.

    The single transpose overlaps the first (row) FFT chunk-wise, so the
    pipeline is ``max(fftP, transpose) + fftM`` (plus nothing else in the
    idealized model).
    """
    G = spec.num_devices
    N = M * P
    t_fft_p = _local_fft_time(P, batch=M / G, spec=spec, dtype=dtype)
    t_fft_m = _local_fft_time(M, batch=P / G, spec=spec, dtype=dtype)
    t_a2a = _alltoall_time(fft2d_comm_bytes(N, G, dtype), spec)
    return max(t_fft_p, t_a2a) + t_fft_m


def fft1d_model_time(
    N: int, spec: ClusterSpec, dtype="complex128", M: int | None = None, P: int | None = None
) -> float:
    """Model time of the six-step baseline (near-square split default).

    Transposes 2 and 3 overlap the local FFT phases; transpose 1 has no
    producer to hide under.
    """
    q = ilog2(N)
    if M is None:
        M = 1 << ((q + 1) // 2)
    if P is None:
        P = N // M
    G = spec.num_devices
    t_a2a = _alltoall_time(fft1d_comm_bytes(N, G, dtype) / 3.0, spec)
    t_fft_m = _local_fft_time(M, batch=P / G, spec=spec, dtype=dtype)
    t_fft_p = _local_fft_time(P, batch=M / G, spec=spec, dtype=dtype)
    return t_a2a + max(t_fft_m, t_a2a) + max(t_fft_p, t_a2a)


def fmmfft_model_time(
    geom: FmmGeometry,
    spec: ClusterSpec,
    dtype="complex128",
    fft2d_time: float | None = None,
) -> float:
    """Model FMM-FFT time: FMM roofline + 2D FFT.

    Pass a *measured/simulated* ``fft2d_time`` to reproduce the paper's
    Figure 3 red bars ("peak practical performance... assuming the
    measured 2D FFT implementation is 100% efficient"); defaults to the
    2D FFT model otherwise.
    """
    if fft2d_time is None:
        fft2d_time = fft2d_model_time(geom.M, geom.P, spec, dtype)
    return fmm_model_time(geom, spec, dtype) + fft2d_time


def fmm_intensity(geom: FmmGeometry, dtype="complex128") -> float:
    """Aggregate computational intensity (flops/byte) of the FMM stage —
    the paper quotes ~7.8 for the large-N double-precision regime."""
    f = sum(fmm_stage_flops(geom, dtype).values())
    m = sum(fmm_stage_mops(geom, dtype).values())
    return f / m if m else float("inf")

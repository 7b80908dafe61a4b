"""The Section 5 performance model.

Closed-form flop, memory-operation, and communication counts per FMM
stage; the roofline Eq. (3) stage and pipeline times; and the
parameter-space search used for Figure 3's "fastest FMM-FFT found".

Two levels of fidelity:

- **exact per-stage counts** (:mod:`flops`, :mod:`mops`, :mod:`comm`) —
  these match the simulator's ledger sums exactly (asserted in tests),
  so model and "measured" disagree only through latency, derates, and
  overlap, just as in the paper;
- **the paper's collected forms** (:func:`flops.fmm_flops_collected`,
  :func:`mops.fmm_mops_collected`) — the printed formulas of Sections
  5.1/5.3, including the Edelman flop-count agreement at
  P = G, C = 2, B = 2.
"""

from __future__ import annotations

from repro.model.vfunc import v_top, v_levels
from repro.model.flops import fmm_stage_flops, fmm_total_flops, fmm_flops_collected
from repro.model.mops import fmm_stage_mops, fmm_total_mops, fmm_mops_collected
from repro.model.comm import fmm_comm_bytes, fft1d_comm_bytes, fft2d_comm_bytes
from repro.model.roofline import (
    fmm_stage_times,
    fmm_model_time,
    fft2d_model_time,
    fft1d_model_time,
    fmmfft_model_time,
)
from repro.model.search import search_grid, find_fastest
from repro.model.error import choose_q, predicted_error

__all__ = [
    "choose_q",
    "fft1d_comm_bytes",
    "fft1d_model_time",
    "fft2d_comm_bytes",
    "fft2d_model_time",
    "find_fastest",
    "fmm_comm_bytes",
    "fmm_flops_collected",
    "fmm_model_time",
    "fmm_mops_collected",
    "fmm_stage_flops",
    "fmm_stage_mops",
    "fmm_stage_times",
    "fmm_total_flops",
    "fmm_total_mops",
    "fmmfft_model_time",
    "predicted_error",
    "search_grid",
    "v_levels",
    "v_top",
]

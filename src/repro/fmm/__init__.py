"""Periodic 1D interpolative FMM (the paper's Section 4 machinery).

The FMM-FFT needs ``P - 1`` interleaved, periodic, uniform 1D FMMs, each
applying one cotangent kernel matrix ``C~_p`` of size M x M with sources
and targets at the integers.  This package implements them exactly as
the paper formulates them — every stage a batched dense tensor
contraction:

- :mod:`repro.fmm.chebyshev` — Chebyshev nodes (first kind) and stable
  barycentric Lagrange evaluation (Section 4.3).
- :mod:`repro.fmm.operators` — S2M/L2T, M2M/L2L, M2L (level and base),
  and the Toeplitz-flattened S2T operator builders (Sections 4.4-4.8).
- :mod:`repro.fmm.tree` — the binary tree geometry, leaf/base levels,
  and per-device box ownership.
- :mod:`repro.fmm.interaction` — cousin interaction lists (even/odd) and
  the base-level all-non-neighbours list, plus an exact-cover checker.
- :mod:`repro.fmm.kernels` — the stage arithmetic, once: every stage a
  real GEMM on planar (C-flattened) data.
- :mod:`repro.fmm.driver` — Algorithm 1, once: ``drive_fmm`` names the
  stage order against an ``issue(stage, level, *tokens)`` callback, and
  ``PassState`` is each stage's data path over ``G`` slabs of the box
  axis (halos always explicit).  Its wranglers are the two executors
  below and :class:`repro.nufft.NonuniformPeriodicFMM`:
- :mod:`repro.fmm.batched` — single device: ``issue`` runs the data path
  on the spot (all P-1 FMMs at once, one ``matmul`` per stage = one
  BatchedGEMM), one slab, cyclic halos.
- :mod:`repro.fmm.distributed` — a
  :class:`~repro.machine.cluster.VirtualCluster`: ``issue`` prices the
  stage, launches it on every device after the event tokens, and charges
  the S/M halo exchanges and the base-level allgather (Algorithm 1).
- :mod:`repro.fmm.reference` — dense O(M^2) oracle.
"""

from __future__ import annotations

from repro.fmm.chebyshev import cheb_points, lagrange_eval
from repro.fmm.tree import Tree1D
from repro.fmm.plan import FmmGeometry, FmmOperators
from repro.fmm.batched import BatchedFMM
from repro.fmm.distributed import DistributedFMM
from repro.fmm.reference import dense_kernel_matrix, dense_apply

__all__ = [
    "BatchedFMM",
    "DistributedFMM",
    "FmmGeometry",
    "FmmOperators",
    "Tree1D",
    "cheb_points",
    "dense_apply",
    "dense_kernel_matrix",
    "lagrange_eval",
]

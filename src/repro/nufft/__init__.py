"""Nonequispaced FFTs — the P = 1 ancestor of the FMM-FFT.

Section 2 of the paper: "This FMM-FFT appears to be a generalization of
a previous algorithm by Dutt et al. [7] for nonequispaced FFTs, which
can be interpreted as Edelman's formulation with P = 1."  This package
implements that ancestor with the same machinery:

- :mod:`repro.nufft.nonuniform_fmm` — a periodic 1D FMM for the
  cotangent kernel ``cot(pi (x - y))`` with *arbitrary* source and
  target positions on [0, 1): the FMM-FFT's driver and M2M/M2L/L2L
  kernels (they are position-independent), with S2M, L2T and the near
  field as sparse matrices built from the actual points.
- :mod:`repro.nufft.barycentric` — trigonometric barycentric
  interpolation on equispaced nodes, whose weights are exactly the
  cotangent kernel (Henrici's formula) — the bridge between FFTs and
  the cot FMM.
- :mod:`repro.nufft.transforms` — :func:`nufft2` (uniform coefficients
  evaluated at nonuniform points: FFT + FMM-accelerated barycentric
  interpolation) and :func:`nufft1_adjoint` (its exact adjoint:
  FMM-accelerated spreading + FFT), both O(N log N + M).
"""

from __future__ import annotations

from repro.nufft.nonuniform_fmm import NonuniformPeriodicFMM
from repro.nufft.barycentric import trig_barycentric_dense
from repro.nufft.transforms import nufft1_adjoint, nufft2, nudft2_direct

__all__ = [
    "NonuniformPeriodicFMM",
    "nudft2_direct",
    "nufft1_adjoint",
    "nufft2",
    "trig_barycentric_dense",
]

"""Distributed FFTs on the virtual cluster (the cuFFTXT substitute).

Every pipeline here is assembled from two stage kinds, each written
once — a batched serial FFT along one local axis
(:func:`~repro.dfft.localfft.local_fft_stage`) and a global
redistribution (:func:`~repro.dfft.transpose.distributed_transpose`) —
to which it passes its own stage names, regions, axes and chunk counts:

- :class:`~repro.dfft.fft1d.Distributed1DFFT` — the industry-standard
  in-order six-step radix-P split with **three** all-to-all transposes
  (the paper's baseline, Section 3).  Transposes are chunk-pipelined
  against local FFT compute, reproducing cuFFTXT's near-perfect overlap
  (Figure 2 top) — and its communication-bound wall time.
- :class:`~repro.dfft.fft2d.Distributed2DFFT` — the M x P 2D FFT with a
  **single** all-to-all, plus cuFFT-style load callbacks used to fuse
  the FMM-FFT's POST stage into the first FFT (Algorithm 1, lines
  15-16).
- :class:`~repro.dfft.decomp.Distributed3DFFT` — slab and pencil
  decompositions of a 3D transform for routed multi-node machines: one
  global all-to-all (slab) vs. two subgroup exchanges on a ``Gr x Gc``
  process grid (pencil).
- :class:`~repro.dfft.realfft.DistributedRealFFT` — the real-input
  two-for-one FFT over a half-length :class:`Distributed1DFFT`.

All are rows of the pipeline table (:mod:`repro.pipelines`) and meet
its contract; all run real NumPy numerics in ``execute=True`` clusters
and shape-determined timing in ``execute=False`` clusters.
"""

from __future__ import annotations

from repro.dfft.layout import BlockRows
from repro.dfft.transpose import distributed_transpose
from repro.dfft.localfft import local_fft_stage
from repro.dfft.fft1d import Distributed1DFFT
from repro.dfft.fft2d import Distributed2DFFT
from repro.dfft.decomp import Distributed3DFFT, default_grid
from repro.dfft.realfft import DistributedRealFFT

__all__ = [
    "BlockRows",
    "Distributed1DFFT",
    "Distributed2DFFT",
    "Distributed3DFFT",
    "DistributedRealFFT",
    "default_grid",
    "distributed_transpose",
    "local_fft_stage",
]

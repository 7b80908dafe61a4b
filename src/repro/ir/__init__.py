"""repro.ir — backend-neutral plan IR with a compiled replay executor.

The subsystem in three moves:

1. **Capture** (:mod:`repro.ir.capture`): run any pipeline once on
   the cluster itself with the engine's capture tape open — the
   capture run *is* the eager run — and get an :class:`IRGraph` of
   every step the engine priced, with dependency edges naming their
   true producers.
2. **Certify** (:meth:`IRGraph.certify` + :mod:`repro.ir.prealloc`):
   replay timing-only onto a scratch cluster, hazard-sanitize the
   ledger, and check every captured collective against its
   :class:`~repro.analysis.plancheck.PlanCertificate`, deriving the
   graph-level preallocation contract.
3. **Replay** (:class:`ReplayExecutor`): a loop that hands the compiled
   steps to the engine's issue halves — the same code an eager op runs
   after pricing — with zero per-run plan/graph construction, so
   ledger, telemetry, and (execute mode) numerics are bit-identical to
   the eager run by construction.

:mod:`repro.ir.pipelines` captures the pipelines of the one table
(:mod:`repro.pipelines`) by name or from a built object;
:mod:`repro.ir.fuse` implements the opt-in elementwise-stage fusion.
"""

from __future__ import annotations

from repro.ir.capture import CaptureError, capture
from repro.ir.executor import ReplayError, ReplayExecutor, scratch_replay
from repro.ir.fuse import fuse_elementwise
from repro.ir.graph import IRGraph, IRNode
from repro.ir.pipelines import capture_built, capture_pipeline
from repro.ir.prealloc import check_graph_prealloc

__all__ = [
    "CaptureError",
    "IRGraph",
    "IRNode",
    "ReplayError",
    "ReplayExecutor",
    "capture",
    "capture_built",
    "capture_pipeline",
    "check_graph_prealloc",
    "fuse_elementwise",
    "scratch_replay",
]

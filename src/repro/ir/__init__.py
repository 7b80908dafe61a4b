"""repro.ir — backend-neutral plan IR with a compiled replay executor.

The subsystem in three moves:

1. **Capture** (:mod:`repro.ir.capture`): run any pipeline once on
   the cluster itself with the engine's capture tape open — the
   capture run *is* the eager run — and get an :class:`IRGraph` of
   every step the engine priced, with dependency edges naming their
   true producers.
2. **Certify** (:meth:`IRGraph.certify`): replay timing-only onto a
   scratch cluster and hazard-sanitize the ledger.  The captured
   messages are not checked again: they are the compiled messages of
   plans :func:`~repro.comm.plans.build_plan` certified when the
   capture run built them.
3. **Replay** (:func:`~repro.ir.executor.compile_tape` once per graph,
   then :class:`ReplayExecutor` per cluster): a loop that hands the
   compiled steps to the engine's issue halves — the same code an
   eager op runs after pricing — with zero per-run plan/graph
   construction, so ledger, telemetry, and (execute mode) numerics are
   bit-identical to the eager run by construction.

:mod:`repro.ir.pipelines` captures the pipelines of the one table
(:mod:`repro.pipelines`) by name or from a built object.
"""

from __future__ import annotations

from repro.ir.capture import CaptureError, capture
from repro.ir.executor import ReplayError, ReplayExecutor, scratch_replay
from repro.ir.graph import IRGraph, IRNode
from repro.ir.pipelines import capture_built, capture_pipeline

__all__ = [
    "CaptureError",
    "IRGraph",
    "IRNode",
    "ReplayError",
    "ReplayExecutor",
    "capture",
    "capture_built",
    "capture_pipeline",
    "scratch_replay",
]

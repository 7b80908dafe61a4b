"""Observability: the ledger as first-class telemetry.

The paper's headline evidence is observability — Figure 2 is an nvprof
timeline showing comm hidden under compute, and Section 5's model is
validated by joining per-kernel measurements against closed-form
predictions.  This package gives the simulator the same toolchain:

- :mod:`repro.obs.region` — a hierarchical region API
  (``with obs.region(cl, "fmmfft/fmm"): ...``) threaded through the
  ``dfft``/``fmm``/``core`` pipelines, stamping every
  :class:`~repro.machine.ledger.OpRecord` with a stage path;
- :mod:`repro.obs.perfetto` — Perfetto/Chrome trace-event export: one
  track per (device, engine), flow arrows for wait edges and
  sendrecv/collective pairs, counter tracks for achieved GFLOP/s,
  memory GB/s, and in-flight comm bytes, plus a fault track
  (:func:`~repro.obs.perfetto.fault_track_events`) placing injected
  faults next to the retries they caused;
- :mod:`repro.obs.fold` — one read of a finished run
  (:func:`~repro.obs.fold.fold_run`): comm bytes, per-message
  measured-vs-model, retry attempts, and for a serve run its faults,
  cache moves, queue samples, sheds, per-class outcomes and SLO
  timeline, as :class:`~repro.obs.fold.RunFacts`.  ``ServeReport``, the
  telemetry snapshot and the metrics' comm table and retry line all
  render it;
- :mod:`repro.obs.metrics` — per-stage rollups, the measured-vs-model
  join (Figure 5 efficiencies), the comm table (per-message measured vs
  plan model, summed per stage), comm/compute overlap and exposed-comm
  accounting, and critical-path extraction with per-op slack over the
  happens-before graph;
- :mod:`repro.obs.telemetry` — the snapshot of a run's facts
  (counters, gauges, histograms on a fixed log-spaced grid) held by a
  :class:`~repro.obs.telemetry.MetricsRegistry`, with a versioned
  snapshot document and Prometheus text exposition;
- :mod:`repro.obs.slo` — windowed availability objectives with
  multi-window burn-rate alerting over a run's outcomes;
- :mod:`repro.obs.top` — the ``repro top`` ASCII dashboard rendered
  from a snapshot or serve-run document.

CLI entry points: ``repro analyze`` (the report of one simulated run,
``--trace-out`` for its Perfetto file) and ``repro top``.
See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from repro.obs.fold import Message, RunFacts, fold_run
from repro.obs.metrics import (
    CommStage,
    CriticalPath,
    MetricsReport,
    ModelJoin,
    OverlapStats,
    StageStat,
    comm_stages,
    compute_metrics,
    critical_path,
    join_fmm_model,
    overlap_stats,
    overlap_summary,
    rollup,
)
from repro.obs.perfetto import (
    build_trace,
    fault_track_events,
    merge_fault_track,
    save_trace,
    validate_trace,
)
from repro.obs.region import region
from repro.obs.slo import SloAlert, SloObjective, SloTimeline, slo_timeline
from repro.obs.telemetry import (
    MetricsRegistry,
    bucket_bounds,
    load_snapshot,
    prometheus_text,
    telemetry_rows,
)
from repro.obs.top import render_dashboard

__all__ = [
    "CommStage",
    "CriticalPath",
    "Message",
    "MetricsRegistry",
    "MetricsReport",
    "ModelJoin",
    "OverlapStats",
    "RunFacts",
    "SloAlert",
    "SloObjective",
    "SloTimeline",
    "StageStat",
    "bucket_bounds",
    "build_trace",
    "comm_stages",
    "compute_metrics",
    "critical_path",
    "fault_track_events",
    "fold_run",
    "join_fmm_model",
    "load_snapshot",
    "merge_fault_track",
    "overlap_stats",
    "overlap_summary",
    "prometheus_text",
    "region",
    "render_dashboard",
    "rollup",
    "save_trace",
    "slo_timeline",
    "telemetry_rows",
    "validate_trace",
]

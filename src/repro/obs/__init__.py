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
- :mod:`repro.obs.metrics` — per-stage rollups, the measured-vs-model
  join (Figure 5 efficiencies), the comm measured-vs-plan-model join
  validating :mod:`repro.comm` predictions against the ledger,
  comm/compute overlap and exposed-comm accounting, and critical-path
  extraction with per-op slack over the happens-before graph;
- :mod:`repro.obs.telemetry` — the *live* side: a process-wide metrics
  registry (counters, gauges, streaming histograms on a fixed
  log-spaced grid) every serve run emits into, with versioned snapshot
  / diff documents and Prometheus text exposition;
- :mod:`repro.obs.slo` — windowed availability objectives with
  multi-window burn-rate alerting over the registry;
- :mod:`repro.obs.top` — the ``repro top`` ASCII dashboard rendered
  from a snapshot or serve-run document.

CLI entry points: ``repro metrics``, ``repro profile --trace-out``,
``repro transform --trace-out``, ``repro trace``, ``repro top``.
See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from repro.obs.metrics import (
    CommJoin,
    CriticalPath,
    MetricsReport,
    ModelJoin,
    OverlapStats,
    RetryStats,
    StageStat,
    compute_metrics,
    critical_path,
    join_comm_model,
    join_fmm_model,
    overlap_stats,
    overlap_summary,
    retry_stats,
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
from repro.obs.slo import SloAlert, SloObjective, SloTracker
from repro.obs.telemetry import (
    CounterSeries,
    GaugeSeries,
    HistogramSeries,
    MetricsRegistry,
    bucket_bounds,
    diff_snapshots,
    load_snapshot,
    prometheus_text,
)
from repro.obs.top import render_dashboard

__all__ = [
    "CommJoin",
    "CounterSeries",
    "CriticalPath",
    "GaugeSeries",
    "HistogramSeries",
    "MetricsRegistry",
    "MetricsReport",
    "ModelJoin",
    "OverlapStats",
    "RetryStats",
    "SloAlert",
    "SloObjective",
    "SloTracker",
    "StageStat",
    "bucket_bounds",
    "build_trace",
    "compute_metrics",
    "critical_path",
    "diff_snapshots",
    "fault_track_events",
    "join_comm_model",
    "join_fmm_model",
    "load_snapshot",
    "merge_fault_track",
    "overlap_stats",
    "overlap_summary",
    "prometheus_text",
    "region",
    "render_dashboard",
    "retry_stats",
    "rollup",
    "save_trace",
    "validate_trace",
]

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
- :mod:`repro.obs.telemetry` — a metrics registry (counters, gauges,
  histograms on a fixed log-spaced grid) built from a finished run
  (:func:`~repro.obs.telemetry.comm_telemetry`,
  :func:`~repro.obs.telemetry.run_telemetry`), with a versioned
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
from repro.obs.slo import SloAlert, SloObjective, SloTimeline, slo_timeline
from repro.obs.telemetry import (
    CounterSeries,
    GaugeSeries,
    HistogramSeries,
    MetricsRegistry,
    bucket_bounds,
    comm_telemetry,
    load_snapshot,
    prometheus_text,
    run_telemetry,
    slo_telemetry,
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
    "SloTimeline",
    "StageStat",
    "bucket_bounds",
    "build_trace",
    "comm_telemetry",
    "compute_metrics",
    "critical_path",
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
    "run_telemetry",
    "save_trace",
    "slo_telemetry",
    "slo_timeline",
    "validate_trace",
]

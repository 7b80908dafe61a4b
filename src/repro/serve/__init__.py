"""repro.serve — a batching transform service over the virtual cluster.

The motivating observation: an FMM-FFT server that re-plans and
re-autotunes per request throws away the two things this codebase is
good at — amortizing launches via batched execution and knowing the
machine's winning parameters ahead of time.  This package serves
transform requests the way an inference server serves tokens:

- :mod:`repro.serve.request` — requests, completions, Poisson workloads;
- :mod:`repro.serve.queue` — bounded admission queue with backpressure;
- :mod:`repro.serve.cache` — LRU plan cache + persistent FFTW-style
  wisdom (zero searches on a warm start);
- :mod:`repro.serve.batcher` — continuous batching by execution
  compatibility;
- :mod:`repro.serve.scheduler` — discrete-event loop interleaving
  in-flight batches so one batch's comm hides under another's compute,
  with graceful degradation under injected faults (failed batches
  re-enqueue within retry budgets and deadline targets, replanned
  against the degraded topology — see ``docs/FAULTS.md``);
- :mod:`repro.serve.stats` — latency percentiles (nearest-rank),
  throughput, hit rates, deadline-miss and retry accounting, the
  Perfetto serve track, and the versioned ``serve-run`` JSON document.

A finished run is read once (``ServeScheduler.facts``, see
:mod:`repro.obs.fold`); its report, telemetry (``.telemetry``) and SLO
timeline (``.slo``) render those facts — see ``repro top`` and
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from repro.serve.batcher import Batch, Batcher
from repro.serve.cache import PlanCache, Wisdom, spec_fingerprint
from repro.serve.queue import AdmissionQueue
from repro.serve.request import (
    DEADLINE_CLASSES,
    DEADLINE_TARGETS,
    CompletedRequest,
    TransformRequest,
    synthetic_workload,
)
from repro.serve.scheduler import ServeScheduler
from repro.serve.stats import (
    ServeReport,
    merge_serve_track,
    serve_run_doc,
    serve_trace_events,
    summarize,
)

__all__ = [
    "DEADLINE_CLASSES",
    "DEADLINE_TARGETS",
    "AdmissionQueue",
    "Batch",
    "Batcher",
    "CompletedRequest",
    "PlanCache",
    "ServeReport",
    "ServeScheduler",
    "TransformRequest",
    "Wisdom",
    "merge_serve_track",
    "serve_run_doc",
    "serve_trace_events",
    "spec_fingerprint",
    "summarize",
    "synthetic_workload",
]

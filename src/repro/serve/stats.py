"""Serving telemetry: latency percentiles, throughput, cache hit rates.

:func:`summarize` renders a finished :class:`ServeScheduler`'s
:attr:`~ServeScheduler.facts` as a :class:`ServeReport` — p50/p95/p99
latency overall and per deadline class, throughput, queue depth, shed
counts, batch shape, and the plan/wisdom cache counters (whose
``searches`` field is the acceptance criterion's "zero autotune
searches on a warm start").

:func:`serve_trace_events` renders the same run as a Chrome-trace
process — one X span per batch (release to finish) plus a queue-depth
counter — that :func:`merge_serve_track` splices into a device trace
from :func:`repro.obs.perfetto.build_trace`, so batch lifetimes sit in
the same Perfetto timeline as the kernels and collectives they caused.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.obs.telemetry import QUANTILES, nearest_rank
from repro.serve.request import DEADLINE_CLASSES, count_by_class
from repro.serve.scheduler import ServeScheduler

#: Chrome-trace pid for the serve track; device pids are 0..G-1 and real
#: clusters top out at 8 devices, so 99 never collides.
SERVE_PID = 99


def _percentiles(xs: list[float]) -> dict[str, float]:
    """Nearest-rank percentiles: the p-th of n samples is the
    ``ceil(p/100 * n)``-th smallest, an *observed* value (interpolation
    would report a tail below the worst request).  The telemetry
    :func:`~repro.obs.telemetry.histogram` ranks by the same
    :func:`~repro.obs.telemetry.nearest_rank`, so the two agree within
    one bucket's width."""
    if not xs:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    arr = sorted(xs)
    return {k: arr[nearest_rank(q, len(arr)) - 1] for k, q in QUANTILES}


@dataclass(frozen=True)
class ServeReport:
    """Aggregated outcome of one served trace (all times in seconds)."""

    completed: int
    shed: dict[str, int]
    wall_time: float
    throughput: float
    latency: dict[str, float]
    latency_by_class: dict[str, dict[str, float]]
    queue_depth_max: int
    queue_depth_mean: float
    batches: int
    mean_batch_size: float
    plan_hit_rate: float
    wisdom_hits: int
    wisdom_misses: int
    searches: int
    #: per-class completions that finished past their deadline target
    deadline_misses: dict[str, int]
    #: per-class requests re-enqueued after their batch failed
    retried: dict[str, int]
    #: per-class requests shed on retry (budget/deadline exceeded)
    retry_shed: dict[str, int]
    #: batches that died with a CommFailure
    failed_batches: int
    #: fault events the injector stamped (0 on fault-free runs)
    fault_events: int
    #: total ledger time spent in timed-out ``!fail`` comm attempts
    retry_time: float

    def to_json(self) -> str:
        """Serialize the report as indented JSON."""
        return json.dumps(asdict(self), indent=1, sort_keys=True)

    def render(self) -> str:
        """Human-readable multi-line summary (the CLI prints this)."""
        lines = [
            f"completed      {self.completed}  "
            f"(shed {sum(self.shed.values())})",
            f"wall time      {self.wall_time * 1e3:9.3f} ms",
            f"throughput     {self.throughput:9.1f} req/s",
            f"latency        p50 {self.latency['p50'] * 1e3:8.3f} ms   "
            f"p95 {self.latency['p95'] * 1e3:8.3f} ms   "
            f"p99 {self.latency['p99'] * 1e3:8.3f} ms",
        ]
        for cls in DEADLINE_CLASSES:
            pct = self.latency_by_class[cls]
            lines.append(
                f"  {cls:<12} p50 {pct['p50'] * 1e3:8.3f} ms   "
                f"p95 {pct['p95'] * 1e3:8.3f} ms   "
                f"p99 {pct['p99'] * 1e3:8.3f} ms"
            )
        misses = ", ".join(
            f"{cls} {self.deadline_misses[cls]}" for cls in DEADLINE_CLASSES
        )
        lines += [
            f"deadline miss  {misses}",
            f"queue depth    max {self.queue_depth_max}  "
            f"mean {self.queue_depth_mean:.2f}",
            f"batches        {self.batches}  "
            f"(mean size {self.mean_batch_size:.2f})",
            f"plan cache     hit rate {self.plan_hit_rate * 100.0:.1f}%",
            f"wisdom         {self.wisdom_hits} hits / "
            f"{self.wisdom_misses} misses, {self.searches} searches",
        ]
        if self.fault_events or self.failed_batches or self.retry_time:
            lines += [
                f"faults         {self.fault_events} events, "
                f"{self.failed_batches} failed batches",
                f"retries        {sum(self.retried.values())} re-enqueued / "
                f"{sum(self.retry_shed.values())} shed, exposed "
                f"{self.retry_time * 1e3:.3f} ms",
            ]
        return "\n".join(lines)


def summarize(sched: ServeScheduler) -> ServeReport:
    """Render a finished scheduler run's facts as a :class:`ServeReport`."""
    facts, cache, wall = sched.facts, sched.batcher.cache, sched.wall_time
    by_class = {cls: [] for cls in DEADLINE_CLASSES}
    misses = dict.fromkeys(DEADLINE_CLASSES, 0)
    for _, cls, lat, missed in facts.completions:
        by_class[cls].append(lat)
        misses[cls] += missed
    depths = [sum(d) for _, d in facts.depths]
    ks = [k for k, _, _ in facts.batches]
    done = len(facts.completions)
    return ServeReport(
        completed=done,
        shed=count_by_class(c for _, c in facts.sheds),
        wall_time=wall,
        throughput=done / wall if wall > 0 else 0.0,
        latency=_percentiles([lat for _, _, lat, _ in facts.completions]),
        latency_by_class={c: _percentiles(xs) for c, xs in by_class.items()},
        queue_depth_max=max(depths) if depths else 0,
        queue_depth_mean=float(np.mean(depths)) if depths else 0.0,
        batches=len(ks),
        mean_batch_size=float(np.mean(ks)) if ks else 0.0,
        plan_hit_rate=cache.hit_rate,
        wisdom_hits=cache.wisdom_hits,
        wisdom_misses=cache.wisdom_misses,
        searches=cache.searches,
        deadline_misses=misses,
        retried=count_by_class(c for _, c, shed in facts.failures if not shed),
        retry_shed=count_by_class(c for _, c, shed in facts.failures if shed),
        failed_batches=sum(lat is None for _, _, lat in facts.batches),
        fault_events=len(facts.fault_events),
        retry_time=facts.retry_time,
    )


#: bumped whenever the serve-run JSON envelope changes incompatibly
RUN_SCHEMA_VERSION = 1

#: ``repro serve --json`` / ``repro chaos --json`` envelope kind tag
RUN_SCHEMA_KIND = "serve-run"


def serve_run_doc(sched: ServeScheduler,
                  report: ServeReport | None = None) -> dict:
    """One versioned document for a served trace: report + telemetry.

    The shared-schema envelope ``repro serve --json`` and ``repro chaos
    --json`` emit::

        {"version": 1, "kind": "serve-run",
         "report": {...ServeReport...},
         "telemetry": {...telemetry-snapshot...},
         "slo": {"objectives": {...}, "alerts": [...]}}

    ``repro top --replay`` renders a dashboard from exactly this
    document; the snapshot's quantiles re-derive the report's
    percentiles within one histogram bucket.
    """
    rep = report if report is not None else summarize(sched)
    return {
        "version": RUN_SCHEMA_VERSION,
        "kind": RUN_SCHEMA_KIND,
        "report": asdict(rep),
        "telemetry": sched.telemetry.snapshot(time=sched.wall_time),
        "slo": sched.slo.to_json(),
    }


def _slo_alert_events(sched: ServeScheduler) -> list[dict]:
    """SLO burn-rate alert windows as X spans on the serve track.

    Consecutive trigger→clear transitions per class become one span; a
    still-firing alert spans to the run's wall time.  (The Perfetto
    validator whitelists X/M/C/s/t/f shapes — no instant events.)
    """
    alerts = sched.slo.alerts
    if not alerts:
        return []
    events: list[dict] = [
        {"name": "thread_name", "ph": "M", "pid": SERVE_PID, "tid": 1,
         "args": {"name": "slo alerts"}},
    ]
    open_at: dict[str, object] = {}
    spans: list[tuple] = []
    for a in alerts:
        if a.kind == "trigger":
            open_at[a.deadline_class] = a
        elif a.deadline_class in open_at:
            spans.append((open_at.pop(a.deadline_class), a.time))
    wall = sched.wall_time
    for a in open_at.values():
        spans.append((a, max(wall, a.time)))
    for a, end in sorted(spans, key=lambda s: (s[0].time, s[0].deadline_class)):
        events.append({
            "name": f"slo burn {a.deadline_class}",
            "ph": "X", "pid": SERVE_PID, "tid": 1,
            "ts": a.time * 1e6,
            "dur": max(0.0, end - a.time) * 1e6,
            "args": {"class": a.deadline_class,
                     "short_burn": a.short_burn, "long_burn": a.long_burn},
        })
    return events


def serve_trace_events(sched: ServeScheduler) -> list[dict]:
    """Chrome-trace events for the serve track (pid :data:`SERVE_PID`).

    One metadata pair names the process/thread, each batch becomes an X
    span over its device-occupancy window (release to finish), every
    queue-depth sample becomes a C counter point, and SLO burn-rate
    alert windows land as X spans on a second thread — all shapes that
    :func:`repro.obs.perfetto.validate_trace` accepts.
    """
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": SERVE_PID,
         "args": {"name": "serve"}},
        {"name": "thread_name", "ph": "M", "pid": SERVE_PID, "tid": 0,
         "args": {"name": "batches"}},
    ]
    events.extend(_slo_alert_events(sched))
    for b in sched.batches:
        events.append({
            "name": f"batch {b['bid']} (k={b['k']}, N={b['N']})",
            "ph": "X", "pid": SERVE_PID, "tid": 0,
            "ts": b["release"] * 1e6,
            "dur": max(0.0, (b["finish"] - b["release"])) * 1e6,
            "args": {"batch_size": b["k"], "N": b["N"],
                     "setup_time_us": b["setup_time"] * 1e6,
                     "failed": bool(b.get("failed", False))},
        })
    for t, depth in sched.queue.depth_samples:
        events.append({
            "name": "queue depth", "ph": "C", "pid": SERVE_PID,
            "ts": t * 1e6, "args": {"depth": depth},
        })
    return events


def merge_serve_track(trace: dict, sched: ServeScheduler) -> dict:
    """Splice the serve track into a device trace document, in place.

    ``trace`` is a ``build_trace`` result; the same document is
    returned so calls chain into ``save_trace``-style writers.
    """
    trace["traceEvents"] = list(trace["traceEvents"]) + serve_trace_events(sched)
    return trace

"""Metrics read off a finished run.

A run leaves every observation behind — the ledger, the comm log, the
scheduler's batch, completion and failure records, the queue's samples,
the injector's fault events — each stamped in simulated time.  So the
metrics are a function of the finished run, built once after it:
:func:`comm_telemetry` reads the ``comm.*`` series off a cluster and
:func:`run_telemetry` adds ``faults.*``, ``cache.*``, ``serve.*`` and
``slo.*`` for a serve run.  Nothing on the run path keeps a registry.

A :class:`MetricsRegistry` holds labeled counters (monotone totals),
gauges (last value, bounded sample history) and histograms on one fixed
log-spaced bucket grid (:func:`bucket_bounds`): bucket counts are
integers, so quantiles do not depend on observation order and replays
report them bit-identically (the float ``sum`` is not
reordering-invariant).  The ``telemetry-registry`` lint rule keeps
series construction in this module and series lookups in
:mod:`repro.obs`, so every metric lands in one snapshot.

Exporters: :meth:`MetricsRegistry.snapshot` (versioned JSON, kind
``telemetry-snapshot``) and :func:`prometheus_text` (Prometheus text
exposition, validated in CI by ``tools/check_prometheus.py``).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from pathlib import Path

from repro.util.validation import ParameterError

#: bumped whenever the snapshot envelope changes incompatibly
SCHEMA_VERSION = 1

#: the snapshot envelope's ``kind`` tag
SCHEMA_KIND = "telemetry-snapshot"

#: smallest finite bucket upper bound (seconds / ratio / bytes — the
#: grid is unit-agnostic)
BUCKET_LO = 1e-7

#: log-spaced buckets per decade (resolution ``10**0.1 ~ 1.26x``)
BUCKETS_PER_DECADE = 10

#: decades covered by the finite grid: [1e-7, 1e3]
BUCKET_DECADES = 10

#: multiplicative width of one bucket — "agreement within bucket
#: resolution" means within this factor
BUCKET_GROWTH = 10.0 ** (1.0 / BUCKETS_PER_DECADE)

#: the standard quantile read: (key, q) pairs
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def nearest_rank(q: float, n: int) -> int:
    """1-based rank of the nearest-rank ``q``-quantile of ``n`` samples:
    the ``ceil(q * n)``-th smallest, an observed value, never rank 0."""
    return max(1, math.ceil(q * n))


def bucket_bounds() -> list[float]:
    """The shared bucket upper bounds (ascending, finite).

    A pure function of module constants — every histogram in every
    process uses bit-identical boundaries.
    """
    n = BUCKET_DECADES * BUCKETS_PER_DECADE
    return [BUCKET_LO * 10.0 ** (i / BUCKETS_PER_DECADE) for i in range(n + 1)]


_BOUNDS = bucket_bounds()


def _bucket_index(value: float) -> int:
    """Index of the bucket holding ``value``.

    Bucket ``i`` (0 < i < len(bounds)) holds ``bounds[i-1] < v <=
    bounds[i]``; bucket 0 is the underflow (``v <= bounds[0]``) and the
    last index (``len(bounds)``) is the overflow.
    """
    return bisect_left(_BOUNDS, value)


def _check_name(name: str) -> None:
    if not name or not all(
        c.islower() or c.isdigit() or c in "._" for c in name
    ) or not name[0].islower():
        raise ParameterError(
            f"metric name must be lowercase dotted ([a-z0-9._]), got {name!r}"
        )


def _label_key(labels: dict | None) -> tuple:
    if not labels:
        return ()
    for k, v in labels.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise ParameterError(f"labels must be str -> str, got {labels!r}")
    return tuple(sorted(labels.items()))


class CounterSeries:
    """A monotone labeled counter (construct via ``registry.counter``)."""

    __slots__ = ("name", "labels", "value", "count", "last_time")

    kind = "counter"

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.count = 0
        self.last_time = 0.0

    def inc(self, amount: float = 1.0, t: float = 0.0) -> None:
        """Add ``amount`` at simulated time ``t``."""
        if amount < 0.0:
            raise ParameterError(f"counter increments must be >= 0, got {amount!r}")
        self.value += amount
        self.count += 1
        if t > self.last_time:
            self.last_time = t

class GaugeSeries:
    """A last-value gauge with a bounded, deterministically decimated
    sample history (construct via ``registry.gauge``).

    When the history exceeds ``max_samples`` every other sample is
    dropped and the keep-stride doubles — a pure function of the
    arrival sequence, so replays decimate identically.
    """

    __slots__ = ("name", "labels", "value", "last_time", "samples",
                 "max_samples", "_stride", "_seen")

    kind = "gauge"

    def __init__(self, name: str, labels: tuple = (), max_samples: int = 2048):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.last_time = 0.0
        #: retained (time, value) history for sparklines / replay
        self.samples: list[tuple[float, float]] = []
        self.max_samples = max_samples
        self._stride = 1
        self._seen = 0

    def set(self, value: float, t: float = 0.0) -> None:
        """Record the gauge's value at simulated time ``t``."""
        self.value = float(value)
        if t >= self.last_time:
            self.last_time = t
        if self._seen % self._stride == 0:
            self.samples.append((t, float(value)))
            if len(self.samples) > self.max_samples:
                self.samples = self.samples[::2]
                self._stride *= 2
        self._seen += 1

class HistogramSeries:
    """A streaming quantile sketch on the shared log-spaced grid
    (construct via ``registry.histogram``).

    Buckets are integer counts on :func:`bucket_bounds`; quantiles are
    nearest-rank reads of the bucket upper bound, so the same
    observations in any order report bit-identical p50/p95/p99.
    """

    __slots__ = ("name", "labels", "counts", "count", "sum", "max",
                 "last_time")

    kind = "histogram"

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        #: sparse bucket index -> integer count
        self.counts: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self.last_time = 0.0

    def observe(self, value: float, t: float = 0.0) -> None:
        """Record one observation at simulated time ``t``."""
        if value != value or value < 0.0:
            raise ParameterError(f"histogram values must be >= 0, got {value!r}")
        idx = _bucket_index(value)
        self.counts[idx] = self.counts.get(idx, 0) + 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        if t > self.last_time:
            self.last_time = t

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, reported as its bucket's upper bound.

        Overflow observations report the exact maximum;
        an empty sketch reports 0.0.  Within :data:`BUCKET_GROWTH` of
        the exact nearest-rank sample value for in-range data.
        """
        if not 0.0 < q <= 1.0:
            raise ParameterError(f"quantile must be in (0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = nearest_rank(q, self.count)
        seen = 0
        for idx in sorted(self.counts):
            seen += self.counts[idx]
            if seen >= rank:
                if idx >= len(_BOUNDS):
                    return self.max
                return _BOUNDS[idx]
        return self.max

    def quantiles(self) -> dict[str, float]:
        """The standard ``{"p50": ..., "p95": ..., "p99": ...}`` read."""
        return {k: self.quantile(q) for k, q in QUANTILES}

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Named/labeled series store.

    The sole sanctioned constructor of metric series (lint rule
    ``telemetry-registry``).  A disabled one (``enabled=False``) hands
    out series that land nowhere, so it stays empty.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._series: dict[tuple, object] = {}
        # names validated once; derivations re-resolve series per
        # observation, so re-scanning the name each time is pure waste
        self._checked_names: set[str] = set()

    def __len__(self) -> int:
        return len(self._series)

    def _get(self, cls, name: str, labels: dict | None):
        if not self.enabled:
            return cls(name)
        if name not in self._checked_names:
            _check_name(name)
            self._checked_names.add(name)
        lk = _label_key(labels)
        key = (name, lk)
        s = self._series.get(key)
        if s is None:
            s = cls(name, lk)
            self._series[key] = s
        elif not isinstance(s, cls):
            raise ParameterError(
                f"series {name}{dict(lk)} already registered as {s.kind}"
            )
        return s

    def counter(self, name: str, labels: dict | None = None) -> CounterSeries:
        """The counter for (name, labels), created on first use."""
        return self._get(CounterSeries, name, labels)

    def gauge(self, name: str, labels: dict | None = None) -> GaugeSeries:
        """The gauge for (name, labels), created on first use."""
        return self._get(GaugeSeries, name, labels)

    def histogram(self, name: str, labels: dict | None = None) -> HistogramSeries:
        """The histogram for (name, labels), created on first use."""
        return self._get(HistogramSeries, name, labels)

    def get(self, name: str, labels: dict | None = None):
        """Look up an existing series (None when never emitted)."""
        return self._series.get((name, _label_key(labels)))

    def series(self) -> list:
        """All series, sorted by (name, labels) for stable iteration."""
        return [self._series[k] for k in sorted(self._series)]

    # -- export --------------------------------------------------------

    def snapshot(self, time: float = 0.0) -> dict:
        """The registry as a versioned JSON-ready document.

        ``time`` is the simulated instant the snapshot represents (a
        serve run's is its wall time).
        """
        rows = []
        for s in self.series():
            row = {"name": s.name, "labels": dict(s.labels),
                   "type": s.kind, "last_time": s.last_time}
            if s.kind == "counter":
                row.update(value=s.value, count=s.count)
            elif s.kind == "gauge":
                row.update(value=s.value,
                           samples=[[t, v] for t, v in s.samples])
            else:
                row.update(count=s.count, sum=s.sum, max=s.max,
                           counts={str(i): n for i, n in
                                   sorted(s.counts.items())},
                           quantiles=s.quantiles())
            rows.append(row)
        return {
            "version": SCHEMA_VERSION,
            "kind": SCHEMA_KIND,
            "time": time,
            "buckets": {"lo": BUCKET_LO,
                        "per_decade": BUCKETS_PER_DECADE,
                        "decades": BUCKET_DECADES},
            "series": rows,
        }

    def save(self, path: str | Path, time: float = 0.0) -> None:
        """Write the snapshot document to ``path``."""
        Path(path).write_text(json.dumps(self.snapshot(time), indent=1))


def _check_snapshot(doc: dict) -> None:
    if (
        not isinstance(doc, dict)
        or doc.get("version") != SCHEMA_VERSION
        or doc.get("kind") != SCHEMA_KIND
    ):
        raise ParameterError(
            f"not a version-{SCHEMA_VERSION} {SCHEMA_KIND} document"
        )


def load_snapshot(path: str | Path) -> dict:
    """Read back a snapshot document, validating the envelope."""
    doc = json.loads(Path(path).read_text())
    _check_snapshot(doc)
    return doc


def comm_telemetry(cluster, registry: MetricsRegistry | None = None
                   ) -> MetricsRegistry:
    """The ``comm.*`` series of what ran on ``cluster``, read off its
    ledger and comm log into ``registry`` (default: a fresh one).

    ``comm.bytes{link_class}`` counts every message's bytes at its end
    (``bulk``: a flat-model call's ``G x payload``, at the last one's
    end).  ``comm.measured_vs_model{link}`` observes each message's
    record window over its fault-free price at the pair's own latency (a
    lone transfer pays the worst-path one); under a stretch fault that
    price is the duration over the injector's stretch, which can miss
    the priced value in the last bit.  ``comm.retry{stage}`` counts
    timed-out attempts (``!fail`` records; a collective's G are one) by
    the op name's last dot-component, so batch namespaces stay bounded.
    """
    reg = MetricsRegistry() if registry is None else registry
    spec, faults = cluster.spec, cluster.faults
    links: dict[tuple, tuple] = {}
    bulk_end = 0.0
    for r in cluster.ledger:
        if r.kind != "comm":
            continue
        src, dst, nbytes = r.device, r.peer, r.comm_bytes
        if r.name.endswith("!fail"):
            if dst >= 0 or src == 0:
                stage = r.name[:-len("!fail")].rsplit(".", 1)[-1]
                reg.counter("comm.retry", {"stage": stage}).inc(1.0, t=r.end)
            continue
        if dst < 0:
            bulk_end = max(bulk_end, r.end)
            continue
        if dst == src or not nbytes > 0.0:
            continue
        link = links.get((src, dst))
        if link is None:
            pair = spec.pair(src, dst)
            link = links[src, dst] = (
                reg.counter("comm.bytes", {"link_class": pair.link_class}),
                reg.histogram("comm.measured_vs_model",
                              {"link": f"{min(src, dst)}-{max(src, dst)}"}),
                pair.latency)
        counter, ratio, latency = link
        start, end = r.start, r.end
        counter.inc(nbytes, t=end)
        s = 1.0 if faults is None else faults.comm_scale(src, dst, start)
        lone = spec.p2p_time(src, dst, nbytes)
        if r.duration == (lone if s == 1.0 else lone * s):
            model = spec.p2p_time(src, dst, nbytes, None, latency)
        else:  # a plan's message: priced at the pair's latency already
            model = r.duration if s == 1.0 else r.duration / s
        if model > 0.0 and end > start:
            ratio.observe((end - start) / model, t=end)
    for e in cluster.comm_log:
        if e["algorithm"] == "bulk":
            reg.counter("comm.bytes", {"link_class": "bulk"}).inc(
                e["payload"] * e["G"], t=bulk_end)
    return reg


def run_telemetry(sched, registry: MetricsRegistry | None = None
                  ) -> MetricsRegistry:
    """Every series of a finished serve run (a
    :class:`~repro.serve.scheduler.ServeScheduler`) into ``registry``
    (default: a fresh one): :func:`comm_telemetry` of its cluster, the
    injector's events, the cache's counter moves since the scheduler
    took it over (at the issue time of the batch that moved them), the
    queue's samples and sheds, per-batch, per-completion and
    per-failed-request series, and :func:`slo_telemetry` of ``sched.slo``.
    """
    # local import: serve.scheduler imports this module
    from repro.serve.request import DEADLINE_CLASSES

    reg = comm_telemetry(sched.cluster, registry)
    if sched.faults is not None:
        for e in sched.faults.events:
            reg.counter("faults.events", {"kind": e.kind}).inc(1.0, t=e.time)
    seen = sched.cache_baseline
    for b in sched.batches:
        for name, n in b["cache"].items():
            for _ in range(n - seen[name]):
                reg.counter(name).inc(1.0, t=b["issued"])
        seen = b["cache"]
        if b["failed"]:
            reg.counter("serve.batch_failed").inc(1.0, t=b["finish"])
        else:
            reg.histogram("serve.batch_latency").observe(
                max(0.0, b["finish"] - b["issued"]), t=b["finish"])
    q = sched.queue
    depth = [reg.gauge("serve.queue_depth", {"class": c})
             for c in DEADLINE_CLASSES]
    shed = {c: reg.counter("serve.shed", {"class": c})
            for c in DEADLINE_CLASSES}
    for t, by_class in q.class_depths[1:]:
        for gauge, d in zip(depth, by_class):
            gauge.set(d, t=t)
    for t, c in q.shed_at:
        shed[c].inc(1.0, t=t)
    for c in sched.completed:
        cls, lat = c.request.deadline, c.finish - c.request.arrival
        reg.histogram("serve.request_latency", {"class": cls}).observe(
            lat, t=c.finish)
        if lat > sched.deadline_targets[cls]:
            reg.counter("serve.deadline_miss", {"class": cls}).inc(
                1.0, t=c.finish)
    for t, r, was_shed in sched.failures:
        reg.counter("serve.retry_shed" if was_shed else "serve.retry",
                    {"class": r.deadline}).inc(1.0, t=t)
    return slo_telemetry(sched.slo, reg)


def slo_telemetry(timeline, registry: MetricsRegistry | None = None
                  ) -> MetricsRegistry:
    """The ``slo.*`` series of an :class:`~repro.obs.slo.SloTimeline`
    into ``registry`` (default: a fresh one): ``slo.burn_rate{class,
    window}`` gauges set at each burn sample and ``slo.alerts{class,
    kind}`` counters at each trigger/clear, all at their outcome's time.
    """
    reg = MetricsRegistry() if registry is None else registry
    for cls, burns in timeline.burns.items():
        for t, short, long_ in burns:
            reg.gauge("slo.burn_rate", {"class": cls, "window": "short"}
                      ).set(short, t=t)
            reg.gauge("slo.burn_rate", {"class": cls, "window": "long"}
                      ).set(long_, t=t)
    for a in timeline.alerts:
        reg.counter("slo.alerts", {"class": a.deadline_class,
                                   "kind": a.kind}).inc(1.0, t=a.time)
    return reg


def _prom_name(name: str) -> str:
    return name.replace(".", "_")


def _prom_labels(labels: dict, extra: tuple = ()) -> str:
    pairs = sorted(labels.items()) + list(extra)
    if not pairs:
        return ""
    body = ",".join(
        '{}="{}"'.format(k, str(v).replace("\\", "\\\\")
                         .replace('"', '\\"').replace("\n", "\\n"))
        for k, v in pairs
    )
    return "{" + body + "}"


def _prom_float(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    return f"{v:.10g}"


def prometheus_text(doc: dict) -> str:
    """Render a snapshot document in Prometheus text exposition format.

    One ``# TYPE`` line per metric name, then its samples; histograms
    expose cumulative ``_bucket{le=...}`` series on the shared bounds
    (buckets below the first and above the last observed index are
    elided, ``+Inf`` always present), plus ``_sum`` and ``_count``.
    ``tools/check_prometheus.py`` validates this output in CI.
    """
    _check_snapshot(doc)
    by_name: dict[str, list[dict]] = {}
    for row in doc["series"]:
        by_name.setdefault(row["name"], []).append(row)
    lines = []
    for name in sorted(by_name):
        rows = by_name[name]
        kind = rows[0]["type"]
        if any(r["type"] != kind for r in rows):
            raise ParameterError(f"metric {name} mixes series types")
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} {kind}")
        for row in rows:
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{pname}{_prom_labels(row['labels'])} "
                    f"{_prom_float(row['value'])}"
                )
                continue
            counts = {int(i): int(n) for i, n in row["counts"].items()}
            cum = 0
            for idx in sorted(counts):
                cum += counts[idx]
                le = (_BOUNDS[idx] if idx < len(_BOUNDS) else math.inf)
                lines.append(
                    f"{pname}_bucket"
                    f"{_prom_labels(row['labels'], (('le', _prom_float(le)),))}"
                    f" {cum}"
                )
            if not counts or max(counts) < len(_BOUNDS):
                lines.append(
                    f"{pname}_bucket"
                    f"{_prom_labels(row['labels'], (('le', '+Inf'),))}"
                    f" {row['count']}"
                )
            lines.append(f"{pname}_sum{_prom_labels(row['labels'])} "
                         f"{_prom_float(row['sum'])}")
            lines.append(f"{pname}_count{_prom_labels(row['labels'])} "
                         f"{row['count']}")
    return "\n".join(lines) + "\n" if lines else ""

"""Streaming metrics registry: the serve tier's live signal plane.

`ServeReport` and the Perfetto traces are *post-hoc* — computed once
after the scheduler finishes.  This module is the *during-the-run*
counterpart: a process-wide registry of labeled series

- :class:`CounterSeries` — monotone totals (``comm.retry``,
  ``cache.plan_hit``, ``faults.events{kind=...}``);
- :class:`GaugeSeries` — last-value-wins with a bounded sample history
  (``serve.queue_depth{class=...}``);
- :class:`HistogramSeries` — a mergeable streaming quantile sketch
  (``serve.request_latency{class=...}``,
  ``comm.measured_vs_model{link=...}``).

Every observation is stamped with **simulated** time from the
discrete-event clock — never the wall clock — so instrumented runs stay
bit-identical under ``repro chaos --replay-check`` and the
``deterministic-time`` lint rule holds.

Determinism of the sketch is by construction: every histogram shares
one fixed log-spaced bucket grid (:func:`bucket_bounds`), so merging
sketches from different fleet members is integer bucket-count addition
— associative, commutative, and therefore merge-order invariant — and
the nearest-rank quantiles read off the merged counts are replay- and
merge-stable bits.  (The ``sum`` field is a float accumulator and is
*not* reordering-invariant; quantiles are the contract.)

Series may only be constructed through :class:`MetricsRegistry` — the
``telemetry-registry`` lint rule flags direct ``CounterSeries`` /
``GaugeSeries`` / ``HistogramSeries`` constructions outside this module
— so every metric in the process is discoverable from one snapshot.

Exporters: :meth:`MetricsRegistry.snapshot` (shared versioned-JSON
envelope, kind ``telemetry-snapshot``), :func:`diff_snapshots` (the
delta a polling fleet router pays for instead of the full registry),
and :func:`prometheus_text` (Prometheus text exposition format,
validated in CI by ``tools/check_prometheus.py``).
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

#: the diff envelope's ``kind`` tag
DIFF_KIND = "telemetry-diff"

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

_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def bucket_bounds() -> list[float]:
    """The shared bucket upper bounds (ascending, finite).

    A pure function of module constants — every histogram in every
    process uses bit-identical boundaries, which is what makes sketch
    merges deterministic.
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

    def merge(self, other: "CounterSeries") -> None:
        """Fold another member's counter into this one."""
        self.value += other.value
        self.count += other.count
        self.last_time = max(self.last_time, other.last_time)


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

    def merge(self, other: "GaugeSeries") -> None:
        """Fold another member's gauge in: latest timestamp wins the
        value; histories concatenate in time order."""
        if other.last_time >= self.last_time:
            self.value = other.value
            self.last_time = other.last_time
        self.samples = sorted(self.samples + other.samples)


class HistogramSeries:
    """A streaming quantile sketch on the shared log-spaced grid
    (construct via ``registry.histogram``).

    Buckets are integer counts on :func:`bucket_bounds`; quantiles are
    nearest-rank reads of the bucket upper bound, so two sketches merged
    in any order report bit-identical p50/p95/p99.
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

    def merge(self, other: "HistogramSeries") -> None:
        """Fold another sketch in (integer addition — order invariant)."""
        for idx, n in other.counts.items():
            self.counts[idx] = self.counts.get(idx, 0) + n
        self.count += other.count
        self.sum += other.sum
        self.max = max(self.max, other.max)
        self.last_time = max(self.last_time, other.last_time)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, reported as its bucket's upper bound.

        Overflow observations report the exact (merge-stable) maximum;
        an empty sketch reports 0.0.  Within :data:`BUCKET_GROWTH` of
        the exact nearest-rank sample value for in-range data.
        """
        if not 0.0 < q <= 1.0:
            raise ParameterError(f"quantile must be in (0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
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
        return {k: self.quantile(q) for k, q in _QUANTILES}

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0


class _NullSeries:
    """No-op stand-in returned by a disabled registry."""

    kind = "null"

    def inc(self, amount: float = 1.0, t: float = 0.0) -> None:
        """Discard (registry disabled)."""

    def set(self, value: float, t: float = 0.0) -> None:
        """Discard (registry disabled)."""

    def observe(self, value: float, t: float = 0.0) -> None:
        """Discard (registry disabled)."""


_NULL = _NullSeries()


class MetricsRegistry:
    """Process-wide named/labeled series store.

    The sole sanctioned constructor of metric series (lint rule
    ``telemetry-registry``).  ``enabled=False`` turns every accessor
    into a shared no-op — the zero-overhead arm
    ``benchmarks/bench_host.py`` measures instrumentation cost against.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._series: dict[tuple, object] = {}
        # names validated once; hot emission paths re-resolve series
        # per event, so re-scanning the name each time is pure waste
        self._checked_names: set[str] = set()

    def __len__(self) -> int:
        return len(self._series)

    def _get(self, cls, name: str, labels: dict | None):
        if not self.enabled:
            return _NULL
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

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in, series by series.

        Counter and histogram merges are integer/plus merges (order
        invariant); gauges resolve by latest timestamp.  This is the
        fleet-aggregation path: N member registries merged in any order
        produce bit-identical quantiles.
        """
        for key, s in other._series.items():
            mine = self._series.get(key)
            if mine is None:
                cls = type(s)
                mine = cls(s.name, s.labels)
                self._series[key] = mine
            mine.merge(s)

    # -- export --------------------------------------------------------

    def snapshot(self, time: float = 0.0) -> dict:
        """The registry as a versioned JSON-ready document.

        ``time`` is the simulated instant the snapshot represents (the
        scheduler passes its wall time); it orders snapshots for
        :func:`diff_snapshots`.
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

    @classmethod
    def from_snapshot(cls, doc: dict) -> "MetricsRegistry":
        """Rebuild a registry from a snapshot document (replay path)."""
        _check_snapshot(doc)
        reg = cls()
        for row in doc["series"]:
            labels = row["labels"] or None
            if row["type"] == "counter":
                s = reg.counter(row["name"], labels)
                s.value = float(row["value"])
                s.count = int(row["count"])
            elif row["type"] == "gauge":
                s = reg.gauge(row["name"], labels)
                s.value = float(row["value"])
                s.samples = [(float(t), float(v)) for t, v in row["samples"]]
            elif row["type"] == "histogram":
                s = reg.histogram(row["name"], labels)
                s.counts = {int(i): int(n) for i, n in row["counts"].items()}
                s.count = int(row["count"])
                s.sum = float(row["sum"])
                s.max = float(row["max"])
            else:
                raise ParameterError(f"unknown series type {row['type']!r}")
            s.last_time = float(row["last_time"])
        return reg

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


def diff_snapshots(new: dict, old: dict) -> dict:
    """The delta from ``old`` to ``new`` (two snapshot documents).

    Counters and histograms report count/value/bucket deltas (series
    with no change are dropped); gauges report their latest value plus
    only the samples newer than ``old``'s time.  ``old`` must precede
    ``new`` from the same registry — a counter regression raises, since
    it means the snapshots were swapped or crossed between runs.
    """
    _check_snapshot(new)
    _check_snapshot(old)
    old_by_key = {(r["name"], tuple(sorted(r["labels"].items()))): r
                  for r in old["series"]}
    rows = []
    for row in new["series"]:
        key = (row["name"], tuple(sorted(row["labels"].items())))
        prev = old_by_key.pop(key, None)
        if row["type"] == "counter":
            pv = prev["value"] if prev else 0.0
            pc = prev["count"] if prev else 0
            if row["value"] < pv or row["count"] < pc:
                raise ParameterError(
                    f"counter {row['name']} regressed across snapshots"
                )
            if row["count"] == pc:
                continue
            rows.append({"name": row["name"], "labels": row["labels"],
                         "type": "counter", "value": row["value"] - pv,
                         "count": row["count"] - pc,
                         "last_time": row["last_time"]})
        elif row["type"] == "gauge":
            cut = old["time"] if prev else -math.inf
            fresh = [sv for sv in row["samples"] if sv[0] > cut]
            if prev and not fresh and row["value"] == prev["value"]:
                continue
            rows.append({"name": row["name"], "labels": row["labels"],
                         "type": "gauge", "value": row["value"],
                         "samples": fresh, "last_time": row["last_time"]})
        else:
            pcounts = ({int(i): n for i, n in prev["counts"].items()}
                       if prev else {})
            pc = prev["count"] if prev else 0
            if row["count"] < pc:
                raise ParameterError(
                    f"histogram {row['name']} regressed across snapshots"
                )
            if row["count"] == pc:
                continue
            delta = {}
            for i, n in row["counts"].items():
                d = int(n) - pcounts.get(int(i), 0)
                if d < 0:
                    raise ParameterError(
                        f"histogram {row['name']} bucket {i} regressed"
                    )
                if d:
                    delta[i] = d
            rows.append({"name": row["name"], "labels": row["labels"],
                         "type": "histogram",
                         "count": row["count"] - pc,
                         "sum": row["sum"] - (prev["sum"] if prev else 0.0),
                         "counts": delta, "last_time": row["last_time"]})
    if old_by_key:
        gone = sorted(k[0] for k in old_by_key)
        raise ParameterError(
            f"series vanished between snapshots (swapped order?): {gone}"
        )
    return {"version": SCHEMA_VERSION, "kind": DIFF_KIND,
            "time": new["time"], "since": old["time"], "series": rows}


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

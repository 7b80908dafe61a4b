"""The telemetry snapshot: one finished run's series.

The rows are a rendering of the run's :class:`~repro.obs.fold.RunFacts`
(:func:`telemetry_rows`): ``comm.*`` for any run, plus ``faults.*``,
``cache.*``, ``serve.*`` and ``slo.*`` for a serve run.  A
:class:`MetricsRegistry` holds one run's rows.

Counters are totals; gauges keep their last value and a sample history
thinned by one pure rule (:func:`decimate`); histograms are integer
counts on one fixed log-spaced bucket grid (:func:`bucket_bounds`), so
quantiles do not depend on observation order and replays report them
bit-identically (the float ``sum`` is not reordering-invariant).  A
quantile is the nearest-rank sample's bucket upper bound, capped at the
observed maximum.

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

#: each bucket's cap: its upper bound, and +inf for the overflow bucket
_CAPS = _BOUNDS + [math.inf]

#: gauge sample history kept per series
MAX_SAMPLES = 2048


def decimate(samples: list, max_samples: int = MAX_SAMPLES) -> list:
    """Every ``stride``-th sample, for the least power-of-two stride that
    keeps at most ``max_samples``: a pure function of the sequence, so
    replays thin identically."""
    stride = 1
    while len(samples[::stride]) > max_samples:
        stride *= 2
    return samples[::stride]


def _total(values) -> float:
    """Left-to-right float sum, in the order the values happened in
    (``sum`` compensates its rounding from Python 3.12 on, which would
    change the exported bits between interpreters)."""
    total = 0.0
    for v in values:
        total += v
    return total


def histogram(values: list[float]) -> dict:
    """Bucket counts, sum, maximum and quantiles of ``values``.

    Bucket ``i`` holds ``bounds[i-1] < v <= bounds[i]`` (0 is the
    underflow, ``len(bounds)`` the overflow).  A quantile is the
    nearest-rank sample's bucket upper bound, never above the observed
    maximum, so it is within :data:`BUCKET_GROWTH` of the exact
    nearest-rank value; an empty histogram reports 0.0.
    """
    counts: dict[int, int] = {}
    for v in values:
        if v != v or v < 0.0:
            raise ParameterError(f"histogram values must be >= 0, got {v!r}")
        i = bisect_left(_BOUNDS, v)
        counts[i] = counts.get(i, 0) + 1
    top = max([0.0, *values])
    quantiles = {}
    for key, q in QUANTILES:
        rank, seen, cap = nearest_rank(q, len(values)), 0, 0.0
        for i in sorted(counts):
            seen += counts[i]
            if seen >= rank:
                cap = min(_CAPS[i], top)
                break
        quantiles[key] = cap
    return {"count": len(values), "sum": _total(values), "max": top,
            "counts": {str(i): n for i, n in sorted(counts.items())},
            "quantiles": quantiles}


def _row(name: str, labels: tuple, kind: str, stamps: list) -> dict:
    """One snapshot row of a series observed as ``(time, value)`` stamps,
    in the order they happened."""
    row = {"name": name, "labels": dict(labels), "type": kind,
           "last_time": max([0.0, *(t for t, _ in stamps)])}
    values = [v for _, v in stamps]
    if kind == "counter":
        row.update(value=_total(values), count=len(values))
    elif kind == "gauge":
        row.update(value=float(values[-1]) if values else 0.0,
                   samples=[[t, float(v)] for t, v in decimate(stamps)])
    else:
        row.update(histogram(values))
    return row


def telemetry_rows(facts) -> list[dict]:
    """The snapshot rows of a run's :class:`~repro.obs.fold.RunFacts`,
    sorted by (name, labels): ``comm.*`` always, and ``faults.*``,
    ``cache.*``, ``serve.*`` and ``slo.*`` for a serve run, each stamped
    at its event's simulated time (the series table is in
    ``docs/OBSERVABILITY.md``).  ``comm.retry{stage}`` keys attempts by
    the op name's last dot-component, so batch namespaces stay bounded.
    """
    series: dict[tuple, tuple[str, list]] = {}

    def put(kind, name, labels=(), t=None, value=1.0):
        stamps = series.setdefault((name, labels), (kind, []))[1]
        if t is not None:
            stamps.append((t, value))

    # messages are grouped in one tight pass: a serve run has ~10^4
    sent: dict[str, list] = {}
    ratios: dict[str, list] = {}
    bulk_end = 0.0
    for m in facts.messages:
        if not m.link:
            bulk_end = max(bulk_end, m.end)
            continue
        sent.setdefault(m.link_class, []).append((m.end, m.nbytes))
        ratio = ratios.setdefault(m.link, [])
        if m.model > 0.0 and m.duration > 0.0:
            ratio.append((m.end, m.ratio))
    if facts.bulk_bytes:
        sent["bulk"] = [(bulk_end, nbytes) for nbytes in facts.bulk_bytes]
    for link_class, stamps in sent.items():
        series["comm.bytes", (("link_class", link_class),)] = (
            "counter", stamps)
    for link, stamps in ratios.items():
        series["comm.measured_vs_model", (("link", link),)] = (
            "histogram", stamps)
    for r in facts.retries:
        stage = r.name[:-len("!fail")].rsplit(".", 1)[-1]
        put("counter", "comm.retry", (("stage", stage),), r.end)
    if facts.slo is not None:  # a serve run
        # local import: serve.scheduler imports this module
        from repro.serve.request import DEADLINE_CLASSES

        for e in facts.fault_events:
            put("counter", "faults.events", (("kind", e.kind),), e.time)
        for name, t in facts.cache_moves:
            put("counter", name, (), t)
        for _, finish, lat in facts.batches:
            if lat is None:
                put("counter", "serve.batch_failed", (), finish)
            else:
                put("histogram", "serve.batch_latency", (), finish, lat)
        for cls in DEADLINE_CLASSES:
            put("gauge", "serve.queue_depth", (("class", cls),))
            put("counter", "serve.shed", (("class", cls),))
        for t, by_class in facts.depths[1:]:
            for cls, depth in zip(DEADLINE_CLASSES, by_class):
                put("gauge", "serve.queue_depth", (("class", cls),), t, depth)
        for t, cls in facts.sheds:
            put("counter", "serve.shed", (("class", cls),), t)
        for t, cls, lat, missed in facts.completions:
            put("histogram", "serve.request_latency", (("class", cls),), t,
                lat)
            if missed:
                put("counter", "serve.deadline_miss", (("class", cls),), t)
        for t, cls, shed in facts.failures:
            put("counter", "serve.retry_shed" if shed else "serve.retry",
                (("class", cls),), t)
        for cls, burns in facts.slo.burns.items():
            for t, short, long_ in burns:
                for window, burn in (("short", short), ("long", long_)):
                    put("gauge", "slo.burn_rate",
                        (("class", cls), ("window", window)), t, burn)
        for a in facts.slo.alerts:
            put("counter", "slo.alerts",
                (("class", a.deadline_class), ("kind", a.kind)), a.time)
    return [_row(name, labels, kind, stamps)
            for (name, labels), (kind, stamps) in sorted(series.items())]


class MetricsRegistry:
    """One finished run's snapshot rows, written once by :meth:`fill`
    (a scheduler fills the one it was given when its ``telemetry`` is
    first read); a disabled registry (``enabled=False``) stays empty."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.rows: list[dict] = []

    def __len__(self) -> int:
        return len(self.rows)

    def fill(self, facts) -> MetricsRegistry:
        """Write the rows of a run's :class:`~repro.obs.fold.RunFacts`."""
        if self.enabled:
            self.rows = telemetry_rows(facts)
        return self

    def snapshot(self, time: float = 0.0) -> dict:
        """The rows as a versioned JSON-ready document.

        ``time`` is the simulated instant the snapshot represents (a
        serve run's is its wall time).
        """
        return {
            "version": SCHEMA_VERSION,
            "kind": SCHEMA_KIND,
            "time": time,
            "buckets": {"lo": BUCKET_LO,
                        "per_decade": BUCKETS_PER_DECADE,
                        "decades": BUCKET_DECADES},
            "series": list(self.rows),
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
                le = _CAPS[idx]
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

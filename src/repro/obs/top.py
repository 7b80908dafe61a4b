"""`repro top` — an ASCII dashboard over a run's telemetry snapshot.

htop for the serve tier: one screenful summarizing a served trace from
its telemetry alone — queue-depth sparklines, per-class latency
quantiles, cache hit rates, comm volume by link class, fault and retry
counters, per-link measured-vs-model calibration, and SLO burn-rate
status.  :func:`render_dashboard` is a pure function of a snapshot (or
serve-run) document, so ``repro top --replay`` of a saved JSON file
renders bit-identically to the run that produced it — that
property is pinned by the replay acceptance test.

The renderer consumes the *document*, not the run's
:class:`~repro.obs.fold.RunFacts`: everything shown here survives a
JSON round-trip, which keeps the dashboard honest about what the
exported telemetry actually contains.
"""

from __future__ import annotations

from repro.obs.telemetry import SCHEMA_KIND, _check_snapshot
from repro.util.asciiplot import sparkline
from repro.util.table import Table, format_bytes, format_time
from repro.util.validation import ParameterError

#: dashboard body width (sparkline columns)
WIDTH = 60


def _split_doc(doc: dict) -> tuple[dict, dict | None, dict | None]:
    """Accept a serve-run doc or a bare snapshot; return its parts.

    Returns ``(snapshot, report_or_None, slo_or_None)``.
    """
    if not isinstance(doc, dict):
        raise ParameterError(f"expected a dict document, got {type(doc).__name__}")
    if doc.get("kind") == SCHEMA_KIND:
        _check_snapshot(doc)
        return doc, None, None
    if doc.get("kind") == "serve-run":
        snap = doc.get("telemetry")
        _check_snapshot(snap if isinstance(snap, dict) else {})
        return snap, doc.get("report"), doc.get("slo")
    raise ParameterError(
        f"unrecognized document kind {doc.get('kind')!r}; expected "
        f"{SCHEMA_KIND!r} or 'serve-run'"
    )


def _rows(snap: dict, name: str) -> list[dict]:
    """All series rows with the given metric name, label-sorted."""
    return [r for r in snap["series"] if r["name"] == name]


def _counter_value(snap: dict, name: str, labels: dict | None = None) -> float:
    """Sum of matching counter rows (0.0 when the series never fired)."""
    total = 0.0
    for r in _rows(snap, name):
        if labels is not None and r["labels"] != labels:
            continue
        total += float(r["value"])
    return total


def _rate(hit: float, miss: float) -> str:
    """Format ``hit/(hit+miss)`` as a percentage, dash when unobserved."""
    total = hit + miss
    if total <= 0:
        return "-"
    return f"{100.0 * hit / total:.1f}%"


def _section(title: str) -> str:
    """A dashboard section rule."""
    return f"--- {title} " + "-" * max(0, WIDTH - len(title) - 5)


def _queue_section(snap: dict) -> list[str]:
    lines = [_section("queue depth")]
    rows = _rows(snap, "serve.queue_depth")
    if not rows:
        lines.append("(no queue samples)")
        return lines
    for r in sorted(rows, key=lambda r: r["labels"].get("class", "")):
        cls = r["labels"].get("class", "?")
        depths = [v for _, v in r["samples"]]
        peak = max(depths) if depths else 0
        lines.append(f"{cls:<12} |{sparkline(depths, WIDTH - 14)}| max {peak:g}")
    return lines


def _latency_section(snap: dict) -> list[str]:
    lines = [_section("latency (telemetry histograms)")]
    rows = _rows(snap, "serve.request_latency")
    if not rows:
        lines.append("(no completions)")
        return lines
    t = Table(["class", "n", "p50", "p95", "p99", "misses", "retries"])
    for r in sorted(rows, key=lambda r: r["labels"].get("class", "")):
        cls = r["labels"].get("class", "?")
        q = r["quantiles"]
        t.add_row([
            cls, r["count"],
            format_time(q["p50"]), format_time(q["p95"]), format_time(q["p99"]),
            int(_counter_value(snap, "serve.deadline_miss", {"class": cls})),
            int(_counter_value(snap, "serve.retry", {"class": cls})),
        ])
    lines.extend(t.render().splitlines())
    batch = _rows(snap, "serve.batch_latency")
    if batch:
        q = batch[0]["quantiles"]
        lines.append(
            f"batch        n={batch[0]['count']}  "
            f"p50 {format_time(q['p50'])}  p95 {format_time(q['p95'])}  "
            f"p99 {format_time(q['p99'])}"
        )
    return lines


def _cache_section(snap: dict) -> list[str]:
    lines = [_section("plan cache")]
    plan_hit = _counter_value(snap, "cache.plan_hit")
    plan_miss = _counter_value(snap, "cache.plan_miss")
    wis_hit = _counter_value(snap, "cache.wisdom_hit")
    wis_miss = _counter_value(snap, "cache.wisdom_miss")
    searches = _counter_value(snap, "cache.search")
    lines.append(
        f"plan hit {_rate(plan_hit, plan_miss):>7}  "
        f"({plan_hit:g}/{plan_hit + plan_miss:g})   "
        f"wisdom hit {_rate(wis_hit, wis_miss):>7}  "
        f"searches {searches:g}"
    )
    return lines


def _comm_section(snap: dict) -> list[str]:
    lines = [_section("comm")]
    byte_rows = _rows(snap, "comm.bytes")
    if byte_rows:
        vol = ", ".join(
            f"{r['labels'].get('link_class', '?')} "
            f"{format_bytes(r['value'])}"
            for r in sorted(byte_rows,
                            key=lambda r: r["labels"].get("link_class", ""))
        )
        lines.append(f"bytes moved  {vol}")
    else:
        lines.append("bytes moved  (none)")
    retry_rows = _rows(snap, "comm.retry")
    retries = ", ".join(
        f"{r['labels'].get('stage', '?')} {r['value']:g}"
        for r in sorted(retry_rows, key=lambda r: r["labels"].get("stage", ""))
    )
    shed = _counter_value(snap, "serve.shed")
    faults = _rows(snap, "faults.events")
    fault_str = ", ".join(
        f"{r['labels'].get('kind', '?')} {r['value']:g}"
        for r in sorted(faults, key=lambda r: r["labels"].get("kind", ""))
    )
    lines.append(f"retries      {retries or '(none)'}   shed {shed:g}")
    lines.append(f"fault events {fault_str or '(none)'}")
    ratio = _rows(snap, "comm.measured_vs_model")
    if ratio:
        t = Table(["link", "n", "ratio p50", "ratio p99", "max"])
        for r in sorted(ratio, key=lambda r: r["labels"].get("link", "")):
            q = r["quantiles"]
            t.add_row([r["labels"].get("link", "?"), r["count"],
                       q["p50"], q["p99"], r["max"]])
        lines.append("measured/model latency per link:")
        lines.extend("  " + ln for ln in t.render().splitlines())
    return lines


def _slo_section(snap: dict, slo: dict | None) -> list[str]:
    lines = [_section("slo burn rate")]
    rows = _rows(snap, "slo.burn_rate")
    if not rows:
        lines.append("(no slo samples)")
        return lines
    by_class: dict[str, dict[str, float]] = {}
    for r in rows:
        cls = r["labels"].get("class", "?")
        by_class.setdefault(cls, {})[r["labels"].get("window", "?")] = r["value"]
    # a class is firing when its trigger count leads its clear count
    for cls in sorted(by_class):
        trig = _counter_value(snap, "slo.alerts", {"class": cls, "kind": "trigger"})
        clear = _counter_value(snap, "slo.alerts", {"class": cls, "kind": "clear"})
        status = "FIRING" if trig > clear else ("ok" if trig == 0.0 else "cleared")
        w = by_class[cls]
        lines.append(
            f"{cls:<12} short {w.get('short', 0.0):6.2f}  "
            f"long {w.get('long', 0.0):6.2f}   [{status}]"
        )
    if slo and slo.get("alerts"):
        lines.append("alert timeline:")
        for a in slo["alerts"]:
            lines.append(
                f"  {format_time(a['time']):>10}  {a['kind']:<7} "
                f"{a['deadline_class']}  "
                f"(short {a['short_burn']:.2f}, long {a['long_burn']:.2f})"
            )
    return lines


def render_dashboard(doc: dict) -> str:
    """Render the full dashboard for a snapshot or serve-run document."""
    snap, report, slo = _split_doc(doc)
    header = f"repro top — telemetry @ t={format_time(snap.get('time', 0.0))}"
    if report is not None:
        header += (
            f"   completed {report['completed']}  "
            f"throughput {report['throughput']:.0f} req/s"
        )
    lines = [header]
    lines.extend(_queue_section(snap))
    lines.extend(_latency_section(snap))
    lines.extend(_cache_section(snap))
    lines.extend(_comm_section(snap))
    lines.extend(_slo_section(snap, slo))
    return "\n".join(lines)

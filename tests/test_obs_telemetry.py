"""The metrics registry and the telemetry read off a finished run.

The load-bearing guarantees:

- histogram quantiles are integer bucket reads on a fixed log-spaced
  grid, so seeded chaos replays export byte-identical snapshots;
- the histogram's nearest-rank quantile agrees with the report's exact
  nearest-rank percentile within one bucket's width;
- the registry a serve run reports is a function of what the run left
  behind: it agrees with the counts the run keeps, reads the same twice,
  and writes into the registry the scheduler was given;
- snapshots save/load and render valid Prometheus text exposition
  (validated by the same checker CI runs).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.obs.telemetry import (
    BUCKET_DECADES,
    BUCKET_GROWTH,
    BUCKET_LO,
    BUCKETS_PER_DECADE,
    CounterSeries,
    GaugeSeries,
    HistogramSeries,
    MetricsRegistry,
    bucket_bounds,
    load_snapshot,
    nearest_rank,
    prometheus_text,
    run_telemetry,
)
from repro.cli import main
from repro.faults import seeded_chaos
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import preset
from repro.serve import (
    AdmissionQueue,
    Batcher,
    PlanCache,
    ServeScheduler,
    synthetic_workload,
)
from repro.serve.stats import _percentiles
import numpy as np
from repro.util.validation import ParameterError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from check_prometheus import check_exposition  # noqa: E402


class TestBucketGrid:
    def test_fixed_and_deterministic(self):
        b1, b2 = bucket_bounds(), bucket_bounds()
        assert b1 == b2
        assert len(b1) == BUCKETS_PER_DECADE * BUCKET_DECADES + 1
        assert b1[0] == pytest.approx(BUCKET_LO)
        for lo, hi in zip(b1, b1[1:]):
            assert hi / lo == pytest.approx(BUCKET_GROWTH)

    def test_quantile_reports_bucket_upper_bound(self):
        h = HistogramSeries("x.y")
        h.observe(1.0e-3)
        q = h.quantile(0.5)
        assert q in bucket_bounds()
        assert 1.0e-3 <= q <= 1.0e-3 * BUCKET_GROWTH

    def test_overflow_reports_exact_max(self):
        h = HistogramSeries("x.y")
        h.observe(1e5)  # beyond the last finite bound
        assert h.quantile(0.99) == 1e5

    def test_empty_quantile_is_zero(self):
        assert HistogramSeries("x.y").quantile(0.5) == 0.0


class TestRegistry:
    def test_keyed_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("a.b", {"k": "1"})
        assert reg.counter("a.b", {"k": "1"}) is a
        assert reg.counter("a.b", {"k": "2"}) is not a
        assert len(reg) == 2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(ParameterError):
            reg.gauge("a.b")

    def test_bad_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("", "UPPER.case", "9leading", "sp ace"):
            with pytest.raises(ParameterError):
                reg.counter(bad)

    def test_counter_rejects_negative(self):
        with pytest.raises(ParameterError):
            MetricsRegistry().counter("a.b").inc(-1.0)

    def test_histogram_rejects_bad_values(self):
        h = MetricsRegistry().histogram("a.b")
        with pytest.raises(ParameterError):
            h.observe(-1.0)
        with pytest.raises(ParameterError):
            h.observe(float("nan"))

    def test_disabled_registry_is_a_noop(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("a.b").inc(5.0, t=1.0)
        reg.gauge("c.d").set(2.0, t=1.0)
        reg.histogram("e.f").observe(0.5, t=1.0)
        assert len(reg) == 0
        assert reg.snapshot()["series"] == []

    def test_gauge_decimation_is_deterministic(self):
        g1 = GaugeSeries("q.d", max_samples=8)
        g2 = GaugeSeries("q.d", max_samples=8)
        for i in range(100):
            g1.set(float(i), t=i * 0.5)
            g2.set(float(i), t=i * 0.5)
        assert g1.samples == g2.samples
        assert len(g1.samples) <= 8
        assert g1.value == 99.0  # latest value survives decimation


class TestNearestRankAgreement:
    @pytest.mark.parametrize("q,n,rank", [
        (0.50, 1, 1), (0.99, 100, 99), (0.99, 7, 7), (0.95, 20, 19),
        (0.01, 10, 1), (1.0, 5, 5),
    ])
    def test_one_rank_rule(self, q, n, rank):
        assert nearest_rank(q, n) == rank

    def test_histogram_within_one_bucket_of_exact(self):
        g = np.random.default_rng(3)
        xs = [float(g.uniform(1e-5, 2.0)) for _ in range(500)]
        h = HistogramSeries("lat")
        for x in xs:
            h.observe(x, t=0.0)
        exact = _percentiles(xs)
        hist = h.quantiles()
        for k in ("p50", "p95", "p99"):
            # bucket upper bound: exact <= hist <= exact * growth
            assert exact[k] <= hist[k] * (1 + 1e-12), k
            assert hist[k] <= exact[k] * BUCKET_GROWTH * (1 + 1e-12), k


class TestSnapshots:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("c.hits", {"class": "a"}).inc(3.0, t=0.5)
        reg.gauge("g.depth").set(4.0, t=0.25)
        reg.gauge("g.depth").set(2.0, t=0.75)
        h = reg.histogram("h.lat", {"class": "a"})
        for v in (1e-4, 2e-4, 5e-3):
            h.observe(v, t=1.0)
        return reg

    def test_save_and_load(self, tmp_path):
        reg = self._populated()
        p = tmp_path / "snap.json"
        reg.save(p, time=2.0)
        assert load_snapshot(p) == reg.snapshot(time=2.0)


class TestPrometheus:
    def test_exposition_passes_the_ci_checker(self):
        reg = MetricsRegistry()
        reg.counter("serve.shed", {"class": "interactive"}).inc(2.0, t=1.0)
        reg.counter("serve.shed", {"class": "batch"}).inc(1.0, t=1.0)
        reg.gauge("serve.queue_depth", {"class": "batch"}).set(3.0, t=1.0)
        h = reg.histogram("serve.request_latency", {"class": "batch"})
        for v in (1e-4, 3e-4, 2e-2, 1e9):  # incl. overflow bucket
            h.observe(v, t=1.0)
        text = prometheus_text(reg.snapshot(time=1.0))
        assert check_exposition(text) == []

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("a.b", {"k": 'with"quote\\and\nnewline'}).inc(1.0)
        text = prometheus_text(reg.snapshot())
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert check_exposition(text) == []

    def test_empty_registry_exposes_nothing(self):
        assert prometheus_text(MetricsRegistry().snapshot()) == ""


class TestSeriesClasses:
    def test_kinds(self):
        assert CounterSeries("a.b").kind == "counter"
        assert GaugeSeries("a.b").kind == "gauge"
        assert HistogramSeries("a.b").kind == "histogram"

    def test_histogram_mean(self):
        h = HistogramSeries("a.b")
        h.observe(1.0)
        h.observe(3.0)
        assert h.mean == pytest.approx(2.0)
        assert HistogramSeries("a.b").mean == 0.0


SERVE_SPEC = preset("8xP100")


def chaos_run(telemetry=None):
    """48 requests on 8xP100 under transients, flaps, stragglers and a
    degraded link, on a cache warmed by an earlier run (its lookups
    belong to that run) and a queue small enough to shed."""
    cache = PlanCache(SERVE_SPEC)
    ServeScheduler(VirtualCluster(SERVE_SPEC, execute=False),
                   Batcher(cache)).run(synthetic_workload(4, rate=2e3, seed=1))
    inj = seeded_chaos(SERVE_SPEC, seed=0, transient_rate=0.2, flaps=2,
                       stragglers=2, degrades=1, horizon=30e-3)
    sched = ServeScheduler(VirtualCluster(SERVE_SPEC, execute=False, faults=inj),
                           Batcher(cache), queue=AdmissionQueue(capacity=24),
                           retry_budget=1, telemetry=telemetry)
    sched.run(synthetic_workload(48, rate=4e3, seed=5))
    return sched


def _value(reg, name, labels=None):
    s = reg.get(name, labels)
    return 0 if s is None else s.count


class TestDerivedFromTheRun:
    @pytest.fixture(scope="class")
    def sched(self):
        return chaos_run()

    def test_registry_agrees_with_the_counts_the_run_keeps(self, sched):
        reg, q, cache = sched.telemetry, sched.queue, sched.batcher.cache
        # not vacuous: batches failed, requests were retried, shed on
        # retry and shed at the door
        assert sched.failed_batches and sum(q.shed.values())
        assert sum(sched.retried.values()) and sum(sched.retry_shed.values())
        lat = sum(_value(reg, "serve.request_latency", {"class": c})
                  for c in q.shed)
        assert lat == len(sched.completed)
        now = cache.counters()
        assert any(sched.cache_baseline.values())  # the warm-up counted
        for name, n in now.items():
            assert _value(reg, name) == n - sched.cache_baseline[name], name
        kinds = Counter(e.kind for e in sched.faults.events)
        assert {k: _value(reg, "faults.events", {"kind": k})
                for k in kinds} == kinds
        for c, n in q.shed.items():
            assert _value(reg, "serve.shed", {"class": c}) == n
        for c in q.shed:
            assert _value(reg, "serve.retry_shed", {"class": c}) \
                == sched.retry_shed[c]
            assert _value(reg, "serve.retry", {"class": c}) \
                == sched.retried[c]
        assert _value(reg, "serve.batch_failed") == sched.failed_batches
        fails = Counter(r.name[:-len("!fail")].rsplit(".", 1)[-1]
                        for r in sched.cluster.ledger
                        if r.name.endswith("!fail")
                        and (r.peer >= 0 or r.device == 0))
        assert fails  # attempts timed out
        assert {k: _value(reg, "comm.retry", {"stage": k})
                for k in fails} == fails

    def test_slo_series_are_the_runs_burns_and_alerts(self, sched):
        reg, slo = sched.telemetry, sched.slo
        kinds = Counter((a.deadline_class, a.kind) for a in slo.alerts)
        assert kinds[("interactive", "trigger")] and kinds[("batch", "clear")]
        for (cls, kind), n in kinds.items():
            series = reg.get("slo.alerts", {"class": cls, "kind": kind})
            assert series.value == n
            assert series.last_time == max(
                a.time for a in slo.alerts
                if (a.deadline_class, a.kind) == (cls, kind))
        for cls, burns in slo.burns.items():
            assert burns, cls
            for i, window in ((1, "short"), (2, "long")):
                gauge = reg.get("slo.burn_rate",
                                {"class": cls, "window": window})
                assert gauge.samples == [(b[0], b[i]) for b in burns]

    def test_reading_twice_gives_the_same_snapshot(self, sched):
        first = json.dumps(sched.telemetry.snapshot(time=sched.wall_time))
        assert sched.telemetry is sched.telemetry
        assert json.dumps(sched.telemetry.snapshot(time=sched.wall_time)) \
            == first
        # a second derivation over the same run is the same registry
        again = run_telemetry(sched).snapshot(time=sched.wall_time)
        assert json.dumps(again) == first

    def test_given_registry_is_written_and_a_disabled_one_stays_empty(self):
        reg = MetricsRegistry()
        sched = chaos_run(telemetry=reg)
        assert len(reg) == 0  # nothing is recorded during the run
        assert sched.telemetry is reg and len(reg) > 0
        off = chaos_run(telemetry=MetricsRegistry(enabled=False))
        assert off.telemetry.snapshot()["series"] == []

    def test_serve_run_histograms_agree_with_the_report(self, tmp_path):
        """The serve run of CI's ``telemetry`` job: the document's
        per-class histogram quantiles bound the report's exact
        nearest-rank percentiles, exact <= hist <= exact * BUCKET_GROWTH."""
        path = tmp_path / "telemetry_run.json"
        assert main(["serve", "--system", "8xP100", "--requests", "24",
                     "--rate", "20000", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["kind"] == "serve-run" and doc["version"] == 1, doc
        hist = {r["labels"]["class"]: r["quantiles"]
                for r in doc["telemetry"]["series"]
                if r["name"] == "serve.request_latency"}
        assert hist
        for cls, pct in doc["report"]["latency_by_class"].items():
            if cls not in hist:
                continue
            for k in ("p50", "p95", "p99"):
                exact, got = pct[k], hist[cls][k]
                assert exact <= got * (1 + 1e-12), (cls, k, exact, got)
                assert got <= exact * BUCKET_GROWTH * (1 + 1e-12), \
                    (cls, k, exact, got)

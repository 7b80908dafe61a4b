"""The telemetry snapshot of a finished run's facts.

The load-bearing guarantees:

- histogram quantiles are integer bucket reads on a fixed log-spaced
  grid, so seeded chaos replays export byte-identical snapshots;
- the histogram's nearest-rank quantile agrees with the report's exact
  nearest-rank percentile within one bucket's width, and never exceeds
  the observed maximum;
- the registry a serve run reports is a rendering of what the run left
  behind: it agrees with the counts the run keeps, reads the same twice,
  and writes into the registry the scheduler was given;
- one retry rule: the report, the metrics and the counters count the
  same attempts;
- snapshots save/load and render valid Prometheus text exposition
  (validated by the same checker CI runs).
"""

from __future__ import annotations

import json
import sys
from collections import Counter, namedtuple
from pathlib import Path

import pytest

from repro.obs.fold import RunFacts, fold_run
from repro.obs.metrics import compute_metrics
from repro.obs.slo import slo_timeline
from repro.obs.telemetry import (
    BUCKET_DECADES,
    BUCKET_GROWTH,
    BUCKET_LO,
    BUCKETS_PER_DECADE,
    MetricsRegistry,
    bucket_bounds,
    decimate,
    histogram,
    load_snapshot,
    nearest_rank,
    prometheus_text,
)
from repro.cli import main
from repro.core.api import default_params
from repro.faults import seeded_chaos
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import preset
from repro.serve import (
    AdmissionQueue,
    Batcher,
    PlanCache,
    ServeScheduler,
    summarize,
    synthetic_workload,
)
from repro.serve.cache import Wisdom
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
        q = histogram([1.0e-3, 5.0e-3])["quantiles"]
        assert q["p50"] in bucket_bounds()
        assert 1.0e-3 <= q["p50"] <= 1.0e-3 * BUCKET_GROWTH
        # the top sample's bucket bound exceeds the maximum: capped there
        assert q["p99"] == 5.0e-3

    def test_overflow_reports_exact_max(self):
        # beyond the last finite bound
        assert histogram([1e5])["quantiles"]["p99"] == 1e5

    def test_empty_quantile_is_zero(self):
        assert histogram([])["quantiles"]["p50"] == 0.0

    def test_quantile_never_exceeds_the_observed_maximum(self):
        assert histogram([1.0e-3])["quantiles"] == {
            "p50": 1.0e-3, "p95": 1.0e-3, "p99": 1.0e-3}
        g = np.random.default_rng(5)
        xs = [float(g.uniform(1e-5, 2.0)) for _ in range(50)]
        h = histogram(xs)
        assert h["max"] == max(xs)
        assert all(q <= h["max"] for q in h["quantiles"].values())


class TestRegistry:
    def test_keyed_by_name_and_labels(self):
        rows = MetricsRegistry().fill(chaos_run().facts).rows
        keys = [(r["name"], tuple(r["labels"].items())) for r in rows]
        assert len(keys) > 10 and keys == sorted(set(keys))

    def test_histogram_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            histogram([-1.0])
        with pytest.raises(ParameterError):
            histogram([float("nan")])

    def test_disabled_registry_is_a_noop(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.fill(_served_facts()) is reg
        assert len(reg) == 0
        assert reg.snapshot()["series"] == []

    def test_gauge_decimation_is_deterministic(self):
        samples = [(i * 0.5, float(i)) for i in range(100)]
        kept = decimate(samples, 8)
        assert kept == decimate(list(samples), 8)
        assert len(kept) <= 8 and kept == samples[::16]
        depth = next(r for r in MetricsRegistry().fill(_served_facts()).rows
                     if r["name"] == "serve.queue_depth")
        assert depth["value"] == 1.0  # the latest value, not the peak
        assert depth["samples"] == [[0.5, 2.0], [1.0, 1.0]]


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
        exact = _percentiles(xs)
        hist = histogram(xs)["quantiles"]
        for k in ("p50", "p95", "p99"):
            # bucket upper bound: exact <= hist <= exact * growth
            assert exact[k] <= hist[k] * (1 + 1e-12), k
            assert hist[k] <= exact[k] * BUCKET_GROWTH * (1 + 1e-12), k


#: a fault event's two fields the telemetry reads (any kind string, so
#: labels that need escaping can be made)
Event = namedtuple("Event", "time kind")


def _served_facts(latencies=(1e-4, 2e-4, 5e-3), fault_kind="link_flap"):
    """Hand-made facts of a small serve run: two batch-class completions
    and an interactive one, one door shed, one fault event and three
    queue samples."""
    completions = [(1.0, "batch" if i < 2 else "interactive", lat, False)
                   for i, lat in enumerate(latencies)]
    return RunFacts(
        fault_events=[Event(0.25, fault_kind)],
        depths=[(0.0, (0, 0)), (0.5, (0, 2)), (1.0, (0, 1))],
        sheds=[(0.75, "interactive")],
        completions=completions,
        slo=slo_timeline([(t, c, True) for t, c, _, _ in completions]))


class TestSnapshots:
    def test_save_and_load(self, tmp_path):
        reg = MetricsRegistry().fill(_served_facts())
        p = tmp_path / "snap.json"
        reg.save(p, time=2.0)
        assert load_snapshot(p) == reg.snapshot(time=2.0)


class TestPrometheus:
    def test_exposition_passes_the_ci_checker(self):
        # incl. the overflow bucket
        facts = _served_facts(latencies=(1e-4, 3e-4, 2e-2, 1e9))
        text = prometheus_text(MetricsRegistry().fill(facts).snapshot(1.0))
        assert "le=\"+Inf\"" in text and "serve_shed" in text
        assert check_exposition(text) == []

    def test_label_escaping(self):
        facts = _served_facts(fault_kind='with"quote\\and\nnewline')
        text = prometheus_text(MetricsRegistry().fill(facts).snapshot())
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert check_exposition(text) == []

    def test_empty_registry_exposes_nothing(self):
        assert prometheus_text(MetricsRegistry().snapshot()) == ""


class TestSeriesClasses:
    def test_kinds(self):
        kinds = {r["name"]: r["type"]
                 for r in MetricsRegistry().fill(_served_facts()).rows}
        assert kinds["serve.shed"] == "counter"
        assert kinds["serve.queue_depth"] == "gauge"
        assert kinds["serve.request_latency"] == "histogram"


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


def _row(reg, name, labels=None):
    """The snapshot row of one series (None when it was never emitted)."""
    return next((r for r in reg.rows
                 if r["name"] == name and r["labels"] == (labels or {})),
                None)


def _value(reg, name, labels=None):
    row = _row(reg, name, labels)
    return 0 if row is None else row["count"]


def bulk_chaos_run():
    """12 requests on 8xP100 whose wisdom pins the ``bulk`` collectives,
    under 30% transients: failed collectives and failed halo messages."""
    n = 1 << 12
    wisdom = Wisdom()
    wisdom.put(SERVE_SPEC, n, "complex128", default_params(n, 8), "bulk")
    inj = seeded_chaos(SERVE_SPEC, seed=0, transient_rate=0.3, flaps=0,
                       stragglers=0, degrades=0, horizon=5e-3)
    sched = ServeScheduler(VirtualCluster(SERVE_SPEC, execute=False,
                                          faults=inj),
                           Batcher(PlanCache(SERVE_SPEC, wisdom=wisdom)))
    sched.run(synthetic_workload(12, rate=4e3, sizes={n: 1.0}, seed=5))
    return sched


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
            series = _row(reg, "slo.alerts", {"class": cls, "kind": kind})
            assert series["value"] == n
            assert series["last_time"] == max(
                a.time for a in slo.alerts
                if (a.deadline_class, a.kind) == (cls, kind))
        for cls, burns in slo.burns.items():
            assert burns, cls
            for i, window in ((1, "short"), (2, "long")):
                gauge = _row(reg, "slo.burn_rate",
                             {"class": cls, "window": window})
                assert gauge["samples"] == [[b[0], b[i]] for b in burns]

    def test_reading_twice_gives_the_same_snapshot(self, sched):
        first = json.dumps(sched.telemetry.snapshot(time=sched.wall_time))
        assert sched.telemetry is sched.telemetry
        assert json.dumps(sched.telemetry.snapshot(time=sched.wall_time)) \
            == first
        # a second derivation over the same run is the same registry
        cl = sched.cluster
        again = MetricsRegistry().fill(fold_run(
            cl.ledger, cl.spec, cl.comm_log, cl.faults, sched)
        ).snapshot(time=sched.wall_time)
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


@pytest.fixture(scope="module")
def ci_serve_doc(tmp_path_factory):
    """The serve-run document of CI's ``telemetry`` job."""
    path = tmp_path_factory.mktemp("ci") / "telemetry_run.json"
    assert main(["serve", "--system", "8xP100", "--requests", "24",
                 "--rate", "20000", "--json", str(path)]) == 0
    return json.loads(path.read_text())


class TestTheCiServeRun:
    def test_no_quantile_exceeds_its_observed_maximum(self, ci_serve_doc):
        """A bucket's upper bound can lie past every sample in it: the
        interactive p99 read 15.85 ms in a 13.15 ms run."""
        rows = [r for r in ci_serve_doc["telemetry"]["series"]
                if r["type"] == "histogram" and r["count"]]
        assert any(r["name"] == "serve.request_latency" for r in rows)
        for r in rows:
            for k, q in r["quantiles"].items():
                assert q <= r["max"], (r["name"], r["labels"], k)

    def test_exactly_priced_messages_read_one(self, ci_serve_doc):
        """Links that carry no halo (a lone transfer, modelled at the
        pair's own latency) carry only plan messages, each charged its
        price: every ratio is exactly 1.0, not the next bucket up."""
        ring = {f"{g}-{g + 1}" for g in range(7)} | {"0-7"}
        rows = [r for r in ci_serve_doc["telemetry"]["series"]
                if r["name"] == "comm.measured_vs_model"
                and r["labels"]["link"] not in ring]
        assert len(rows) >= 10
        one = str(bucket_bounds().index(1.0))
        for r in rows:
            assert r["counts"] == {one: r["count"]}, r["labels"]
            assert r["max"] == 1.0 and r["sum"] == r["count"]
            assert set(r["quantiles"].values()) == {1.0}


class TestOneRetryRule:
    def test_report_metrics_and_counters_count_the_same_attempts(self):
        """A failed collective's G records are one attempt, a failed
        message's record is one; ``ServeReport.retry_time``, the metrics'
        retry line and the ``comm.retry`` counters agree."""
        sched = bulk_chaos_run()
        cl = sched.cluster
        fails = [r for r in cl.ledger if r.name.endswith("!fail")]
        groups = Counter((r.name, r.start) for r in fails if r.peer < 0)
        p2p = [r for r in fails if r.peer >= 0]
        assert groups and p2p  # both kinds failed
        assert set(groups.values()) == {cl.G}
        attempts = len(groups) + len(p2p)
        expected = (sum(r.duration for r in p2p)
                    + sum(r.duration for r in fails
                          if r.peer < 0 and r.device == 0))
        metrics = compute_metrics(cl.ledger, cl.spec, comm_log=cl.comm_log)
        assert len(metrics.retries) == attempts
        assert metrics.to_json()["retry_attempts"] == attempts
        assert f"comm retries: {attempts} failed attempts" in metrics.render()
        counted = sum(r["value"] for r in sched.telemetry.rows
                      if r["name"] == "comm.retry")
        assert counted == attempts
        assert summarize(sched).retry_time == metrics.retry_time
        assert metrics.retry_time == pytest.approx(expected, rel=1e-12)

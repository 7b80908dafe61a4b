"""The serving event loop: interleaving, determinism, numerics, and
what batching with warm wisdom buys.

The load-bearing guarantees:

- the interleaved multi-batch schedule is hazard-free (namespaced
  buffers + release events make concurrent batches provably disjoint);
- serving is deterministic and batching-transparent — the same request
  set produces a bit-identical ledger on replay, and bit-identical
  *outputs* whether requests are served one-by-one or coalesced;
- on the 8-GPU DGX-1 under saturating load, batching over warm wisdom
  serves at least twice the throughput of re-planning every request,
  with zero searches and a 100% plan-cache hit rate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.plan import FmmFftPlan
from repro.core.single import fmmfft_single
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import p100_nvlink_node, preset
from repro.serve import (
    AdmissionQueue,
    Batcher,
    PlanCache,
    ServeScheduler,
    TransformRequest,
    Wisdom,
    summarize,
    synthetic_workload,
)
from repro.util.validation import ParameterError

N = 1 << 12
SPEC = p100_nvlink_node(2)


def make_scheduler(batching=True, max_inflight=2, capacity=64,
                   build_operators=False, compute_outputs=False, spec=SPEC):
    cache = PlanCache(spec, autotune=False, build_operators=build_operators)
    cl = VirtualCluster(spec, execute=False)
    sched = ServeScheduler(
        cl, Batcher(cache, max_batch=4, batching=batching),
        queue=AdmissionQueue(capacity=capacity),
        max_inflight=max_inflight, compute_outputs=compute_outputs,
    )
    return cl, sched


def burst(n, N=N, with_payloads=False, seed=2):
    return synthetic_workload(n, rate=1e5, sizes={N: 1.0}, seed=seed,
                              with_payloads=with_payloads)


class TestEventLoop:
    def test_serves_everything(self):
        cl, sched = make_scheduler()
        done = sched.run(burst(10))
        assert len(done) == 10
        assert sorted(c.request.rid for c in done) == list(range(10))
        assert sched.wall_time > 0 and cl.wall_time() > 0

    def test_batches_coalesce_under_burst(self):
        _, sched = make_scheduler()
        sched.run(burst(8))
        assert any(b["k"] > 1 for b in sched.batches)

    def test_shed_requests_never_complete(self):
        _, sched = make_scheduler(capacity=2)
        done = sched.run(burst(12))
        shed = sum(sched.queue.shed.values())
        assert shed > 0 and len(done) == 12 - shed

    def test_release_respects_setup_time(self):
        cl, sched = make_scheduler()
        sched.run(burst(2))
        b0 = sched.batches[0]
        assert b0["setup_time"] > 0.0
        assert b0["release"] >= b0["setup_time"]
        assert min(r.start for r in cl.ledger) >= b0["release"]

    def test_rejects_execute_cluster(self):
        cache = PlanCache(SPEC, autotune=False)
        cl = VirtualCluster(SPEC, execute=True)
        with pytest.raises(ParameterError):
            ServeScheduler(cl, Batcher(cache))

    def test_rejects_mismatched_g(self):
        cache = PlanCache(p100_nvlink_node(4), autotune=False)
        cl = VirtualCluster(SPEC, execute=False)
        with pytest.raises(ParameterError):
            ServeScheduler(cl, Batcher(cache))

    def test_compute_outputs_requires_operators_and_payloads(self):
        cache = PlanCache(SPEC, autotune=False)
        cl = VirtualCluster(SPEC, execute=False)
        with pytest.raises(ParameterError):
            ServeScheduler(cl, Batcher(cache), compute_outputs=True)
        _, sched = make_scheduler(build_operators=True, compute_outputs=True)
        with pytest.raises(ParameterError):
            sched.run(burst(2))  # no payloads attached


class TestInterleaving:
    def test_interleaved_schedule_sanitizes(self):
        cl, sched = make_scheduler(max_inflight=2)
        sched.run(burst(10))
        assert len(sched.batches) >= 2
        cl.sanitize()

    def test_batches_overlap_on_the_cluster(self):
        cl, sched = make_scheduler(batching=False, max_inflight=2)
        sched.run(burst(8))
        spans = sorted((b["release"], b["finish"]) for b in sched.batches)
        assert any(a_end > b_start for (_, a_end), (b_start, _)
                   in zip(spans, spans[1:]))

    def test_inflight_2_no_slower_than_1(self):
        _, s1 = make_scheduler(batching=False, max_inflight=1)
        s1.run(burst(8))
        _, s2 = make_scheduler(batching=False, max_inflight=2)
        s2.run(burst(8))
        assert s2.wall_time <= s1.wall_time


class TestDeterminism:
    def _ledger_signature(self, cl):
        return [(r.name, r.device, r.stream, r.kind, r.start, r.duration,
                 r.flops, r.comm_bytes) for r in cl.ledger]

    def test_replay_is_bit_identical(self):
        cl_a, sched_a = make_scheduler()
        sched_a.run(burst(9))
        cl_b, sched_b = make_scheduler()
        sched_b.run(burst(9))
        assert self._ledger_signature(cl_a) == self._ledger_signature(cl_b)
        assert sched_a.batches == sched_b.batches
        assert [(c.request.rid, c.finish) for c in sched_a.completed] == \
               [(c.request.rid, c.finish) for c in sched_b.completed]

    def test_outputs_identical_batched_vs_one_by_one(self):
        reqs = burst(6, with_payloads=True)
        _, coalesced = make_scheduler(batching=True, build_operators=True,
                                      compute_outputs=True)
        coalesced.run(reqs)
        _, oneby = make_scheduler(batching=False, build_operators=True,
                                  compute_outputs=True)
        oneby.run(reqs)
        assert any(b["k"] > 1 for b in coalesced.batches)
        assert all(b["k"] == 1 for b in oneby.batches)
        assert set(coalesced.outputs) == set(oneby.outputs) == {
            r.rid for r in reqs
        }
        for rid in coalesced.outputs:
            assert np.array_equal(coalesced.outputs[rid], oneby.outputs[rid])

    def test_outputs_match_single_transform(self):
        reqs = burst(3, with_payloads=True)
        _, sched = make_scheduler(batching=True, build_operators=True,
                                  compute_outputs=True)
        sched.run(reqs)
        plan = sched.batcher.cache.host_plan_for(N, "complex128")
        for r in reqs:
            assert np.array_equal(sched.outputs[r.rid],
                                  fmmfft_single(r.x, plan))


# ---------------------------------------------------------------------------
# the serving arms: cold/warm x unbatched/batched on the DGX-1
# ---------------------------------------------------------------------------

DGX1 = preset("8xP100")
#: 32 requests of the 3:2:1 2^16/2^17/2^18 mix, arriving faster than
#: any arm serves them
ARMS_TRACE = synthetic_workload(32, rate=1e5, seed=11)


def warm_cache(requests):
    """A cache pre-warmed for every size in the trace, counters zeroed."""
    cache = PlanCache(DGX1, wisdom=Wisdom())
    for n in sorted({r.N for r in requests}):
        cache.plan_for(n, "complex128")
    cache.plan_hits = cache.plan_misses = 0
    cache.wisdom_hits = cache.wisdom_misses = cache.searches = 0
    return cache


def serve_arm(requests, cache, batching, max_inflight):
    """One service configuration over one trace; the interleaved
    schedule must sanitize."""
    cl = VirtualCluster(DGX1, execute=False)
    sched = ServeScheduler(
        cl, Batcher(cache, max_batch=8, batching=batching),
        queue=AdmissionQueue(capacity=4096), max_inflight=max_inflight,
    )
    sched.run(requests)
    cl.sanitize()
    return summarize(sched)


class TestServingArms:
    @pytest.fixture(scope="class")
    def arms(self):
        return {
            # no batching, no plan cache, no wisdom: a search per request
            "unbatched_cold": serve_arm(
                ARMS_TRACE, PlanCache(DGX1, capacity=0, remember=False),
                batching=False, max_inflight=1),
            "unbatched_warm": serve_arm(ARMS_TRACE, warm_cache(ARMS_TRACE),
                                        batching=False, max_inflight=1),
            "batched_cold": serve_arm(
                ARMS_TRACE, PlanCache(DGX1, wisdom=Wisdom()),
                batching=True, max_inflight=2),
            "batched_warm": serve_arm(ARMS_TRACE, warm_cache(ARMS_TRACE),
                                      batching=True, max_inflight=2),
        }

    def test_batched_warm_at_least_2x_one_shot_cold(self, arms):
        speedup = (arms["batched_warm"].throughput
                   / arms["unbatched_cold"].throughput)
        assert speedup >= 2.0, speedup

    @pytest.mark.parametrize("arm", ["unbatched_warm", "batched_warm"])
    def test_warm_arms_never_search_or_miss(self, arms, arm):
        rep = arms[arm]
        assert rep.searches == 0
        assert rep.wisdom_misses == 0
        assert rep.plan_hit_rate == 1.0

    def test_cold_one_shot_searches_every_request(self, arms):
        assert arms["unbatched_cold"].searches == len(ARMS_TRACE)

    def test_batching_coalesces_and_pays(self, arms):
        assert arms["batched_warm"].mean_batch_size > 1.5
        # launch/collective amortization, even among warm arms
        assert (arms["batched_warm"].throughput
                > arms["unbatched_warm"].throughput)

    def test_nothing_shed(self, arms):
        for name, rep in arms.items():
            assert sum(rep.shed.values()) == 0, name

    @pytest.mark.parametrize("rate", [500.0, 2000.0, 8000.0, 32000.0])
    def test_load_sweep_serves(self, rate):
        reqs = synthetic_workload(32, rate=rate, seed=11)
        rep = serve_arm(reqs, warm_cache(reqs), batching=True, max_inflight=2)
        assert rep.throughput > 0

"""Serve-layer graph replay: warm batches replay, cold semantics survive.

The scheduler's replay path must be observationally equivalent to the
interpreted path — same completions, same record timings, same hazards
(none) — with only the designed difference: warm batches' buffers live
in the reusable slot namespace (``serve.r<slot>``) instead of their
batch namespace (``serve.b<bid>``).
"""

from __future__ import annotations

import gc
import re
import weakref

from repro.faults import FaultInjector
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import p100_nvlink_node
from repro.serve import (
    AdmissionQueue,
    Batcher,
    PlanCache,
    ServeScheduler,
    synthetic_workload,
)

SPEC = p100_nvlink_node(2)
_SLOT = re.compile(r"serve\.[br]\d+")


def _run(requests, replay=True, capacity=64, faults=None,
         build_operators=False, compute_outputs=False):
    cache = PlanCache(SPEC, autotune=False, capacity=capacity,
                      build_operators=build_operators)
    cl = VirtualCluster(SPEC, execute=False, faults=faults)
    sched = ServeScheduler(
        cl, Batcher(cache, max_batch=4),
        queue=AdmissionQueue(capacity=256),
        max_inflight=2, replay=replay,
        compute_outputs=compute_outputs,
    )
    sched.run(requests)
    return cl, sched


def _normalized(cl):
    """Ledger records with batch/slot buffer namespaces collapsed."""

    def nb(bufs):
        return tuple((g, _SLOT.sub("serve.X", b)) for g, b in bufs)

    return [
        (r.device, r.stream, r.kind, r.name, r.start, r.duration, r.flops,
         r.mops, r.comm_bytes, r.peer, r.uid, nb(r.reads), nb(r.writes),
         r.waits, r.region)
        for r in cl.ledger
    ]


class TestWarmBatchesReplay:
    def test_warm_batches_replay_and_counters_agree(self):
        reqs = synthetic_workload(10, rate=1e5, seed=5, sizes={1 << 12: 1.0})
        cl, sched = _run(reqs)
        cache = sched.batcher.cache
        assert sched.replayed_batches > 0
        assert sched.replayed_batches == cache.replays
        assert cache.graph_hits == sched.replayed_batches
        # one miss (and one stored graph) per batch configuration
        assert cache.graph_misses == len(sched.batches) - sched.replayed_batches
        assert sum(1 for b in sched.batches if b["replayed"]) == (
            sched.replayed_batches)

    def test_replay_run_equals_interpreted_run(self):
        reqs = synthetic_workload(10, rate=1e5, seed=5, sizes={1 << 12: 1.0})
        cl_r, sched_r = _run(reqs, replay=True)
        cl_i, sched_i = _run(reqs, replay=False)
        assert sched_i.replayed_batches == 0
        assert sched_r.replayed_batches > 0
        # identical completions: same requests finish at the same times
        done_r = [(c.request.rid, c.finish) for c in sched_r.completed]
        done_i = [(c.request.rid, c.finish) for c in sched_i.completed]
        assert done_r == done_i
        # identical records modulo the slot renaming
        assert _normalized(cl_r) == _normalized(cl_i)
        assert cl_r.ledger.fingerprint() != cl_i.ledger.fingerprint()

    def test_interleaved_replay_ledger_is_hazard_free(self):
        reqs = synthetic_workload(12, rate=1e5, seed=7,
                                  sizes={1 << 12: 1.0, 1 << 13: 1.0})
        cl, sched = _run(reqs)
        assert sched.replayed_batches > 0
        cl.sanitize()

    def test_outputs_unchanged_by_replay(self):
        reqs = synthetic_workload(8, rate=1e5, seed=9,
                                  sizes={1 << 12: 1.0}, with_payloads=True)
        _, on = _run(reqs, replay=True, build_operators=True,
                     compute_outputs=True)
        _, off = _run(reqs, replay=False, build_operators=True,
                      compute_outputs=True)
        assert on.replayed_batches > 0
        assert set(on.outputs) == set(off.outputs)
        for rid, y in on.outputs.items():
            assert y.tobytes() == off.outputs[rid].tobytes()

    def test_fault_injection_keeps_replay(self):
        def flaky():
            return FaultInjector(SPEC, seed=3, transient_rate=0.1)

        reqs = synthetic_workload(8, rate=1e5, seed=5, sizes={1 << 12: 1.0})
        cl_on, on = _run(reqs, faults=flaky())
        cl_off, off = _run(reqs, replay=False, faults=flaky())
        assert on.replayed_batches > 0
        assert any(r.name.endswith("!fail") for r in cl_on.ledger)
        assert _normalized(cl_on) == _normalized(cl_off)


class TestCompiledTapes:
    """A captured graph is compiled once, on the graph, and every later
    scheduler only binds it to its own cluster."""

    REQS = synthetic_workload(12, rate=1e5, seed=7,
                              sizes={1 << 12: 1.0, 1 << 13: 1.0})

    @staticmethod
    def _serve(cache, reqs):
        sched = ServeScheduler(VirtualCluster(SPEC, execute=False),
                               Batcher(cache, max_batch=4),
                               queue=AdmissionQueue(capacity=256),
                               max_inflight=2)
        sched.run(reqs)
        return sched

    @staticmethod
    def _tapes(cache):
        return {(gkey, tkey): tape for gkey, g in cache._graphs.items()
                for tkey, tape in g.tapes.items()}

    def test_warm_cache_fresh_scheduler_compiles_no_tape(self):
        cache = PlanCache(SPEC, autotune=False)
        self._serve(cache, self.REQS)
        before = self._tapes(cache)
        assert before
        again = self._serve(cache, self.REQS)
        assert again.replayed_batches == len(again.batches) > 0
        after = self._tapes(cache)
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)

    def test_evicted_graph_drops_its_tapes(self):
        cache = PlanCache(SPEC, autotune=False, capacity=1)
        small = [r for r in self.REQS if r.N == 1 << 12]
        first = self._serve(cache, small)
        assert first.replayed_batches > 0
        [graph] = cache._graphs.values()
        assert graph.tapes
        ref = weakref.ref(graph)
        del graph, first
        self._serve(cache, [r for r in self.REQS if r.N == 1 << 13])
        assert ref() not in cache._graphs.values()
        gc.collect()
        assert ref() is None


class TestReplayDisables:
    def test_zero_capacity_cache_disables_replay(self):
        reqs = synthetic_workload(8, rate=1e5, seed=5, sizes={1 << 12: 1.0})
        cl, sched = _run(reqs, capacity=0)
        assert sched.replayed_batches == 0
        assert sched.batcher.cache.graph_misses == 0  # tier never queried

    def test_replay_false_disables_graph_tier(self):
        reqs = synthetic_workload(8, rate=1e5, seed=5, sizes={1 << 12: 1.0})
        _, sched = _run(reqs, replay=False)
        assert sched.replayed_batches == 0
        assert sched.batcher.cache.graph_hits == 0


class TestGraphTierLru:
    def test_graph_store_and_hit(self):
        cache = PlanCache(SPEC, autotune=False, capacity=2)
        cache.put_graph(("a",), "GA")
        cache.put_graph(("b",), "GB")
        assert cache.graph_for(("a",)) == "GA"
        assert cache.graph_hits == 1 and cache.graph_misses == 0
        assert cache.graph_for(("c",)) is None
        assert cache.graph_misses == 1

    def test_lru_eviction_bounded_by_capacity(self):
        cache = PlanCache(SPEC, autotune=False, capacity=2)
        cache.put_graph(("a",), "GA")
        cache.put_graph(("b",), "GB")
        cache.put_graph(("c",), "GC")  # evicts a
        assert cache.graph_for(("a",)) is None
        assert cache.graph_for(("b",)) == "GB"

    def test_zero_capacity_stores_nothing(self):
        cache = PlanCache(SPEC, autotune=False, capacity=0)
        cache.put_graph(("a",), "GA")
        assert cache.graph_for(("a",)) is None

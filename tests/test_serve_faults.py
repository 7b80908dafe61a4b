"""Serving under faults: retry/shed policy, replanning, determinism,
a fault-free twin of a seeded chaos run, and a whole-node loss."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import RetryPolicy
from repro.comm.tuning import choose_algorithm
from repro.faults import DeviceLoss, FaultInjector, LinkFlap, node_loss, seeded_chaos
from repro.machine.cluster import VirtualCluster
from repro.machine.multinode import routed_multinode_p100
from repro.machine.spec import preset
from repro.serve import (
    AdmissionQueue,
    Batcher,
    PlanCache,
    ServeScheduler,
    summarize,
    synthetic_workload,
)

SPEC = preset("8xP100")


def serve_run(requests, faults=None, retry=None, retry_budget=2,
              max_inflight=2, spec=SPEC, compute_outputs=False):
    cl = VirtualCluster(spec, execute=False, faults=faults, retry=retry)
    cache = PlanCache(spec, autotune=not compute_outputs,
                      build_operators=compute_outputs)
    sched = ServeScheduler(
        cl, Batcher(cache, max_batch=8),
        queue=AdmissionQueue(capacity=256),
        max_inflight=max_inflight, retry_budget=retry_budget,
        compute_outputs=compute_outputs,
    )
    sched.run(requests)
    return cl, sched


def accounted(sched):
    """completed + admission shed + retry shed, in requests."""
    return (len(sched.completed) + sum(sched.queue.shed.values())
            + sum(sched.retry_shed.values()))


class TestRetryCompletes:
    def test_failed_batches_reenqueue_and_complete(self):
        # a flap window early in the run: batches issued inside it exhaust
        # the comm retry budget and fail; the service re-enqueues their
        # requests, which complete once the window closes
        reqs = synthetic_workload(8, rate=20000.0, seed=3)
        inj = FaultInjector(SPEC, scheduled=(LinkFlap(0, 1, 5e-3, 7.5e-3),))
        pol = RetryPolicy(timeout=3e-4, backoff=1e-5, jitter=0.0, budget=1)
        cl, sched = serve_run(reqs, faults=inj, retry=pol, retry_budget=8)
        assert sched.failed_batches > 0
        assert sum(sched.retried.values()) > 0
        assert len(sched.completed) == len(reqs)     # everyone recovered
        assert accounted(sched) == len(reqs)
        cl.sanitize()     # the retried interleaving stays hazard-free

    def test_failed_batch_marked_on_serve_track(self):
        reqs = synthetic_workload(8, rate=20000.0, seed=3)
        inj = FaultInjector(SPEC, scheduled=(LinkFlap(0, 1, 5e-3, 7.5e-3),))
        pol = RetryPolicy(timeout=3e-4, backoff=1e-5, jitter=0.0, budget=1)
        _, sched = serve_run(reqs, faults=inj, retry=pol, retry_budget=8)
        assert any(b["failed"] for b in sched.batches)
        assert any(not b["failed"] for b in sched.batches)


class TestShedPolicy:
    def test_permanent_fault_sheds_everything(self):
        reqs = synthetic_workload(6, rate=20000.0, seed=3)
        inj = FaultInjector(SPEC, scheduled=(DeviceLoss(0, 0.0),))
        _, sched = serve_run(reqs, faults=inj)
        assert len(sched.completed) == 0
        assert sum(sched.retried.values()) == 0      # no point retrying
        assert sum(sched.retry_shed.values()) == len(reqs)
        assert accounted(sched) == len(reqs)

    def test_retry_budget_exhaustion_sheds(self):
        # a flap that never ends within the horizon: every retry fails
        # until the per-request budget runs out
        reqs = synthetic_workload(4, rate=20000.0, seed=3)
        inj = FaultInjector(SPEC, scheduled=(LinkFlap(0, 1, 0.0, 10.0),))
        pol = RetryPolicy(timeout=2e-4, backoff=1e-5, jitter=0.0, budget=1)
        _, sched = serve_run(reqs, faults=inj, retry=pol, retry_budget=1)
        assert len(sched.completed) == 0
        assert sum(sched.retry_shed.values()) == len(reqs)
        assert accounted(sched) == len(reqs)

    def test_zero_retry_budget_sheds_on_first_failure(self):
        reqs = synthetic_workload(4, rate=20000.0, seed=3)
        inj = FaultInjector(SPEC, scheduled=(LinkFlap(0, 1, 0.0, 10.0),))
        pol = RetryPolicy(timeout=2e-4, backoff=1e-5, jitter=0.0, budget=1)
        _, sched = serve_run(reqs, faults=inj, retry=pol, retry_budget=0)
        assert sum(sched.retried.values()) == 0
        assert sum(sched.retry_shed.values()) == len(reqs)


class TestReplanning:
    def test_comm_algorithm_replans_against_degraded_topology(self):
        reqs = synthetic_workload(2, rate=20000.0, seed=3)
        inj = FaultInjector(SPEC, scheduled=(LinkFlap(0, 1, 0.0, 1.0),))
        cl = VirtualCluster(SPEC, execute=False, faults=inj)
        sched = ServeScheduler(cl, Batcher(PlanCache(SPEC), max_batch=8))
        q = AdmissionQueue()
        q.offer(reqs[0], 0.0)
        batch = sched.batcher.next_batch(q, 0.0)
        import numpy as np

        payload = (batch.plan.N * np.dtype(batch.plan.dtype).itemsize
                   / SPEC.num_devices)
        expect = choose_algorithm(inj.degraded_spec(0.5), "alltoall", payload)
        assert sched._comm_algorithm(batch, 0.5) == expect
        # outside the window the cached (healthy) choice is kept
        assert sched._comm_algorithm(batch, 2.0) == batch.comm_algorithm


class TestDeterminism:
    def test_zero_fault_twin_ledger_equality(self):
        reqs = synthetic_workload(8, rate=20000.0, seed=3)
        cl_plain, _ = serve_run(reqs)
        cl_zero, _ = serve_run(reqs, faults=FaultInjector(SPEC))
        assert cl_plain.ledger.fingerprint() == cl_zero.ledger.fingerprint()

    def test_seeded_chaos_replay_is_bit_identical(self):
        reqs = synthetic_workload(8, rate=5000.0, seed=3)

        def chaos_run():
            inj = seeded_chaos(SPEC, seed=4, transient_rate=0.02,
                               stragglers=1, flaps=1)
            return serve_run(reqs, faults=inj)

        cl_a, sched_a = chaos_run()
        cl_b, _ = chaos_run()
        assert cl_a.ledger.fingerprint() == cl_b.ledger.fingerprint()
        assert accounted(sched_a) == len(reqs)
        cl_a.sanitize()


class TestReportAccounting:
    def test_fault_fields_populated(self):
        reqs = synthetic_workload(8, rate=20000.0, seed=3)
        inj = FaultInjector(SPEC, scheduled=(LinkFlap(0, 1, 5e-3, 7.5e-3),))
        pol = RetryPolicy(timeout=3e-4, backoff=1e-5, jitter=0.0, budget=1)
        _, sched = serve_run(reqs, faults=inj, retry=pol, retry_budget=8)
        rep = summarize(sched)
        assert rep.fault_events == len(inj.events)
        assert rep.failed_batches == sched.failed_batches
        assert rep.retry_time > 0.0
        assert dict(rep.retried) == sched.retried
        out = rep.render()
        assert "faults" in out and "retries" in out

    def test_fault_free_report_is_quiet(self):
        reqs = synthetic_workload(4, rate=20000.0, seed=3)
        _, sched = serve_run(reqs)
        rep = summarize(sched)
        assert rep.fault_events == 0 and rep.retry_time == 0.0
        assert "faults" not in rep.render()


# ---------------------------------------------------------------------------
# a seeded chaos run against its fault-free twin, and a whole-node loss
# ---------------------------------------------------------------------------

#: 32 requests of the default size mix at 2000 req/s
TRACE = synthetic_workload(32, rate=2000.0, seed=11)


def chaos():
    """2% per-attempt transient message failures plus one straggler."""
    return seeded_chaos(SPEC, seed=7, transient_rate=0.02, stragglers=1)


class TestChaosTwin:
    @pytest.fixture(scope="class")
    def runs(self):
        runs = {"fault_free": serve_run(TRACE),
                "chaos": serve_run(TRACE, faults=chaos()),
                "replay": serve_run(TRACE, faults=chaos()),
                "zero_fault": serve_run(TRACE, faults=FaultInjector(SPEC))}
        for cl, _ in runs.values():
            cl.sanitize()     # retried schedules stay hazard-free
        return runs

    def test_chaos_replay_is_bit_identical(self, runs):
        assert (runs["chaos"][0].ledger.fingerprint()
                == runs["replay"][0].ledger.fingerprint())

    def test_zero_fault_injector_is_invisible(self, runs):
        assert (runs["zero_fault"][0].ledger.fingerprint()
                == runs["fault_free"][0].ledger.fingerprint())

    def test_fault_free_arm_is_quiet(self, runs):
        rep = summarize(runs["fault_free"][1])
        assert rep.fault_events == 0 and rep.failed_batches == 0
        assert rep.retry_time == 0.0
        assert sum(rep.retried.values()) == 0

    def test_chaos_injects_faults(self, runs):
        assert summarize(runs["chaos"][1]).fault_events > 0

    @pytest.mark.parametrize("arm", ["fault_free", "chaos"])
    def test_every_request_accounted(self, runs, arm):
        assert accounted(runs[arm][1]) == len(TRACE)

    def test_chaos_outputs_equal_fault_free(self):
        # retries re-run schedules; they never corrupt data
        reqs = synthetic_workload(8, rate=2000.0, sizes={1 << 12: 1.0},
                                  seed=13, with_payloads=True)
        cl_base, base = serve_run(reqs, compute_outputs=True)
        cl_chaos, under = serve_run(reqs, faults=chaos(), compute_outputs=True)
        cl_base.sanitize()
        cl_chaos.sanitize()
        assert under.outputs and set(under.outputs) == set(base.outputs)
        for rid in under.outputs:
            assert np.array_equal(under.outputs[rid], base.outputs[rid])


def test_node_loss_completes_sheds_and_replays():
    # node 1 of a routed 2 x 4 fabric dies at 15 ms, under 1% transient
    # failures: earlier requests complete, later ones are shed
    spec = routed_multinode_p100(2, gpus_per_node=4, radix=4)

    def run():
        inj = FaultInjector(spec, seed=7, transient_rate=0.01,
                            scheduled=node_loss(spec, 1, 15e-3))
        cl, sched = serve_run(TRACE, faults=inj, spec=spec)
        cl.sanitize()
        return cl, sched

    (cl, sched), (cl2, _) = run(), run()
    assert cl.ledger.fingerprint() == cl2.ledger.fingerprint()
    rep = summarize(sched)
    assert rep.fault_events >= 4      # every device of the lost node
    assert rep.completed > 0
    assert accounted(sched) == len(TRACE)

"""Faults x replay: a graph is valid under any fault history.

The engine prices steps fault-free and applies faults as it issues them
(stretched durations, timed-out ``!fail`` attempts, backoff,
:class:`CommFailure`), and every captured dependency names its
producers, so:

- a graph captured while injector A was firing certifies, and carries
  none of A's faults;
- replayed under A — or under a differently seeded B — it is
  indistinguishable from interpreting the pipeline under that injector:
  ledger fingerprint (``waits`` included), telemetry snapshot,
  ``comm_log``, the injector's own event ledger, and the
  :class:`CommFailure` that ended the run, if one did;
- the serve scheduler therefore issues every batch one way, faults or
  not: ``replay=True`` and ``replay=False`` agree on every completion
  and every record.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

import repro.comm.api as comm_api
from repro.analysis.hazards import HazardError
from repro.comm import CommFailure, RetryPolicy
from repro.core.api import default_params
from repro.core.plan import FmmFftPlan
from repro.faults import (
    DeviceLoss,
    FaultInjector,
    LinkFlap,
    Straggler,
    node_loss,
    seeded_chaos,
)
from repro.ir import ReplayExecutor, capture, capture_pipeline
from repro.ir.graph import OP_COLL
from repro.machine.cluster import VirtualCluster
from repro.machine.multinode import routed_multinode_p100
from repro.machine.spec import preset
from repro.obs.telemetry import MetricsRegistry
from repro.serve import (
    AdmissionQueue,
    Batcher,
    PlanCache,
    ServeScheduler,
    synthetic_workload,
)

N = 1 << 12
PIPELINES = ("fft1d", "fft2d", "rfft", "fmm", "fmmfft")
ALGOS = ("bulk", "auto", "ring", "bruck")
TESTBEDS = {
    "2xP100": lambda: preset("2xP100"),
    "8xP100": lambda: preset("8xP100"),
    "r2x4": lambda: routed_multinode_p100(2, gpus_per_node=4, radix=4),
}


def _interpret(name, cl, algo):
    """The plain pipeline run (tape closed)."""
    if name == "fft1d":
        from repro.dfft.fft1d import Distributed1DFFT

        Distributed1DFFT(N, cl, comm_algorithm=algo).run()
    elif name == "fft2d":
        from repro.dfft.fft2d import Distributed2DFFT

        M = 1 << ((max(N.bit_length() - 1, 2) + 1) // 2)
        Distributed2DFFT(M, N // M, cl, comm_algorithm=algo).run()
    elif name == "rfft":
        from repro.dfft.realfft import DistributedRealFFT

        DistributedRealFFT(N, cl, comm_algorithm=algo).run()
    else:
        plan = FmmFftPlan.create(N=N, G=cl.G, build_operators=False,
                                 **default_params(N, cl.G))
        if name == "fmmfft":
            from repro.core.distributed import FmmFftDistributed

            FmmFftDistributed(plan, cl, comm_algorithm=algo).run()
        else:
            from repro.fmm.distributed import DistributedFMM

            DistributedFMM(plan.geometry, cl, comm_algorithm=algo).run()
            cl.barrier()


def _chaos(spec, seed):
    """Transients, two link flaps, a degraded link and a straggler, all
    inside the few hundred microseconds these runs take."""
    return seeded_chaos(spec, seed=seed, transient_rate=0.05, flaps=2,
                        stragglers=1, degrades=1, horizon=2e-3)


def _cluster(spec, faults, retry=None):
    return VirtualCluster(spec, execute=False, faults=faults, retry=retry,
                          telemetry=MetricsRegistry())


def _observed(cl, run):
    """Everything a run leaves behind, CommFailure included."""
    failure = None
    try:
        run(cl)
    except CommFailure as e:
        failure = (str(e), e.time, e.permanent)
    return {
        "ledger": cl.ledger.fingerprint(),
        "telemetry": cl.telemetry.snapshot(),
        "comm_log": list(cl.comm_log),
        "fault_events": list(cl.faults.events),
        "failure": failure,
    }


def _check_case(name, algo, spec, make_a, make_b, retry_b=None):
    """Capture under A certifies; replay under A and under B equals the
    interpreter under A / B.  Returns the two interpreted observations."""
    captured = _cluster(spec, make_a())
    graph, _ = capture_pipeline(name, captured, N, comm_algorithm=algo)
    assert graph.certify(spec)["hazards"] == 0
    assert not any(n.name.endswith("!fail") for n in graph.nodes)
    seen = []
    for make, retry in ((make_a, None), (make_b, retry_b)):
        interpreted = _observed(_cluster(spec, make(), retry),
                                lambda cl: _interpret(name, cl, algo))
        replay_cl = _cluster(spec, make(), retry)
        replayed = _observed(replay_cl,
                             lambda cl: ReplayExecutor(graph, cl).run())
        assert replayed == interpreted
        seen.append((interpreted, replay_cl))
    # the capture run was itself an eager run under A
    assert captured.ledger.fingerprint() == seen[0][0]["ledger"]
    return seen


@pytest.mark.parametrize("bed", TESTBEDS)
@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("name", PIPELINES)
def test_replay_equals_interpreter_under_any_fault_history(name, algo, bed):
    spec = TESTBEDS[bed]()
    seen = _check_case(name, algo, spec,
                       lambda: _chaos(spec, 1), lambda: _chaos(spec, 2))
    if bed != "2xP100" and algo != "bulk":
        # the matrix is not vacuous: attempts really timed out
        assert any(r.name.endswith("!fail") for _, cl in seen
                   for r in cl.ledger)


@pytest.mark.parametrize("bed", TESTBEDS)
@pytest.mark.parametrize("name", PIPELINES)
def test_replay_fails_exactly_as_the_interpreter_does(name, bed):
    """Device loss mid-run and an exhausted budget end a replay with the
    interpreter's CommFailure: same message, time and permanence."""
    spec = TESTBEDS[bed]()

    def loss(algo):
        # lose a device as the healthy run's last transfer would start:
        # faults only delay, so that transfer (at the latest) meets it
        healthy = VirtualCluster(spec, execute=False)
        _interpret(name, healthy, algo)
        last = [r for r in healthy.ledger if r.kind == "comm"][-1]
        return lambda: FaultInjector(
            spec, seed=5, transient_rate=0.02,
            scheduled=(DeviceLoss(last.device, last.start),))

    def storm():
        return FaultInjector(spec, seed=9, transient_rate=0.8)

    for algo, make_b, retry, permanent in (
            ("auto", loss("auto"), None, True),
            ("bulk", loss("bulk"), None, True),
            ("ring", storm, RetryPolicy(budget=1), False)):
        seen = _check_case(name, algo, spec, lambda: _chaos(spec, 3),
                           make_b, retry)
        failure = seen[1][0]["failure"]
        assert failure is not None and failure[2] is permanent, (algo, failure)
        assert seen[1][1].ledger  # it died mid-run, not before the first op


class TestLatestOfSeveral:
    def test_time_chosen_completion_event_breaks_capture_under_faults(
            self, monkeypatch):
        """Seeded mutant: choose each collective's per-device completion
        event by comparing capture-time timestamps again (one candidate
        named instead of all) and a graph captured under faults no
        longer orders its consumers after every message."""
        spec = TESTBEDS["r2x4"]()

        def case():
            _check_case("fmmfft", "ring", spec, lambda: _chaos(spec, 1),
                        lambda: _chaos(spec, 2))

        case()  # healthy code passes

        def time_chosen(cl, touch, name):
            return [max(touch[g].values(), key=lambda e: e.time)
                    for g in range(cl.G)]

        monkeypatch.setattr(comm_api, "_done_events", time_chosen)
        with pytest.raises((HazardError, AssertionError)):
            case()

    def test_wait_edge_follows_the_later_producer_at_issue(self):
        """A step that follows two producers records one ``waits`` edge:
        to whichever finished last in *this* run (the first on a tie)."""
        spec = preset("2xP100")

        def run(cl, flops0):
            a = cl.launch(0, "a", "gemm", flops0, 0.0, np.float64,
                          writes=["a"])
            b = cl.launch(1, "b", "gemm", 1e9, 0.0, np.float64, writes=["b"])
            cl.launch(0, "c", "copy", 0.0, 8.0, np.float64,
                      after=[cl.latest(a, b)], reads=["a"], writes=["c"])

        cap = VirtualCluster(spec, execute=False)
        graph, _ = capture(lambda cl: run(cl, 1e6), cap)  # b finishes last
        assert [r.waits for r in cap.ledger][-1] == (1,)
        assert graph.nodes[-1].deps == (((0, -1, True), (1, -1, True)),)
        # a straggler on device 0 makes ``a`` the later one at replay
        slow = FaultInjector(
            spec, scheduled=(Straggler(0, 0.0, 1.0, slowdown=1e4),))
        cl = VirtualCluster(spec, execute=False, faults=slow)
        ReplayExecutor(graph, cl).run()
        assert [r.waits for r in cl.ledger][-1] == (0,)
        # a tie goes to the first candidate, as the eager comparison does
        tie = VirtualCluster(spec, execute=False)
        graph, _ = capture(lambda cl: run(cl, 1e9), tie)
        assert [r.waits for r in tie.ledger][-1] == (0,)
        again = VirtualCluster(spec, execute=False)
        ReplayExecutor(graph, again).run()
        assert again.ledger.fingerprint() == tie.ledger.fingerprint()


class TestCollectiveSubAfterFailedAttempts:
    def test_dep_on_device_3_survives_fail_records(self):
        """``!fail`` records precede a bulk collective's G real records;
        a consumer of device 3's event must still resolve to device 3."""
        spec = preset("8xP100")

        def flapping():
            return FaultInjector(spec,
                                 scheduled=(LinkFlap(0, 1, 0.0, 100e-6),))

        def run(cl):
            evs = comm_api.alltoall(cl, 8e3, "xchg", reads=["src"],
                                    writes=["dst"], algorithm="bulk")
            cl.launch(3, "use", "copy", 0.0, 8.0, np.float64,
                      after=[evs[3]], reads=["dst"], writes=["out"])

        cap = VirtualCluster(spec, execute=False, faults=flapping())
        graph, _ = capture(run, cap)
        coll = next(i for i, n in enumerate(graph.nodes) if n.op == OP_COLL)
        assert graph.nodes[-1].deps == ((coll, 3, True),)
        for cl in (cap, VirtualCluster(spec, execute=False,
                                       faults=flapping())):
            if cl is not cap:
                ReplayExecutor(graph, cl).run()
            recs = list(cl.ledger)
            assert sum(r.name == "xchg!fail" for r in recs) == spec.num_devices
            (uid,) = recs[-1].waits
            assert (recs[uid].name, recs[uid].device) == ("xchg", 3)


# -- serve: every batch issued one way ---------------------------------

_SLOT = re.compile(r"serve\.[br]\d+")


def _serve(spec, faults, trace, replay):
    cache = PlanCache(spec, autotune=False)
    cl = VirtualCluster(spec, execute=False, faults=faults)
    sched = ServeScheduler(cl, Batcher(cache, max_batch=4),
                           queue=AdmissionQueue(capacity=256),
                           max_inflight=2, retry_budget=2, replay=replay)
    sched.run(trace)
    return cl, sched


def _serve_outcome(cl, sched):
    return {
        "completed": [(c.request.rid, c.batch_id, c.release, c.finish)
                      for c in sched.completed],
        "retried": sched.retried,
        "retry_shed": sched.retry_shed,
        "failed_batches": sched.failed_batches,
        "records": [(r.device, r.stream, r.kind, r.name, r.start, r.duration,
                     r.comm_bytes, r.peer, r.waits, r.region,
                     tuple((g, _SLOT.sub("serve.X", b))
                           for g, b in r.reads + r.writes))
                    for r in cl.ledger],
        "fault_events": list(cl.faults.events),
    }


SERVE_CASES = {
    "chaos-8xP100": (
        "8xP100",
        lambda spec: seeded_chaos(spec, seed=21, transient_rate=0.03, flaps=1,
                                  stragglers=1, degrades=1, horizon=20e-3)),
    "chaos-r2x4": (
        "r2x4",
        lambda spec: seeded_chaos(spec, seed=41, transient_rate=0.05, flaps=2,
                                  stragglers=1, horizon=20e-3)),
    "nodeloss-r2x4": (
        "r2x4",
        lambda spec: FaultInjector(spec, seed=7, transient_rate=0.01,
                                   scheduled=node_loss(spec, 1, 8e-3))),
}


@pytest.mark.parametrize("case", SERVE_CASES)
def test_serve_replay_agrees_with_interpretation_under_faults(case):
    bed, make = SERVE_CASES[case]
    spec = TESTBEDS[bed]()
    trace = synthetic_workload(32, rate=3000.0, seed=11,
                               sizes={1 << 12: 0.7, 1 << 13: 0.3})
    cl_on, on = _serve(spec, make(spec), trace, replay=True)
    cl_off, off = _serve(spec, make(spec), trace, replay=False)
    assert on.replayed_batches > 0 and off.replayed_batches == 0
    assert _serve_outcome(cl_on, on) == _serve_outcome(cl_off, off)
    assert any(r.name.endswith("!fail") for r in cl_on.ledger)
    if case == "nodeloss-r2x4":
        assert on.failed_batches > 0


def test_failed_replay_frees_its_slot_at_the_failure_time():
    """A batch that dies mid-replay holds ``serve.r<slot>`` until it
    died: the next batch must not be renamed over its partial records
    (on this trace the sanitizer finds the overlap if it is)."""
    spec = TESTBEDS["r2x4"]()
    inj = FaultInjector(spec, seed=7, transient_rate=0.01,
                        scheduled=node_loss(spec, 1, 4e-3))
    trace = synthetic_workload(40, rate=6000.0, seed=8,
                               sizes={1 << 12: 1.0})
    cl, sched = _serve(spec, inj, trace, replay=True)
    assert sched.replayed_batches > 0 and sched.failed_batches > 0
    cl.sanitize()
    shed = sum(sched.queue.shed.values())
    retry_shed = sum(sched.retry_shed.values())
    assert len(sched.completed) + shed + retry_shed == len(trace)
    assert (sum(sched.queue.admitted.values())
            == len(trace) - shed + sum(sched.retried.values()))

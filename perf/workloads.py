"""The six benchmark workloads.

A workload builds its inputs from the seed, completes one first op in
``setup`` (so ``setup`` is the cold start a user pays), and then exposes
``op(i)`` — the timed unit — and ``check(out)``, which the harness calls
outside the timed region.  ``Cluster`` is the class ops build their
fresh clusters from: ``VirtualCluster`` in the untraced run, the tracer's
subclass in the traced one.

An *op* never fails on these inputs.  What can fail inside an op —
requests shed after the node loss — is counted per request in
``failed_frac`` (see README.md), not as a failed op.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.analysis.hazards import find_hazards
from repro.analysis.plancheck import check_plan
from repro.comm.plans import build_plan
from repro.core.api import default_params
from repro.core.distributed import FmmFftDistributed
from repro.core.plan import FmmFftPlan
from repro.core.single import fmmfft_single
from repro.dfft.fft1d import Distributed1DFFT
from repro.faults import FaultInjector, node_loss
from repro.fftcore.oracle import reference_fft
from repro.machine.cluster import VirtualCluster
from repro.machine.multinode import routed_multinode_p100
from repro.machine.spec import preset
from repro.serve import (
    Batcher,
    PlanCache,
    ServeScheduler,
    Wisdom,
    synthetic_workload,
)

#: a ledger longer than this is fingerprinted on its first iterations
#: only (hashing 24k records costs as much as the op that made them)
FINGERPRINT_ALWAYS_BELOW = 4096
FINGERPRINT_FIRST = 3


@dataclass
class Out:
    """What one op hands to ``check``."""

    y: np.ndarray | None = None
    clusters: tuple = ()
    sched: ServeScheduler | None = None
    #: which of the workload's inputs this op ran (serve: trace index)
    key: int = 0
    #: serve: plan-cache (hits, misses, searches) counted during this op
    #: alone; the cache's own counters run on over the life of the cache
    cache: tuple = ()


class Workload:
    """Common state: seed, cluster class, named output checks."""

    name = ""
    why = ""
    #: ops discarded before the measured phase
    warmup = 5
    #: layer that owns the op's root span (None: glue only, unattributed)
    root_layer: str | None = None

    def __init__(self, seed: int, light: bool = False):
        self.seed = seed
        #: --smoke: the least input that still runs every code path
        self.light = light
        if light:
            self.warmup = 2
        self.Cluster = VirtualCluster
        #: set by the harness once the warm-up ops are done
        self.warm = False
        #: check name -> [times checked, times failed]
        self.checks: dict[str, list[int]] = {}
        #: input key -> [iterations hashed, fingerprint]
        self.fingerprints: dict[str, list] = {}
        self.rel_err_max = 0.0
        #: cost and findings of the end-of-run static checks
        self.sanitize_ms = 0.0
        self.findings = 0
        #: the latest checked op on input 0: every simulated-clock number,
        #: count and per-request outcome is read off this one, so none of
        #: them depends on which input the measured phase happened to end on
        self.ref_out: Out | None = None
        #: per-request outcome of ``ref_out`` (serve workloads)
        self.requests_attempted = 0
        self.requests_failed = 0

    def record(self, check: str, ok: bool) -> bool:
        c = self.checks.setdefault(check, [0, 0])
        c[0] += 1
        c[1] += not ok
        return ok

    def check_fingerprint(self, key: str, ledger) -> bool:
        """Same input, same ledger: hash and compare with the first.

        Warm iterations only: while the serve caches fill, a batch is
        interpreted under its own buffer names and replayed under a
        slot's, so a cold ledger differs from a warm one by design.
        """
        if not self.warm:
            return True
        seen = self.fingerprints.get(key)
        if (seen is not None and seen[0] >= FINGERPRINT_FIRST
                and len(ledger) > FINGERPRINT_ALWAYS_BELOW):
            return True
        fp = ledger.fingerprint()
        if seen is None:
            self.fingerprints[key] = [1, fp]
            return True
        seen[0] += 1
        return self.record("fingerprint", fp == seen[1])

    def check_clusters(self, out: Out) -> bool:
        if out.key == 0:
            self.ref_out = out
        return all([self.check_fingerprint(f"{out.key}.{j}", cl.ledger)
                    for j, cl in enumerate(out.clusters)])

    def check_static(self, cl) -> None:
        """End-of-run: hazard sanitizer and plan verifier, zero findings."""
        t0 = perf_counter()
        report = find_hazards(cl.ledger)
        self.sanitize_ms += (perf_counter() - t0) * 1e3
        self.findings += len(report.hazards) + len(report.defects)
        self.record("sanitizer", report.ok)
        for kind, algorithm, payload in sorted(
                {(e["kind"], e["algorithm"], e["payload"] / e["chunks"])
                 for e in cl.comm_log if e["algorithm"] != "bulk"
                 and e["kind"] in ("alltoall", "allgather")}):
            plan = build_plan(cl.spec, kind, payload, algorithm,
                              reads=("x",), certify=False)
            found = check_plan(cl.spec, plan, payload).findings
            self.findings += len(found)
            self.record("plancheck", not found)

    def finish(self) -> None:
        """End-of-run checks on the reference op's clusters."""
        for cl in self.ref_out.clusters:
            self.check_static(cl)

    # subclasses: setup(), op(i), check(out), numpy_signal


def _signal(seed: int, n: int, dtype) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)).astype(dtype)


class TransformWorkload(Workload):
    """One N=2^18 transform per op, checked against the oracle."""

    N = 1 << 18
    dtype = np.complex128
    #: rel_err_max ceiling: 1e-13 in double, 1e-6 in single
    tol = 1e-13

    def setup(self) -> Out:
        self.x = _signal(self.seed, self.N, self.dtype)
        self.numpy_signal = self.x
        self.ref = reference_fft(self.x)
        self.ref_norm = float(np.linalg.norm(self.ref))
        self.build()
        return self.op(0)

    def check(self, out: Out) -> bool:
        err = float(np.linalg.norm(out.y - self.ref)) / self.ref_norm
        self.rel_err_max = max(self.rel_err_max, err)
        return self.record("oracle", err <= self.tol) & self.check_clusters(out)


class ExecFmmFft(TransformWorkload):
    name = "exec_fmmfft_n18_g8"
    # the repro.fmmfft(x, cluster=...) user path: fmm numerics do most
    # of the work (S2T about half), machine/comm bookkeeping little
    why = ("execute-mode FMM-FFT, N=2^18 on 8xP100: the user path; fmm "
           "kernels dominate, machine/comm bookkeeping is small")

    def build(self) -> None:
        self.spec = preset("8xP100")
        self.plan = FmmFftPlan.create(N=self.N, G=8, dtype=self.dtype,
                                      **default_params(self.N, 8))

    def op(self, i: int) -> Out:
        cl = self.Cluster(self.spec)
        y = FmmFftDistributed(self.plan, cl, comm_algorithm="auto").run(self.x)
        return Out(y=y, clusters=(cl,))


class ExecFft1d(TransformWorkload):
    name = "exec_fft1d_n18_g8"
    # fmm does nothing here: an FMM-kernel change must show no movement,
    # a local-FFT or transpose change shows here first; also the
    # denominator of the paper's speedup
    why = ("execute-mode six-step baseline, same N/testbed/signal: bypasses "
           "fmm entirely; fftcore and dfft transposes do everything")

    def build(self) -> None:
        self.spec = preset("8xP100")

    def op(self, i: int) -> Out:
        cl = self.Cluster(self.spec)
        y = Distributed1DFFT(self.N, cl, comm_algorithm="auto").run(self.x)
        return Out(y=y, clusters=(cl,))


class HostSingle(TransformWorkload):
    name = "host_single_n18_c64"
    # same math through the other kernel copy (fmm/batched.py) at the
    # other precision: a gain landed in only one copy, or bought by a
    # complex128-only trick, shows as a split against exec_fmmfft
    why = ("fmmfft_single, N=2^18 complex64, no cluster: the batched kernel "
           "copy at the other precision; bypasses machine/comm/dfft")
    dtype = np.complex64
    tol = 1e-6
    root_layer = "core"

    def build(self) -> None:
        self.plan = FmmFftPlan.create(N=self.N, G=1, dtype=self.dtype,
                                      **default_params(self.N, 1))

    def op(self, i: int) -> Out:
        return Out(y=fmmfft_single(self.x, self.plan))


class SimPair(Workload):
    name = "sim_pair_r2x8_n24"
    # zero numerics: machine (launch, ledger, events, routing), comm
    # plan build/issue and the analysis verdict cache are all the host
    # time (about 1500 + 2300 records per op)
    why = ("timing-only FMM-FFT then six-step FFT, N=2^24 on a routed 2x8 "
           "fat tree: no numerics, so machine and comm bookkeeping is all")
    N = 1 << 24

    def setup(self) -> Out:
        # no signal of its own: ratio_vs_numpy divides by the FFT of a
        # 2^18 complex128 vector, as a machine-speed reference
        self.numpy_signal = _signal(self.seed, 1 << 18, np.complex128)
        self.spec = routed_multinode_p100(2, 8, radix=36, oversubscription=2.0)
        self.plan = FmmFftPlan.create(
            N=self.N, G=self.spec.num_devices, dtype=np.complex128,
            build_operators=False,
            **default_params(self.N, self.spec.num_devices))
        return self.op(0)

    def op(self, i: int) -> Out:
        fmm = self.Cluster(self.spec, execute=False)
        FmmFftDistributed(self.plan, fmm, comm_algorithm="auto").run()
        fft = self.Cluster(self.spec, execute=False)
        Distributed1DFFT(self.N, fft, comm_algorithm="auto").run()
        return Out(clusters=(fmm, fft))

    def check(self, out: Out) -> bool:
        return self.check_clusters(out)


class ServeWorkload(Workload):
    """One ``sched.run(trace)`` on a fresh cluster per op, warm cache."""

    requests = 0
    rate = 2000.0
    #: traces cycled through, op i serving trace i mod n_traces; trace 0
    #: is synthetic_workload(requests, rate, seed) and carries the
    #: simulated metrics, the others steady the host-time medians
    n_traces = 1
    #: requests of trace 0 the end-of-run sanitizer pass serves (the
    #: hazard search is quadratic in ledger length)
    sanitize_requests = 24

    def make_spec(self):
        raise NotImplementedError

    def make_faults(self):
        return None

    def setup(self) -> Out:
        self.numpy_signal = _signal(self.seed, 1 << 18, np.complex128)
        self.spec = self.make_spec()
        self.traces = [
            synthetic_workload(self.requests, rate=self.rate,
                               seed=self.seed + 7919 * t)
            for t in range(1 if self.light else self.n_traces)
        ]
        self.n_traces = len(self.traces)
        self.warmup = max(self.warmup, self.n_traces)
        self.cache = PlanCache(self.spec, wisdom=Wisdom())
        return self.op(0)

    def serve(self, trace, faults=None, **sched_kwargs) -> Out:
        """One scheduler run over ``trace`` on a fresh cluster."""
        cl = self.Cluster(self.spec, execute=False, faults=faults)
        sched = ServeScheduler(cl, Batcher(self.cache, max_batch=8),
                               max_inflight=2, retry_budget=2,
                               **{"replay": True, **sched_kwargs})
        c = self.cache
        before = (c.plan_hits, c.plan_misses, c.searches)
        sched.run(trace)
        during = tuple(now - was for now, was in zip(
            (c.plan_hits, c.plan_misses, c.searches), before))
        return Out(clusters=(cl,), sched=sched, cache=during)

    def op(self, i: int) -> Out:
        out = self.serve(self.traces[i % self.n_traces], self.make_faults())
        out.key = i % self.n_traces
        return out

    def check(self, out: Out) -> bool:
        s, n = out.sched, self.requests
        shed = sum(s.queue.shed.values())
        retry_shed = sum(s.retry_shed.values())
        accounted = (
            len(s.completed) + shed + retry_shed == n
            and sum(s.queue.admitted.values())
            == n - shed + sum(s.retried.values())
        )
        if out.key == 0:
            late = sum(c.latency > s.deadline_targets[c.request.deadline]
                       for c in s.completed)
            self.requests_attempted = n
            self.requests_failed = (shed + retry_shed + late) if accounted else n
        return self.record("accounting", accounted) & self.check_clusters(out)

    def finish(self) -> None:
        short = self.serve(self.traces[0][:self.sanitize_requests],
                           self.make_faults())
        self.check_static(short.clusters[0])


class ServeSteady(ServeWorkload):
    name = "serve_steady_8xP100"
    # serve scheduling + ir replay dominate; the cold start (wisdom
    # search, plan build, capture, certify) lands in setup_s, so work
    # moved into set-up shows
    why = ("192-request Poisson trace at 2000 req/s through the scheduler on "
           "a warm cache: serve scheduling and ir replay dominate")
    requests = 192
    # one trace varies by about 1% of host time from seed to seed; four
    # keep that out of the medians
    n_traces = 4

    def make_spec(self):
        return preset("8xP100")


class ServeNodeLoss(ServeWorkload):
    name = "serve_nodeloss_r2x4"
    # the same serve/ir/comm layers used the other way: replay refuses
    # a faulty cluster so every batch is interpreted, retries fire,
    # requests are shed; a steady-state gain that costs the fault path
    # shows here
    why = ("48-request trace on a routed 2x4 fabric that loses node 1 at "
           "15 ms: every batch interpreted, retries fire, requests shed")
    requests = 48
    # how many requests arrive before the loss varies with the seed, and
    # host time with it (about 4.5% between single traces); the median
    # over sixteen traces moves by about 1.5%
    n_traces = 16
    sanitize_requests = 48

    def make_spec(self):
        return routed_multinode_p100(2, gpus_per_node=4, radix=4)

    def make_faults(self):
        return FaultInjector(self.spec, seed=7, transient_rate=0.01,
                             scheduled=node_loss(self.spec, 1, 15e-3))


WORKLOADS = {w.name: w for w in (ExecFmmFft, ExecFft1d, HostSingle, SimPair,
                                 ServeSteady, ServeNodeLoss)}

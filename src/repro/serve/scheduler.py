"""Discrete-event serving loop with interleaved in-flight batches.

The scheduler owns simulated wall-clock time.  It admits arrivals into
the queue, forms batches through the batcher whenever an issue slot is
free, and launches each batch onto the *shared* virtual cluster:

- every batch runs in its own buffer namespace (``serve.b<id>.*``), so
  concurrent schedules touch provably disjoint buffers and the hazard
  sanitizer can certify the interleaving;
- a synthetic release :class:`~repro.machine.stream.Event` (``op=-1``,
  so it adds no ghost wait edges) gates each batch's input-consuming
  stages at ``issue_time + setup_time`` — plan search and operator
  build are host-side costs the device timeline must respect;
- batches are issued with ``barrier=False``, so batch B's early
  communication (halo exchange, M2L broadcasts) overlaps batch A's
  trailing compute on the in-order streams — cross-batch overlap on
  top of the paper's within-transform overlap.

IR replay: the first batch at each ``(plan_key, comm_algorithm, k)``
configuration is issued through :func:`repro.ir.capture.capture` — the
normal eager run with the engine's capture tape open — then certified
(hazards + prealloc) and stored in the plan cache's graph tier.  Every
warm batch replays the compiled graph instead of re-constructing the
pipeline: buffers are renamed into a reusable slot namespace
(``serve.r<slot>``, slots reused only after their previous batch
finished, so the hazard sanitizer still certifies the interleaving),
regions are re-stamped ``serve/b<bid>/...`` truthfully, and the ledger
records are bit-identical to what the eager issue would have appended
(replay re-issues the taped steps through the same engine halves).
Fault injection changes none of this: graphs carry fault-free prices
and the engine applies faults — stretched durations, retries,
:class:`~repro.machine.retry.CommFailure` — as it issues each step, eager
or replayed.  A zero-capacity cache disables the graph tier with the
rest of the cache, and ``replay=False`` restores the pure interpreted
path (the benchmark's baseline arm).

With ``max_inflight=1`` the loop degrades to strict one-at-a-time
serving (the baseline arm); the default 2 keeps one batch's comm under
another's compute.

Graceful degradation: when the cluster carries a fault injector, a
batch whose communication exhausts its retry budget (or hits a
permanent fault) raises :class:`~repro.machine.retry.CommFailure`.  The
scheduler absorbs it — the batch's partial schedule stays on the
ledger (the engines really were occupied), its requests re-enter the
admission queue with a bounded per-request retry budget, and requests
already past their deadline target are shed instead of retried.
Re-issued batches replan their collective algorithm against the
injector's *degraded* topology via the ``auto`` selector, so a run
with a throttled link switches algorithms instead of hammering the
dead link.  All retry/shed accounting lands in
:class:`~repro.serve.stats.ServeReport`.

Every run also streams *live* telemetry: the scheduler owns (or is
given) a :class:`~repro.obs.telemetry.MetricsRegistry`, wires it into
the cluster's comm layer, the admission queue, the plan cache, and the
fault injector, and feeds per-completion latency/deadline series plus a
windowed :class:`~repro.obs.slo.SloTracker` — all stamped with
simulated time, so instrumented runs replay bit-identically.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.machine.retry import CommFailure
from repro.comm.tuning import choose_algorithm
from repro.core.distributed import FmmFftDistributed
from repro.core.single import fmmfft_batched
from repro.ir.capture import capture
from repro.ir.executor import ReplayExecutor
from repro.machine.cluster import VirtualCluster
from repro.machine.stream import Event
from repro.obs.slo import SloTracker
from repro.obs.telemetry import MetricsRegistry
from repro.serve.batcher import Batch, Batcher
from repro.serve.queue import AdmissionQueue
from repro.serve.request import (
    DEADLINE_CLASSES,
    DEADLINE_TARGETS,
    CompletedRequest,
    TransformRequest,
)
from repro.util.validation import ParameterError


class ServeScheduler:
    """Run an open-loop request trace to completion on one cluster.

    Parameters
    ----------
    cluster:
        Timing-only :class:`VirtualCluster` (execute mode is rejected —
        batched numerics run host-side via
        :func:`repro.core.single.fmmfft_batched` when
        ``compute_outputs`` is set).
    batcher:
        Batch former (owns the plan cache).
    queue:
        Admission queue; None builds a default 64-slot queue.
    max_inflight:
        Concurrent in-flight batches on the cluster (>= 1).
    compute_outputs:
        Compute request payloads host-side with the batched kernel;
        requires payloads on every request and a cache built with
        ``build_operators=True``.  Outputs land in :attr:`outputs`.
    retry_budget:
        Times a request survives its batch failing before being shed
        (fault-injected runs only).
    deadline_targets:
        Per-class latency targets (seconds); defaults to
        :data:`~repro.serve.request.DEADLINE_TARGETS`.  A failed
        request already past its target is shed rather than retried,
        and the stats layer counts completions past it as deadline
        misses.
    telemetry:
        The :class:`~repro.obs.telemetry.MetricsRegistry` the run
        streams into.  None builds a fresh enabled registry (pass
        ``MetricsRegistry(enabled=False)`` for the zero-instrumentation
        arm).  The scheduler wires it into the cluster, the queue, the
        plan cache, and any installed fault injector, so every
        emission point shares one registry.
    slo:
        The :class:`~repro.obs.slo.SloTracker` fed per completion;
        None builds one with default objectives over ``telemetry``.
    replay:
        True (default) captures each batch configuration's op graph on
        first issue and replays it for warm batches (see the module
        docstring); False always re-interprets — the baseline arm
        ``benchmarks/bench_host.py`` measures replay against.
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        batcher: Batcher,
        queue: AdmissionQueue | None = None,
        max_inflight: int = 2,
        compute_outputs: bool = False,
        retry_budget: int = 2,
        deadline_targets: dict[str, float] | None = None,
        telemetry: MetricsRegistry | None = None,
        slo: SloTracker | None = None,
        replay: bool = True,
    ):
        if cluster.execute:
            raise ParameterError(
                "serve scheduling is timing-only; use compute_outputs for numerics"
            )
        if cluster.G != batcher.cache.spec.num_devices:
            raise ParameterError(
                f"cluster G={cluster.G} != cache spec G="
                f"{batcher.cache.spec.num_devices}"
            )
        if max_inflight < 1:
            raise ParameterError(f"max_inflight must be >= 1, got {max_inflight}")
        if compute_outputs and not batcher.cache.build_operators:
            raise ParameterError(
                "compute_outputs requires a PlanCache(build_operators=True)"
            )
        if retry_budget < 0:
            raise ParameterError(f"retry_budget must be >= 0, got {retry_budget}")
        if deadline_targets is not None and set(deadline_targets) != set(
            DEADLINE_CLASSES
        ):
            raise ParameterError(
                f"deadline_targets must cover {DEADLINE_CLASSES}, "
                f"got {sorted(deadline_targets)}"
            )
        self.cluster = cluster
        self.batcher = batcher
        self.queue = queue if queue is not None else AdmissionQueue()
        self.max_inflight = max_inflight
        self.compute_outputs = compute_outputs
        self.retry_budget = retry_budget
        self.deadline_targets = (dict(DEADLINE_TARGETS)
                                 if deadline_targets is None
                                 else dict(deadline_targets))
        self.faults = cluster.faults
        #: the run's live metrics registry, shared by every emission
        #: point (cluster comm layer, queue, cache, fault injector)
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        cluster.telemetry = self.telemetry
        self.queue.attach_telemetry(self.telemetry)
        batcher.cache.attach_telemetry(self.telemetry)
        if self.faults is not None:
            self.faults.attach_telemetry(self.telemetry)
        #: windowed burn-rate tracker fed at every completion
        self.slo = slo if slo is not None else SloTracker(self.telemetry)
        #: rid -> output vector (only with ``compute_outputs``)
        self.outputs: dict[int, np.ndarray] = {}
        #: per-batch telemetry: {bid, k, N, release, finish, setup_time,
        #: failed, replayed}
        self.batches: list[dict] = []
        self.completed: list[CompletedRequest] = []
        #: batches that raised CommFailure
        self.failed_batches = 0
        #: per-class counts of requests re-enqueued after a batch failure
        self.retried: dict[str, int] = {c: 0 for c in DEADLINE_CLASSES}
        #: per-class counts shed on retry (budget or deadline exceeded)
        self.retry_shed: dict[str, int] = {c: 0 for c in DEADLINE_CLASSES}
        self._attempts: dict[int, int] = {}
        self._retry_pending: list[tuple[float, TransformRequest]] = []
        #: replay enabled (off automatically with a zero-capacity cache —
        #: see the module docstring)
        self.replay = replay
        #: replay-slot occupancy: finish time of the last batch replayed
        #: into ``serve.r<slot>``; a slot is reusable once that batch
        #: finished before the next batch's release
        self._slot_free: list[float] = []
        #: compiled executors keyed by (graph_key, slot)
        self._executors: dict[tuple, ReplayExecutor] = {}
        #: batches issued via graph replay (mirrors ``cache.replays``)
        self.replayed_batches = 0

    # -- one batch ----------------------------------------------------

    def _comm_algorithm(self, batch: Batch, release: float) -> str:
        """The batch's collective algorithm, replanned under faults.

        While any scheduled fault window is active at release time, the
        cached choice (tuned on the healthy machine) is re-derived by
        the ``auto`` selector against the injector's degraded topology —
        a throttled or flapping link changes which plan is cheapest.
        """
        if self.faults is None or not self.faults.active(release):
            return batch.comm_algorithm
        payload = (batch.plan.N * np.dtype(batch.plan.dtype).itemsize
                   / max(1, self.cluster.G))
        return choose_algorithm(self.faults.degraded_spec(release),
                                "alltoall", payload)

    def _issue(self, batch: Batch, now: float) -> float:
        """Launch one batch on the cluster; returns its finish time.

        A :class:`CommFailure` mid-batch is absorbed: the partial
        schedule stays on the ledger, the batch is marked failed, and
        each of its requests is either re-enqueued (within its retry
        budget and deadline target) or shed.
        """
        cl = self.cluster
        release = now + batch.setup_time
        rel = Event(time=release, label=f"serve.release.b{batch.bid}")
        start_idx = len(cl.ledger)
        algo = self._comm_algorithm(batch, release)
        cache = self.batcher.cache
        replayable = self.replay and cache.capacity > 0
        gkey = (batch.plan.plan_key() + (algo, batch.k)
                if replayable else None)
        graph = cache.graph_for(gkey) if replayable else None
        try:
            if graph is not None:
                finish = self._replay_batch(graph, gkey, batch, release,
                                            start_idx)
            else:
                finish = self._interpret_batch(batch, rel, algo, gkey,
                                               start_idx, release)
        except CommFailure as e:
            return self._fail(batch, release, start_idx, e)
        if self.compute_outputs:
            host_plan = self.batcher.cache.host_plan_for(
                batch.plan.N, batch.plan.dtype
            )
            xs = np.stack([np.asarray(r.x) for r in batch.requests])
            ys = fmmfft_batched(xs, host_plan)
            for j, r in enumerate(batch.requests):
                self.outputs[r.rid] = ys[j]
        self.batches.append(dict(
            bid=batch.bid, k=batch.k, N=batch.plan.N, release=release,
            finish=finish, setup_time=batch.setup_time, failed=False,
            replayed=graph is not None,
        ))
        tel = self.telemetry
        tel.histogram("serve.batch_latency").observe(
            max(0.0, finish - now), t=finish)
        for r in batch.requests:
            self.completed.append(CompletedRequest(
                request=r, batch_id=batch.bid, batch_size=batch.k,
                release=release, finish=finish,
            ))
            lat = finish - r.arrival
            tel.histogram("serve.request_latency",
                          {"class": r.deadline}).observe(lat, t=finish)
            ok = lat <= self.deadline_targets[r.deadline]
            if not ok:
                tel.counter("serve.deadline_miss",
                            {"class": r.deadline}).inc(1.0, t=finish)
            self.slo.record(r.deadline, finish, ok)
        return finish

    def _interpret_batch(self, batch: Batch, rel: Event, algo: str,
                         gkey: tuple | None, start_idx: int,
                         release: float) -> float:
        """Issue one batch through the interpreted pipeline.

        With ``gkey`` set, the engine's capture tape is open for the
        run — the same eager issue, also written down — and the captured
        graph is certified and stored so the next batch at this
        configuration replays.  Returns the batch finish time.
        """
        cl = self.cluster

        def _run(cl):
            FmmFftDistributed(
                batch.plan, cl, comm_algorithm=algo,
                ns=f"serve.b{batch.bid}", batch=batch.k,
            ).run(after=[rel], barrier=False)

        with cl.region("serve"), cl.region(f"b{batch.bid}"):
            if gkey is None:
                _run(cl)
            else:
                graph, _ = capture(
                    _run, cl, release_event=rel, pipeline="fmmfft",
                    key=gkey, buffer_prefix=f"serve.b{batch.bid}")
        if gkey is not None:
            graph.certify(cl.spec)
            self.batcher.cache.put_graph(gkey, graph)
        return max((r.end for r in islice(cl.ledger, start_idx, None)),
                   default=release)

    def _replay_batch(self, graph, gkey: tuple, batch: Batch,
                      release: float, start_idx: int) -> float:
        """Replay a certified graph for one warm batch.

        Picks the lowest slot whose previous batch finished by this
        batch's release (so same-name buffer intervals never overlap),
        reusing the slot's compiled executor when one exists.  Returns
        the batch finish time; a batch that dies mid-replay holds its
        slot until the time it died (its partial records live there).
        """
        slot = next((s for s, t in enumerate(self._slot_free)
                     if t <= release), None)
        if slot is None:
            self._slot_free.append(0.0)
            slot = len(self._slot_free) - 1
        ex = self._executors.get((gkey, slot))
        if ex is None:
            ex = ReplayExecutor(
                graph, self.cluster,
                rename=(graph.meta["buffer_prefix"], f"serve.r{slot}"),
                region_strip=2)
            self._executors[(gkey, slot)] = ex
        try:
            finish = ex.run(release=release,
                            region_prefix=f"serve/b{batch.bid}/")
        except CommFailure as e:
            self._slot_free[slot] = self._fail_time(e, release, start_idx)
            raise
        self._slot_free[slot] = finish
        self.replayed_batches += 1
        self.batcher.cache.count_replay()
        return finish

    def _fail_time(self, exc: CommFailure, release: float,
                   start_idx: int) -> float:
        """When a batch died: its failure, or its last partial record."""
        return max(exc.time, release, *(
            r.end for r in islice(self.cluster.ledger, start_idx, None)))

    def _fail(self, batch: Batch, release: float, start_idx: int,
              exc: CommFailure) -> float:
        """Account one failed batch; returns the time it died."""
        fail_time = self._fail_time(exc, release, start_idx)
        self.failed_batches += 1
        tel = self.telemetry
        tel.counter("serve.batch_failed").inc(1.0, t=fail_time)
        self.batches.append(dict(
            bid=batch.bid, k=batch.k, N=batch.plan.N, release=release,
            finish=fail_time, setup_time=batch.setup_time, failed=True,
            replayed=False,
        ))
        for r in batch.requests:
            n = self._attempts.get(r.rid, 0) + 1
            self._attempts[r.rid] = n
            late = fail_time - r.arrival > self.deadline_targets[r.deadline]
            if exc.permanent or n > self.retry_budget or late:
                self.retry_shed[r.deadline] += 1
                tel.counter("serve.retry_shed",
                            {"class": r.deadline}).inc(1.0, t=fail_time)
                # a shed request is an availability miss, not a latency
                # sample — feed the SLO, skip the latency histogram
                self.slo.record(r.deadline, fail_time, False)
            else:
                self.retried[r.deadline] += 1
                tel.counter("serve.retry",
                            {"class": r.deadline}).inc(1.0, t=fail_time)
                self._retry_pending.append((fail_time, r))
        return fail_time

    # -- the event loop -----------------------------------------------

    def run(self, requests: list[TransformRequest]) -> list[CompletedRequest]:
        """Serve a trace to completion; returns completions in finish order.

        Shed requests (queue full at arrival) are counted on the queue
        and never complete.  The trace is replay-deterministic: same
        requests, same cluster spec, same cache state, same knobs →
        bit-identical ledger.
        """
        if self.compute_outputs and any(r.x is None for r in requests):
            raise ParameterError("compute_outputs requires payloads on every request")
        pending = sorted(requests, key=lambda r: (r.arrival, r.rid))
        inflight: list[float] = []          # finish times of issued batches
        now, i = 0.0, 0
        while True:
            # re-admit retry survivors first: their failure time precedes
            # any same-instant fresh arrival in the service's causal order
            self._retry_pending.sort(key=lambda e: (e[0], e[1].rid))
            while self._retry_pending and self._retry_pending[0][0] <= now:
                _, r = self._retry_pending.pop(0)
                self.queue.offer(r, now)
            while i < len(pending) and pending[i].arrival <= now:
                self.queue.offer(pending[i], now)
                i += 1
            inflight = [f for f in inflight if f > now]
            while len(inflight) < self.max_inflight and len(self.queue):
                batch = self.batcher.next_batch(self.queue, now)
                inflight.append(self._issue(batch, now))
            if (i >= len(pending) and not len(self.queue) and not inflight
                    and not self._retry_pending):
                break
            horizon = list(inflight)
            if i < len(pending):
                horizon.append(pending[i].arrival)
            if self._retry_pending:
                horizon.append(min(t for t, _ in self._retry_pending))
            now = min(t for t in horizon if t > now)
        self.completed.sort(key=lambda c: (c.finish, c.request.rid))
        return self.completed

    @property
    def wall_time(self) -> float:
        """Last completion time of the serviced trace (0.0 if none ran)."""
        return max((c.finish for c in self.completed), default=0.0)

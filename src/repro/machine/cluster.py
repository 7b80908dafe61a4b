"""The virtual cluster execution engine.

:class:`VirtualCluster` is what every distributed algorithm in the
library runs on.  It provides:

- ``launch`` — enqueue a compute kernel on a device stream; simulated
  duration comes from the roofline (Eq. 3) + launch latency, and the
  optional ``fn`` performs the *real* NumPy computation on the device's
  memory dict.
- ``sendrecv`` — point-to-point transfer occupying both endpoints' comm
  streams: a lone transfer (a halo) at the spec's worst-path latency
  and pair bandwidth, a message of a priced plan at the prices it
  carries (``spec.p2p_time`` either way).
- ``alltoall`` / ``allgather`` — the legacy flat ("bulk") collectives
  costed with the topology's effective bandwidth
  (``spec.collective_time``).  Pipelines issue collectives through
  :mod:`repro.comm`, which either delegates here (``algorithm="bulk"``,
  once per chunk) or decomposes them into explicit per-round
  ``sendrecv`` message plans.  Link facts are read off the spec, which
  tabulates them once per spec object; the engine memoizes none.
- events/streams — explicit dependencies, so overlap is expressed the
  same way the paper's CUDA implementation expresses it.

Orchestration is sequential Python: the coordinator issues ops in a
valid serialization order, ``fn`` closures run immediately (so data is
always ready), and the event algebra reconstructs what the *parallel*
timeline would have been.

Every op additionally declares its buffer read/write sets (``reads`` /
``writes``, device-local buffer names; sendrecv reads on the source and
writes on the destination) and records which events it waited on.  The
declarations cost nothing at simulation time but let
:mod:`repro.analysis.hazards` prove the reconstructed parallel timeline
race-free — or pinpoint the missing dependency when it is not.

One engine, two halves per primitive.  Each public primitive is a
*pricing* half — argument checks, roofline/link duration, buffer
qualification, region path, dependency resolution from the caller's
events — followed by an *issue* half (``_issue_*``): start = max(stream
clocks, dependency time), the fault injector's verdict on each attempt
of a transfer (timed-out ``!fail`` records, backoff,
:class:`~repro.machine.retry.CommFailure`), fault scaling, ledger
append, ``fn``, clock advance, per-message telemetry.  Prices are
fault-free; everything a fault does happens at issue, so a step priced
once meets whatever faults are live when it is issued.  The eager call
is price then issue;
:class:`repro.ir.executor.ReplayExecutor` hands steps priced once, at
capture, to the very same issue halves, so there is no second copy of
the stream/event algebra to keep in step.  While :meth:`taping` is
open the pricing halves also append each priced step to a
:class:`~repro.machine.tape.Tape` — capture is the tape the eager run
writes, not a proxy in front of it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.machine.device import Device
from repro.machine.ledger import Ledger, OpRecord
from repro.machine.retry import DEFAULT_RETRY, CommFailure
from repro.machine.roofline import op_time
from repro.machine.spec import ClusterSpec
from repro.machine.stream import Event
from repro.machine.tape import (
    OP_ACTION,
    OP_BARRIER,
    OP_COLL,
    OP_COLL1,
    OP_HOST,
    OP_LAUNCH,
    OP_LOG,
    OP_P2P,
    OP_P2P_SELF,
    CaptureError,
    IRNode,
    Tape,
)
from repro.machine.trace import ExecutionTrace
from repro.util.validation import ParameterError

_INF = float("inf")


def _check_amounts(name: str, **amounts: float) -> None:
    """Reject an op whose name is empty or whose work/byte counts are
    not finite and >= 0 (NaN fails the comparison too)."""
    if not name:
        raise ParameterError("ops need a non-empty stage name")
    for what, v in amounts.items():
        if not 0.0 <= v < _INF:
            raise ParameterError(
                f"op {name!r}: {what} must be finite and >= 0, got {v!r}")


class VirtualCluster:
    """G simulated devices wired by an interconnect graph.

    Parameters
    ----------
    spec:
        The node description (devices + topology).
    execute:
        True runs real NumPy compute alongside the timing simulation;
        False records timing only (shape-determined), enabling sweeps at
        sizes where Python-side numerics would be prohibitive.
    faults:
        Optional :class:`~repro.faults.FaultInjector`.  When installed,
        stragglers/degraded links stretch recorded op durations and the
        issue halves ask it for the outcome of every attempt of a
        transfer (retrying under ``retry``).  With no injector — or an
        injector that never fires — every duration is bit-identical to
        the fault-free path.
    retry:
        Optional :class:`~repro.machine.retry.RetryPolicy` governing
        the timeout/backoff of a failed attempt and the failed-attempt
        budget of one comm-layer call.  Defaults to ``DEFAULT_RETRY``
        whenever ``faults`` is installed.
    telemetry:
        Optional :class:`~repro.obs.telemetry.MetricsRegistry`.  When
        installed, the engine emits ``comm.bytes`` /
        ``comm.retry`` / ``comm.measured_vs_model`` series (stamped
        with simulated time).  None (the default) keeps the bare
        cluster's hot path free of any instrumentation.
    """

    def __init__(self, spec: ClusterSpec, execute: bool = True,
                 faults=None, retry=None, telemetry=None):
        self.spec = spec
        self.execute = execute
        if faults is not None and faults.spec.num_devices != spec.num_devices:
            raise ParameterError(
                f"fault injector built for {faults.spec.num_devices} devices, "
                f"cluster has {spec.num_devices}"
            )
        if retry is not None and faults is None:
            raise ParameterError("retry policy given without a fault injector")
        self.faults = faults
        if faults is not None and retry is None:
            retry = DEFAULT_RETRY
        self.retry = retry
        #: timed-out attempts charged to the open comm-layer call (the
        #: retry budget's spend; :meth:`log_comm` or a failure closes it)
        self._failed_attempts = 0
        #: live metrics registry, or None (serve installs one)
        self.telemetry = telemetry
        self.devices = [
            Device(g, spec.device, execute=execute) for g in range(spec.num_devices)
        ]
        self.ledger = Ledger()
        #: every device's comm.tx then comm.rx stream (a collective
        #: occupies them all)
        self._comm_streams = ([d.stream("comm.tx") for d in self.devices]
                              + [d.stream("comm.rx") for d in self.devices])
        self._region_path = ""
        #: one entry per repro.comm collective call (algorithm, payload,
        #: predicted time) — joined against the ledger by obs.metrics;
        #: appended through :meth:`log_comm`
        self.comm_log: list[dict] = []
        #: the open capture tape, or None (see :meth:`taping`)
        self._tape: Tape | None = None
        #: tape steps ever recorded on this cluster (``Event.src`` base)
        self._seq = 0
        #: (registry, {(link_class, label): (counter, histogram)})
        self._series_memo: tuple = (None, {})

    # -- basic accessors ----------------------------------------------

    @property
    def G(self) -> int:
        return self.spec.num_devices

    def dev(self, g: int) -> Device:
        return self.devices[g]

    def wall_time(self) -> float:
        """Latest clock across all streams of all devices."""
        return max(d.max_clock() for d in self.devices)

    def reset_time(self) -> None:
        """Zero all stream clocks and clear the ledger (memory persists).

        An installed fault injector is reset too (reseeded, online
        transient events dropped), so run → reset → run replays
        bit-identically.
        """
        for d in self.devices:
            d.reset_time()
        self.ledger = Ledger()
        self._failed_attempts = 0
        if self.faults is not None:
            self.faults.reset()

    def trace(self) -> ExecutionTrace:
        return ExecutionTrace(self.ledger, self.spec)

    def sanitize(self) -> None:
        """Run the hazard sanitizer over the ledger; raise on any finding.

        Strict mode for tests and ``--sanitize`` CLI runs: raises
        :class:`~repro.analysis.hazards.HazardError` if the recorded
        schedule has data hazards or structural defects.
        """
        from repro.analysis.hazards import find_hazards

        find_hazards(self.ledger).raise_if_any()

    # -- region annotation --------------------------------------------

    @property
    def region_path(self) -> str:
        """The '/'-joined path of the active region scopes ('' if none)."""
        return self._region_path

    @contextmanager
    def region(self, name: str) -> Iterator["VirtualCluster"]:
        """Scope ops under a pipeline-stage region (nestable).

        Every op issued inside the ``with`` block is stamped with the
        full region path, e.g.::

            with cl.region("fmmfft"):
                with cl.region("fmm"):
                    cl.launch(...)        # region == "fmmfft/fmm"

        Regions are telemetry only — they never affect timing, events,
        or the hazard analysis.  The metrics engine in :mod:`repro.obs`
        rolls ledger records up by this path.
        """
        if not name or "/" in name:
            raise ParameterError(
                f"region name must be a non-empty path segment, got {name!r}"
            )
        outer = self._region_path
        self._region_path = f"{outer}/{name}" if outer else name
        try:
            yield self
        finally:
            self._region_path = outer

    # -- capture ---------------------------------------------------------

    @contextmanager
    def taping(self, release_event: Event | None = None) -> Iterator[Tape]:
        """Open a capture tape for the ``with`` block; yields the tape.

        Every primitive issued inside is an ordinary eager op that is
        also appended to the tape as a priced step (see
        :mod:`repro.machine.tape`).  ``release_event`` marks the external
        dependency replays substitute.  A fault injector changes nothing
        about the tape: steps are priced fault-free and name their
        producers, and faults act only in the issue halves.
        """
        if self._tape is not None:
            raise CaptureError("a capture is already open on this cluster")
        tape = self._tape = Tape(self._seq, release_event)
        try:
            yield tape
        finally:
            self._tape = None
            self._seq += len(tape.nodes)

    def _taped(self, op: str, after: Sequence[Event] = (), advances=(),
               reads: Sequence[str] = (), writes: Sequence[str] = (),
               uid0: int = -1, **fields) -> int:
        """Append the step being priced to the open tape; returns the
        ``Event.src`` its completion events carry."""
        tape = self._tape
        return tape.add(
            IRNode(op=op, reads=tuple(reads), writes=tuple(writes),
                   region=self._region_path, deps=tape.deps(after), **fields),
            advances, uid0)

    # -- pricing helpers -----------------------------------------------

    def _device(self, g: int, what: str = "device") -> Device:
        if not 0 <= g < len(self.devices):
            raise ParameterError(
                f"{what} id {g!r} out of range 0..{len(self.devices) - 1}")
        return self.devices[g]

    @staticmethod
    def _qualify(g: int, keys: Sequence[str]) -> tuple:
        """Tag device-local buffer names with their device id."""
        return tuple((g, k) for k in keys)

    @staticmethod
    def _wait(after: Sequence[Event]) -> tuple:
        """``(latest completion time, uids of the real producers)`` of a
        dependency list.  ``None`` entries are rejected: a silently
        skipped dependency is exactly the bug the sanitizer exists for.
        """
        t = 0.0
        uids = []
        for ev in after:
            if ev is None:
                raise ValueError(
                    "None event in dependency list; filter absent "
                    "dependencies at the call site instead of passing None")
            if ev.time > t:
                t = ev.time
            if ev.op >= 0:
                uids.append(ev.op)
        if t == _INF:
            raise ValueError("dependency list holds an event at t=inf")
        return t, tuple(uids)

    def latest(self, *events: Event) -> Event:
        """The event that completes last (the first of them on a tie).

        For a consumer that must follow several producers but records
        one ``waits`` edge.  Under an open tape the result names every
        candidate, so the captured step is ordered after them all and a
        replay gives the edge to whichever finishes last *then* — the
        comparison made here holds only for this run's fault history.
        """
        best = events[0]
        for ev in events:
            if ev.time > best.time:
                best = ev
        if self._tape is None or len(events) == 1:
            return best
        among = tuple(c for ev in events
                      for c in (ev.src if type(ev.src) is tuple else (ev,)))
        return Event(best.time, best.label, op=best.op, src=among)

    def stream_event(self, g: int, stream: str, label: str) -> Event:
        """A synthetic event at a stream's current clock.  It names the
        step that set that clock (when a tape is open), so a consumer is
        ordered after the true producer, but carries no ledger uid, so
        it adds no wait edge.
        """
        st = self._device(g).stream(stream)
        src = -1 if self._tape is None else self._tape.last_on(st)
        return Event(st.clock, label, src=src)

    # -- compute -------------------------------------------------------

    def launch(
        self,
        g: int,
        name: str,
        kind: str,
        flops: float,
        mops: float,
        dtype,
        stream: str = "compute",
        after: Sequence[Event] = (),
        fn: Callable[["VirtualCluster"], None] | None = None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> Event:
        """Enqueue one kernel on device ``g``.

        Returns the completion :class:`Event`.  ``fn(cluster)`` runs
        immediately when executing; its cost is *not* measured — the
        simulated duration is the roofline time plus launch latency.
        ``reads``/``writes`` declare the device-local buffers the kernel
        touches, for the hazard sanitizer.
        """
        dev = self._device(g)
        _check_amounts(name, flops=flops, mops=mops)
        dur = dev.spec.launch_latency + op_time(dev.spec, flops, mops, dtype, kind=kind)
        st = dev.stream(stream)
        t_dep, waits = self._wait(after)
        src = -1 if self._tape is None else self._taped(
            OP_LAUNCH, after, (st,), reads, writes, name=name, kind=kind,
            device=g, stream=stream, duration=dur, flops=flops, mops=mops,
            fn=fn)
        end, uid = self._issue_launch(
            st, g, stream, kind, name, dur, flops, mops,
            self._qualify(g, reads), self._qualify(g, writes), fn,
            t_dep, waits, self._region_path)
        return Event(end, st.label, op=uid, src=src)

    def _issue_launch(self, st, g, stream, kind, name, dur, flops, mops,
                      reads, writes, fn, t_dep, waits, region) -> tuple:
        start = st.clock
        if t_dep > start:
            start = t_dep
        if self.faults is not None:
            s = self.faults.compute_scale(g, start)
            if s != 1.0:
                dur *= s
        uid = self.ledger.append_stamped(OpRecord(
            device=g, stream=stream, kind=kind, name=name,
            start=start, duration=dur, flops=flops, mops=mops,
            reads=reads, writes=writes, waits=waits, region=region))
        if fn is not None and self.execute:
            fn(self)
        end = st.clock = start + dur
        return end, uid

    def host_action(
        self, fn: Callable[["VirtualCluster"], None] | None
    ) -> None:
        """Run a host-side data action with no ledger or timing footprint.

        For execute-mode data movement that is *not* an operation the
        schedule models (e.g. the FMM's halo stash, which mirrors data
        the comm layer is separately charged for).  Unlike
        :meth:`host_op` nothing is appended to the ledger, so existing
        ledgers and fingerprints are unchanged.  Routing such actions
        through this hook (instead of bare ``if cl.execute:`` blocks)
        is what puts them on the capture tape, so a replay re-runs them.
        """
        if self._tape is not None:
            self._taped(OP_ACTION, name="host_action", fn=fn)
        self._issue_action(fn, 0.0, (), "")

    def _issue_action(self, fn, t_dep, waits, region) -> tuple:
        if fn is not None and self.execute:
            fn(self)
        return 0.0, None

    def host_op(
        self,
        g: int,
        name: str,
        fn: Callable[["VirtualCluster"], None] | None = None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> Event:
        """Zero-cost bookkeeping op (plan setup, pointer swaps): a
        ``host``-kind launch of no work, duration or dependencies."""
        st = self._device(g).stream("compute")
        _check_amounts(name)
        src = -1 if self._tape is None else self._taped(
            OP_HOST, (), (), reads, writes, name=name, kind="host", device=g,
            stream="compute", fn=fn)
        end, uid = self._issue_launch(
            st, g, "compute", "host", name, 0.0, 0.0, 0.0,
            self._qualify(g, reads), self._qualify(g, writes), fn,
            0.0, (), self._region_path)
        return Event(end, name, op=uid, src=src)

    # -- point-to-point communication -----------------------------------

    def sendrecv(
        self,
        src: int,
        dst: int,
        nbytes: float,
        name: str,
        after: Sequence[Event] = (),
        fn: Callable[["VirtualCluster"], None] | None = None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
        bandwidth: float | None = None,
        latency: float | None = None,
    ) -> Event:
        """P2P transfer src -> dst on both comm streams.

        ``reads`` are buffers on the source device, ``writes`` buffers on
        the destination.  ``bandwidth``/``latency`` override the spec's
        pair values — :mod:`repro.comm` uses them to charge per-message
        link contention and per-link latency; left at ``None`` the
        transfer is costed exactly as before (worst-case link latency +
        full pair bandwidth).  ``comm_bytes`` records the full message
        size once, on the source device.

        A self-send (``src == dst``, including every G=1 transfer) is a
        local copy: it costs nothing and moves no interconnect bytes, but
        still appends a zero-duration ledger record carrying its
        read/write declares so the hazard sanitizer and G=1 traces see
        it (``fn`` still runs, so G=1 degenerates correctly).

        With a telemetry registry installed, each message that carries
        bytes counts on ``comm.bytes{link_class=...}`` and observes its
        measured/predicted time on ``comm.measured_vs_model{link=...}``
        (a zero-byte record — a timed-out attempt — is not a sample).

        Under a fault injector the issue half asks it for the outcome
        of each attempt at the time the attempt would start: a transient
        failure is charged as a zero-byte ``{name}!fail`` record of the
        retry timeout on the same two engines, the next attempt follows
        the policy backoff, and a lost endpoint or an exhausted budget
        raises :class:`~repro.machine.retry.CommFailure`.
        """
        tx = self._device(src, "source device").stream("comm.tx")
        rx = self._device(dst, "destination device").stream("comm.rx")
        _check_amounts(name, nbytes=nbytes)
        t_dep, waits = self._wait(after)
        op, dur, tel = OP_P2P_SELF, 0.0, None
        if src == dst:
            nbytes = 0.0
        else:
            # Links are full duplex: the sender's tx engine and the
            # receiver's rx engine are occupied, so a ring shift (every
            # device one send + one receive) proceeds fully in parallel,
            # as on real NVLink.
            op = OP_P2P
            dur = self.spec.p2p_time(src, dst, nbytes, bandwidth, latency)
            if not 0.0 <= dur < _INF:
                raise ParameterError(
                    f"op {name!r}: latency {latency!r} / bandwidth "
                    f"{bandwidth!r} price a transfer of {dur!r} s")
            if nbytes > 0.0 and (self.telemetry is not None
                                 or self._tape is not None):
                # (link_class, link label, predicted seconds): the lone
                # time on this pair's own latency (the plan's prices where
                # given), so measured/predicted calibrates the link
                pair = self.spec.pair(src, dst)
                tel = (pair.link_class, f"{min(src, dst)}-{max(src, dst)}",
                       self.spec.p2p_time(
                           src, dst, nbytes, bandwidth,
                           pair.latency if latency is None else latency))
        seq = -1 if self._tape is None else self._taped(
            op, after, (tx, rx), reads, writes, name=name, kind="comm",
            device=src, peer=dst, duration=dur, comm_bytes=nbytes, fn=fn,
            tel=tel)
        end, uid = self._issue_p2p(
            tx, rx, src, dst, name, dur, nbytes, self._qualify(src, reads),
            self._qualify(dst, writes), fn, tel, t_dep, waits,
            self._region_path)
        return Event(end, rx.label, op=uid, src=seq)

    def _issue_p2p(self, tx, rx, src, dst, name, dur, nbytes, reads, writes,
                   fn, tel, t_dep, waits, region) -> tuple:
        start = tx.clock
        if rx.clock > start:
            start = rx.clock
        if t_dep > start:
            start = t_dep
        faults = self.faults
        if faults is not None:
            # each attempt's outcome is drawn at the time it would start;
            # a self-send never crosses a link, so it cannot fail
            while src != dst:
                outcome = faults.message_outcome(src, dst, name, start)
                if outcome == "ok":
                    break
                if outcome == "lost":
                    raise self._comm_failure(
                        f"{name}: link {src}->{dst} has a lost endpoint",
                        start, True)
                # a timed-out attempt holds both engines for the policy
                # timeout and moves no bytes; its writes get ``.fail{n}``
                # names so they never alias the real destination
                n = self._failed_attempts
                wait = self.retry.timeout * faults.comm_scale(src, dst, start)
                self.ledger.append_stamped(OpRecord(
                    device=src, stream="comm", kind="comm",
                    name=f"{name}!fail", start=start, duration=wait,
                    comm_bytes=0.0, peer=dst, reads=reads,
                    writes=tuple((g, f"{w}.fail{n}") for g, w in writes),
                    waits=waits, region=region))
                tx.clock = rx.clock = start + wait
                start = self._charge_attempt(
                    name, start + wait, f" on link {src}->{dst}")
            s = faults.comm_scale(src, dst, start)
            if s != 1.0:
                dur *= s
        uid = self.ledger.append_stamped(OpRecord(
            device=src, stream="comm", kind="comm", name=name,
            start=start, duration=dur, comm_bytes=nbytes, peer=dst,
            reads=reads, writes=writes, waits=waits, region=region))
        if fn is not None and self.execute:
            fn(self)
        end = tx.clock = rx.clock = start + dur
        if tel is not None and self.telemetry is not None:
            # measured = the record's full priced window, contention and
            # fault stretching included, against the pair's lone roofline
            cls, link, predicted = tel
            counter, ratio = self._series(cls, link)
            counter.inc(nbytes, t=end)
            if predicted > 0.0 and end > start:
                ratio.observe((end - start) / predicted, t=end)
        return end, uid

    def _charge_attempt(self, name: str, end: float, where: str = "") -> float:
        """Charge a timed-out attempt of ``name``, over at ``end``, to the
        open comm-layer call's budget; returns when the seeded backoff
        lets the next attempt start.  The ``comm.retry`` stage label is
        the last dot-component of the op name, so batch namespaces
        (``serve.b3.transpose`` -> ``transpose``) stay bounded.
        """
        n = self._failed_attempts
        self._failed_attempts = n + 1
        if self.telemetry is not None:
            self.telemetry.counter(
                "comm.retry", {"stage": name.rsplit(".", 1)[-1]}
            ).inc(1.0, t=end)
        policy = self.retry
        if n >= policy.budget:
            raise self._comm_failure(
                f"{name}: retry budget ({policy.budget}) exhausted{where}",
                end, False)
        return end + policy.delay(name, n)

    def _comm_failure(self, message: str, time: float,
                      permanent: bool) -> CommFailure:
        """The failure ending the open comm-layer call (budget closed)."""
        self._failed_attempts = 0
        return CommFailure(message, time=time, permanent=permanent)

    def _series(self, cls: str, link: str) -> tuple:
        """Memoized ``(comm.bytes counter, measured_vs_model histogram)``
        of one link: resolving a series through the registry builds and
        sorts a labels dict every time.  Guarded by registry identity,
        so a scheduler that swaps registries on a reused cluster never
        emits into a stale one.
        """
        tel = self.telemetry
        if self._series_memo[0] is not tel:
            self._series_memo = (tel, {})
        handles = self._series_memo[1]
        pair = handles.get((cls, link))
        if pair is None:
            pair = handles[(cls, link)] = (
                tel.counter("comm.bytes", {"link_class": cls}),
                tel.histogram("comm.measured_vs_model", {"link": link}))
        return pair

    # -- collectives -----------------------------------------------------

    def _collective(
        self,
        name: str,
        bytes_per_device: float,
        after: Sequence[Event],
        fn: Callable[["VirtualCluster"], None] | None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> list[Event]:
        """Shared costing for alltoall/allgather (the ``bulk`` model).

        All devices' comm streams synchronize at the start (it is a
        collective), proceed at the topology's effective all-to-all
        bandwidth, and finish together.  ``reads``/``writes`` are
        device-local names applied per participating device.

        Byte accounting convention: each of the G records carries
        ``comm_bytes = bytes_per_device`` — the payload *that device*
        injects — so the ledger total for a collective is
        ``G * bytes_per_device``, symmetric with p2p ``sendrecv`` where
        the single record carries the full message the source injects.
        Summing ``comm_bytes`` over any record set therefore always
        yields "bytes injected by those devices", never double-counted.

        Pipelines should not call this directly: :mod:`repro.comm`
        wraps it (``algorithm="bulk"``) alongside the per-round message
        plans, and the ``raw-comm`` lint rule enforces that boundary.
        """
        _check_amounts(name, bytes_per_device=bytes_per_device)
        t_dep, waits = self._wait(after)
        if self.G == 1:
            src = -1 if self._tape is None else self._taped(
                OP_COLL1, after, name=name, device=0, fn=fn)
            end, _ = self._issue_collective1(
                self._comm_streams[0], fn, t_dep, waits, "")
            return [Event(end, name, src=src)]
        dur = self.spec.collective_time(bytes_per_device)
        G = self.G
        end, uids = self._issue_collective(
            name, dur, bytes_per_device,
            [self._qualify(g, reads) for g in range(G)],
            [self._qualify(g, writes) for g in range(G)],
            fn, t_dep, waits, self._region_path)
        # taped once issued: device 0's uid follows any timed-out attempts
        src = -1 if self._tape is None else self._taped(
            OP_COLL, after, self._comm_streams, reads, writes,
            uid0=uids[0], name=name, kind="comm", duration=dur,
            comm_bytes=bytes_per_device, fn=fn)
        return [Event(end, self._comm_streams[G + g].label, op=uids[g], src=src)
                for g in range(G)]

    def _issue_collective1(self, tx0, fn, t_dep, waits, region) -> tuple:
        if fn is not None and self.execute:
            fn(self)
        return (t_dep if t_dep > tx0.clock else tx0.clock), None

    def _issue_collective(self, name, dur, nbytes, reads, writes, fn,
                          t_dep, waits, region) -> tuple:
        # a collective saturates both directions on every device
        start = t_dep
        for st in self._comm_streams:
            if st.clock > start:
                start = st.clock
        faults = self.faults
        if faults is not None:
            while True:
                outcome = faults.collective_outcome(name, start)
                if outcome == "ok":
                    break
                if outcome == "lost":
                    raise self._comm_failure(
                        f"{name}: device lost during collective", start, True)
                # a timed-out attempt is a coherent collective too: G
                # records sharing one start and the policy timeout (never
                # fault-stretched), so the schedule auditor accepts it
                n = self._failed_attempts
                end, _ = self._collective_records(
                    f"{name}!fail", start, self.retry.timeout, 0.0, reads,
                    [tuple((g, f"{w}.fail{n}") for g, w in ws)
                     for ws in writes], waits, region)
                start = self._charge_attempt(name, end)
            s = faults.collective_scale(start)
            if s != 1.0:
                dur *= s
        end, uids = self._collective_records(
            name, start, dur, nbytes, reads, writes, waits, region)
        if fn is not None and self.execute:
            fn(self)
        return end, uids

    def _collective_records(self, name, start, dur, nbytes, reads, writes,
                            waits, region) -> tuple:
        """Append a collective's G records and move every comm engine to
        their shared end; returns ``(end, uids)``."""
        append = self.ledger.append_stamped
        uids = [
            append(OpRecord(
                device=g, stream="comm", kind="comm", name=name,
                start=start, duration=dur, comm_bytes=nbytes,
                reads=reads[g], writes=writes[g], waits=waits,
                region=region))
            for g in range(self.G)
        ]
        end = start + dur
        for st in self._comm_streams:
            st.clock = end
        return end, uids

    def alltoall(
        self,
        bytes_sent_per_device: float,
        name: str,
        after: Sequence[Event] = (),
        fn: Callable[["VirtualCluster"], None] | None = None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> list[Event]:
        """Personalized all-to-all: each device sends ``bytes_sent_per_device``
        total, split evenly over the other G-1 devices.

        Returns one completion event per device.
        """
        return self._collective(name, bytes_sent_per_device, after, fn,
                                reads=reads, writes=writes)

    def allgather(
        self,
        bytes_per_device: float,
        name: str,
        after: Sequence[Event] = (),
        fn: Callable[["VirtualCluster"], None] | None = None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> list[Event]:
        """Allgather: each device contributes ``bytes_per_device`` and ends
        with everyone's contribution.  Receive-side volume dominates:
        ``(G-1) * bytes_per_device`` per device at all-to-all bandwidth.
        """
        return self._collective(
            name, (self.G - 1) * bytes_per_device, after, fn,
            reads=reads, writes=writes,
        )

    def barrier(self) -> Event:
        """Synchronize every stream on every device to the global max."""
        src = -1 if self._tape is None else self._taped(
            OP_BARRIER, (),
            [st for d in self.devices for st in d.streams.values()],
            name="barrier")
        t, _ = self._issue_barrier(0.0, (), "")
        return Event(t, "barrier", src=src)

    def _issue_barrier(self, t_dep, waits, region) -> tuple:
        t = self.wall_time()
        for d in self.devices:
            for st in d.streams.values():
                st.clock = t
        return t, None

    # -- comm log ----------------------------------------------------------

    def log_comm(self, entry: dict, bulk_bytes: float | None = None,
                 done: Sequence[Event] = ()) -> None:
        """Append one ``comm_log`` entry, closing one comm-layer call
        (and with it the retry budget its failed attempts drew on).

        ``bulk_bytes`` — given for a flat-model collective, whose G
        records are not messages — is counted on
        ``comm.bytes{link_class=bulk}``, stamped at the completion of
        ``done`` (the collective's events).
        """
        if self._tape is not None:
            payload = {"entry": entry}
            if bulk_bytes is not None:
                payload["bulk_bytes"] = bulk_bytes
            self._taped(OP_LOG, done, name=entry.get("name", "log"),
                        payload=payload)
        t_dep = max((e.time for e in done), default=0.0)
        self._issue_log(entry, bulk_bytes, t_dep, (), "")

    def _issue_log(self, entry, bulk_bytes, t_dep, waits, region) -> tuple:
        self.comm_log.append(dict(entry))
        self._failed_attempts = 0  # the comm-layer call is over
        if bulk_bytes is not None and self.telemetry is not None:
            self.telemetry.counter("comm.bytes", {"link_class": "bulk"}).inc(
                bulk_bytes, t=t_dep)
        return t_dep, None

    # -- memory helpers ---------------------------------------------------

    def scatter_blocks(self, key: str, array: np.ndarray) -> None:
        """Block-partition a 1D array over devices into buffer ``key``.

        Used to stage input: device g receives the contiguous slice
        ``array[g*n/G : (g+1)*n/G]``.  Requires execute mode.
        """
        n = array.shape[0]
        if n % self.G != 0:
            raise ParameterError(f"array length {n} not divisible by G={self.G}")
        blk = n // self.G
        for g, dev in enumerate(self.devices):
            dev[key] = array[g * blk : (g + 1) * blk].copy()

    def gather_blocks(self, key: str) -> np.ndarray:
        """Concatenate buffer ``key`` from all devices (inverse of scatter)."""
        return np.concatenate([dev[key] for dev in self.devices])

    def __repr__(self) -> str:  # pragma: no cover
        mode = "execute" if self.execute else "timing-only"
        return f"VirtualCluster({self.spec.name}, G={self.G}, {mode})"

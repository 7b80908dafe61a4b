"""Cluster-facing collective operations with pluggable algorithms.

Every distributed pipeline in the library issues its communication
through these functions instead of calling the
:class:`~repro.machine.cluster.VirtualCluster` collectives directly
(the ``raw-comm`` lint rule enforces this).  Each call either

- delegates to the legacy flat model (``algorithm="bulk"``) —
  bit-for-bit identical ledger records, timings, and events to the
  pre-refactor code, kept for back-compat and ablation — or
- decomposes the collective into the per-round ``sendrecv`` message
  plan built by :mod:`repro.comm.plans` (``direct``/``ring``/``bruck``/
  ``hier``/``hier2``), issuing one ledger record per message, routed
  over the actual topology link it crosses with per-link contention, or
- picks the cheapest plan from the Section-5 cost model
  (``algorithm="auto"``, via :mod:`repro.comm.tuning`).

Dependency contract: ``after`` (or each ``after_chunks[i]``) with
exactly G entries is treated as *per-device* producer events — round-0
messages wait on both endpoints' entries, which is what makes in-place
exchanges WAW-safe; any other length is a flat dependency list applied
to every round-0 message.  The returned list holds one completion event
per device: the latest message event touching that device, so a
consumer waiting on ``events[g]`` is ordered after every send and
receive at device ``g`` (chained forwarding plans additionally order
round ``k+1`` sends after round ``k`` receives).

Every call logs a record through ``cluster.log_comm`` (algorithm,
payload, predicted time) which :func:`repro.obs.metrics.join_comm_model`
joins against the ledger for measured-vs-model validation.  Per-message
telemetry is the engine's: with a
:class:`~repro.obs.telemetry.MetricsRegistry` on the cluster, its issue
halves stream ``comm.bytes{link_class=...}`` and
``comm.measured_vs_model{link=...}`` for every message (and the flat
model's bytes when a bulk call is logged), identically for eager and
replayed ops.

Fault handling is the engine's too: when the cluster carries a
:class:`~repro.faults.FaultInjector`, its issue halves draw the outcome
of every attempt of a message or bulk collective, charge timed-out
``<stage>!fail`` records, back off and retry (``docs/FAULTS.md``).
What this layer contributes is the *scope* failed attempts are counted
over — one call here, closed by its ``cluster.log_comm`` entry — and
letting :class:`~repro.comm.retry.CommFailure` propagate to the caller
(the serve layer).  Completion events are never chosen here by comparing
times, which a fault can reorder: ``cluster.latest`` joins them.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.comm import plans as _plans
from repro.comm import tuning as _tuning
from repro.machine import topology as topo
from repro.machine.stream import Event
from repro.util.validation import ParameterError

#: Accepted values for the ``algorithm`` parameter.
ALGORITHMS = ("bulk", "direct", "ring", "bruck", "hier", "hier2", "auto")


def _resolve(cl, kind: str, payload: float, algorithm: str) -> str:
    """Validate and resolve the algorithm name ('auto' -> concrete)."""
    if algorithm not in ALGORITHMS:
        raise ParameterError(
            f"unknown comm algorithm {algorithm!r}; choose from {ALGORITHMS}"
        )
    if cl.G == 1:
        return "bulk"
    if algorithm == "auto":
        return _tuning.choose_algorithm(cl.spec, kind, payload)
    return algorithm


def _log(cl, name: str, kind: str, algorithm: str, payload: float,
         chunks: int = 1, bulk_done: Sequence[Event] | None = None) -> None:
    """Log one collective call (skipped on G=1 degenerate clusters).

    ``bulk_done`` — the final events of a flat-model collective — makes
    the engine count its payload on ``comm.bytes{link_class=bulk}``.
    """
    if cl.G == 1:
        return
    entry = {
        "name": name,
        "kind": kind,
        "algorithm": algorithm,
        "payload": payload,
        "chunks": chunks,
        "G": cl.G,
        "predicted": _tuning.predict_time(cl.spec, kind, payload, algorithm,
                                          chunks=chunks),
    }
    if bulk_done is None:
        cl.log_comm(entry)
    else:
        cl.log_comm(entry, bulk_bytes=payload * cl.G, done=bulk_done)


def _normalize_after(after, G: int):
    """Split a dependency list into (per-device list | None, flat extras)."""
    if not after:
        return None, []
    deps = list(after)
    if len(deps) == G:
        return deps, []
    return None, [e for e in deps if e is not None]


def _issue_plan(cl, plan, name: str, per_dev, extra, fn, touch):
    """Issue one plan's rounds as sendrecv ops.  ``touch[g]`` (updated in
    place across chunks) keeps device g's last send and last receive in
    issue order: its engines are in-order, so those two bound every
    message touching it."""
    spec = cl.spec
    last_recv: list = [None] * cl.G
    for ridx, rnd in enumerate(plan.rounds):
        bws = _plans.message_bandwidths(spec, rnd)
        new_recv: dict = {}
        for m, bw in zip(rnd, bws):
            if ridx == 0:
                if per_dev is not None:
                    deps = [e for e in (per_dev[m.src], per_dev[m.dst])
                            if e is not None]
                else:
                    deps = extra
            elif plan.chained and last_recv[m.src] is not None:
                deps = [last_recv[m.src]]
            else:
                deps = []
            ev = cl.sendrecv(
                m.src, m.dst, m.nbytes, name, after=deps, fn=fn,
                reads=list(m.reads), writes=list(m.writes), bandwidth=bw,
                latency=topo.pair_latency(spec.graph, m.src, m.dst))
            fn = None
            new_recv[m.dst] = ev
            for g, engine in ((m.src, "tx"), (m.dst, "rx")):
                touch[g].pop(engine, None)
                touch[g][engine] = ev
        for d, ev in new_recv.items():
            last_recv[d] = ev
    return touch


def _done_events(cl, touch, name: str) -> list:
    """Per-device completion events: the later of the device's last send
    and last receive, with clock fallbacks for untouched devices (cannot
    happen for the built-in plans, but stays total)."""
    return [
        cl.latest(*touch[g].values()) if touch[g]
        else cl.stream_event(g, "comm.rx", name)
        for g in range(cl.G)
    ]


def alltoall(
    cl,
    bytes_sent_per_device: float,
    name: str,
    after: Sequence[Event] = (),
    fn: Callable | None = None,
    reads: Sequence[str] = (),
    writes: Sequence[str] = (),
    algorithm: str = "bulk",
    chunks: int = 1,
    after_chunks: Sequence[Sequence[Event]] | None = None,
) -> list[Event]:
    """Personalized all-to-all; returns one completion event per device.

    ``bytes_sent_per_device`` is the total each device sends (split
    evenly over the other G-1 peers).  With ``chunks > 1`` the payload
    is issued in ``chunks`` pipelined pieces, chunk ``i`` gated on
    ``after_chunks[i]`` (per-device producer events); reads/writes are
    chunk-qualified (``buf#r{i}`` / ``buf#t{i}``) so chunks overlap the
    producing kernels.  ``fn`` performs the real data movement, attached
    to the first op issued.
    """
    if chunks < 1:
        raise ParameterError(f"chunks must be >= 1, got {chunks}")
    if after_chunks is not None and len(after_chunks) != chunks:
        raise ParameterError(
            f"after_chunks has {len(after_chunks)} entries for {chunks} chunks"
        )
    algo = _resolve(cl, "alltoall", bytes_sent_per_device, algorithm)
    if algo == "bulk":
        events: list[Event] = []
        for i in range(chunks):
            dep = (tuple(after_chunks[i]) if after_chunks is not None
                   else (tuple(after) if i == 0 else ()))
            if chunks == 1:
                rds, wrs = list(reads), list(writes)
            else:
                rds = [f"{r}#r{i}" for r in reads]
                wrs = [f"{w}#t{i}" for w in writes]
            events = cl.alltoall(
                bytes_sent_per_device / chunks,
                name=name,
                after=dep,
                fn=fn if i == 0 else None,
                reads=rds,
                writes=wrs,
            )
        _log(cl, name, "alltoall", "bulk", bytes_sent_per_device, chunks,
             bulk_done=events)
        return events

    touch: list = [{} for _ in range(cl.G)]
    for i in range(chunks):
        dep = (after_chunks[i] if after_chunks is not None
               else (after if i == 0 else ()))
        per_dev, extra = _normalize_after(dep, cl.G)
        # chunk sub-resources: reads from the producer's row-chunk i,
        # writes into transposed slot i, further split per source so
        # concurrent messages (and an in-place src==dst) never alias
        rds = tuple(f"{r}#r{i}" for r in reads)
        plan = _plans.build_plan(
            cl.spec, "alltoall", bytes_sent_per_device / chunks, algo,
            rds, tuple(writes), f"#t{i}",
        )
        touch = _issue_plan(cl, plan, name, per_dev, extra,
                            fn if i == 0 else None, touch)
    _log(cl, name, "alltoall", algo, bytes_sent_per_device, chunks)
    return _done_events(cl, touch, name)


def allgather(
    cl,
    bytes_per_device: float,
    name: str,
    after: Sequence[Event] = (),
    fn: Callable | None = None,
    reads: Sequence[str] = (),
    writes: Sequence[str] = (),
    algorithm: str = "bulk",
) -> list[Event]:
    """Allgather of a ``bytes_per_device`` contribution from every device.

    Plan algorithms write per-origin blocks (``buf#b{g}``) so the
    sanitizer sees exactly which messages fill which slots; consumers
    reading the whole gathered buffer conflict with every block and are
    therefore ordered by the returned per-device events.
    """
    algo = _resolve(cl, "allgather", bytes_per_device, algorithm)
    if algo == "bulk":
        events = cl.allgather(bytes_per_device, name, after=after, fn=fn,
                              reads=list(reads), writes=list(writes))
        _log(cl, name, "allgather", "bulk", bytes_per_device,
             bulk_done=events)
        return events

    per_dev, extra = _normalize_after(after, cl.G)
    plan = _plans.build_plan(cl.spec, "allgather", bytes_per_device, algo,
                             tuple(reads), tuple(writes), "")
    touch = _issue_plan(cl, plan, name, per_dev, extra, fn,
                        [{} for _ in range(cl.G)])
    _log(cl, name, "allgather", algo, bytes_per_device)
    return _done_events(cl, touch, name)


def grouped_alltoall(
    cl,
    bytes_sent_per_device: float,
    name: str,
    groups: Sequence[Sequence[int]] = (),
    after: Sequence[Event] = (),
    fn: Callable | None = None,
    reads: Sequence[str] = (),
    writes: Sequence[str] = ("comm",),
) -> list[Event]:
    """Concurrent personalized all-to-alls over disjoint device groups.

    The pencil-decomposed FFT exchanges within row/column subgroups of
    the process grid — many small all-to-alls running *simultaneously*.
    Issuing them as separate collectives would price each in isolation;
    this merges round ``k`` of every group into one global round, so
    :func:`repro.comm.plans.message_bandwidths` sees the cross-group
    contention on shared NICs and fabric uplinks.  Each member of an
    ``n``-device group sends ``bytes_sent_per_device`` split over its
    ``n - 1`` peers (pairwise permutation rounds, no forwarding).
    Devices outside every group do not participate.  Returns one
    completion event per device.
    """
    seen: set[int] = set()
    for grp in groups:
        for g in grp:
            if not 0 <= g < cl.G:
                raise ParameterError(f"group device {g} out of range 0..{cl.G - 1}")
            if g in seen:
                raise ParameterError(f"device {g} appears in two groups")
            seen.add(g)
    if not writes:
        raise ParameterError("grouped_alltoall needs at least one write buffer")
    rounds: list[tuple] = []
    nmax = max((len(grp) for grp in groups), default=0)
    for k in range(1, nmax):
        msgs = []
        for grp in groups:
            n = len(grp)
            if k >= n:
                continue
            s = bytes_sent_per_device / (n - 1)
            for i, g in enumerate(grp):
                msgs.append(_plans.Msg(
                    g, grp[(i + k) % n], s, tuple(reads),
                    tuple(f"{w}#s{g}" for w in writes)))
        if msgs:
            rounds.append(tuple(msgs))
    plan = _plans.CommPlan(algorithm="grouped", kind="alltoall",
                           rounds=tuple(rounds), chained=False)
    touch: list = [{} for _ in range(cl.G)]
    if plan.rounds:
        per_dev, extra = _normalize_after(after, cl.G)
        touch = _issue_plan(cl, plan, name, per_dev, extra, fn, touch)
        cl.log_comm({
            "name": name, "kind": "alltoall", "algorithm": "grouped",
            "payload": bytes_sent_per_device, "chunks": 1, "G": cl.G,
            "predicted": _plans.plan_time(cl.spec, plan),
        })
    return _done_events(cl, touch, name)


def halo_exchange(
    cl,
    nbytes: float,
    name: str,
    src_buf: str,
    halo_buf: str,
    after: Sequence[Event] | None = None,
) -> list[Event]:
    """Cyclic nearest-neighbour exchange: two fully parallel ring shifts.

    Device ``g`` sends ``nbytes`` from ``src_buf`` to both neighbours;
    the receiver's left (``#L``) and right (``#R``) halo slots of
    ``halo_buf`` are disjoint sub-resources, so the shifts never alias.
    ``after[g]`` gates device g's sends on its producer.  Returns the
    per-device halo-arrival events.  Already a per-message plan (this is
    the paper's COMM-S / COMM-M pattern), so there is no algorithm knob.
    """
    G = cl.G
    if G == 1:
        if after:
            # nothing to exchange: the halo "arrives" with its producer
            return [Event(after[0].time, name, src=after[0].src)]
        return [cl.stream_event(0, "comm.rx", name)]
    deps = [[e] if e is not None else []
            for e in (after if after else [None] * G)]
    ev_right = [
        cl.sendrecv(g, (g + 1) % G, nbytes, name, after=deps[g],
                    reads=[src_buf], writes=[f"{halo_buf}#L"])
        for g in range(G)
    ]
    ev_left = [
        cl.sendrecv(g, (g - 1) % G, nbytes, name, after=deps[g],
                    reads=[src_buf], writes=[f"{halo_buf}#R"])
        for g in range(G)
    ]
    spec = cl.spec
    shift_r = [_plans.Msg(g, (g + 1) % G, nbytes) for g in range(G)]
    shift_l = [_plans.Msg(g, (g - 1) % G, nbytes) for g in range(G)]
    cl.log_comm({
        "name": name, "kind": "halo", "algorithm": "ring", "payload": nbytes,
        "chunks": 1, "G": G,
        "predicted": _plans.round_time(spec, shift_r)
        + _plans.round_time(spec, shift_l),
    })
    # device g receives from g-1 (right shift) and g+1 (left shift)
    return [cl.latest(ev_right[(g - 1) % G], ev_left[(g + 1) % G])
            for g in range(G)]


def sendrecv(
    cl,
    src: int,
    dst: int,
    nbytes: float,
    name: str,
    after: Sequence[Event] = (),
    fn: Callable | None = None,
    reads: Sequence[str] = (),
    writes: Sequence[str] = (),
) -> Event:
    """Point-to-point transfer through the comm layer.

    Thin wrapper over ``cluster.sendrecv`` (same cost model, same
    event/declare semantics, including the zero-cost self-send record)
    that additionally logs the transfer for measured-vs-model joins.
    """
    ev = cl.sendrecv(src, dst, nbytes, name, after=after, fn=fn,
                     reads=reads, writes=writes)
    if src == dst or cl.G == 1:
        predicted = 0.0
    else:
        predicted = (cl.spec.comm_latency()
                     + nbytes / cl.spec.pair_bandwidth(src, dst))
    cl.log_comm({
        "name": name, "kind": "p2p", "algorithm": "p2p", "payload": nbytes,
        "chunks": 1, "G": cl.G, "predicted": predicted,
    })
    return ev

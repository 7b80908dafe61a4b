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

Nothing is priced here: :func:`~repro.comm.plans.build_plan` returns a
plan carrying each message's contended bandwidth and latency and its
own ``time``, and this layer hands that object to issue (its messages
compiled once per spec object by :func:`~repro.comm.plans.compile_issue`
go straight to the engine's issue half) and to the log (``chunks *
plan.time``); bulk and lone-transfer predictions are the spec's own
``collective_time`` / ``p2p_time``, the formulas the engine charges.

Dependency contract: ``after`` (or each ``after_chunks[i]``) with
exactly G entries is treated as *per-device* producer events — round-0
messages wait on both endpoints' entries, which is what makes in-place
exchanges WAW-safe; any other length is a flat dependency list applied
to every round-0 message.  A ``None`` entry is a ``ParameterError`` on
every algorithm.  The returned list holds one completion event
per device: the latest message event touching that device, so a
consumer waiting on ``events[g]`` is ordered after every send and
receive at device ``g`` (chained forwarding plans additionally order
round ``k+1`` sends after round ``k`` receives).

Every call logs a record through ``cluster.log_comm`` (algorithm,
payload, the predicted time of what was issued).  Per-message
measured-vs-model, comm bytes and retries are read off the ledger (and
that log, for bulk bytes) once the run is over
(:func:`repro.obs.fold.fold_run`), so eager and replayed ops report the
same series: they leave the same records.

Fault handling is the engine's too: when the cluster carries a
:class:`~repro.faults.FaultInjector`, its issue halves draw the outcome
of every attempt of a message or bulk collective, charge timed-out
``<stage>!fail`` records, back off and retry (``docs/FAULTS.md``).
What this layer contributes is the *scope* failed attempts are counted
over — one call here, closed by its ``cluster.log_comm`` entry — and
letting :class:`~repro.machine.retry.CommFailure` propagate to the caller
(the serve layer).  Completion events are never chosen here by comparing
times, which a fault can reorder: ``cluster.latest`` joins them.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.comm import plans as _plans
from repro.comm import tuning as _tuning
from repro.machine.cluster import check_amounts
from repro.machine.stream import Event
from repro.util.validation import ParameterError, check_count, check_names

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


def _check_door(payload, reads, writes) -> None:
    """A collective's payload and buffer lists, checked before anything
    is derived from them."""
    _plans.check_payload(payload)
    check_names("reads", reads)
    check_names("writes", writes)


def _log(cl, name: str, kind: str, algorithm: str, payload: float,
         chunks: int, predicted: float) -> None:
    """Log one comm-layer call.  ``predicted`` is the price of what was
    just issued, taken from where it was priced — never re-derived here.
    """
    cl.log_comm({"name": name, "kind": kind, "algorithm": algorithm,
                 "payload": payload, "chunks": chunks, "G": cl.G,
                 "predicted": predicted})


def _issue_plan(cl, plan, name: str, after, fn, touch):
    """Issue one priced plan's messages as compiled once
    (:func:`~repro.comm.plans.compile_issue`) straight to the engine's
    issue half, with this call's dependencies, name and region; the one
    carrying ``fn`` goes through ``cl.sendrecv``, where data movement is
    attributed.  ``after`` with exactly G entries is per-device, else a
    flat list (a ``None`` entry is a ``ParameterError``).  ``touch[g]``
    (updated in place across chunks) keeps device g's last send and last
    receive in issue order: its engines are in-order, so those two bound
    every message touching it."""
    msgs, last = _plans.compile_issue(cl.spec, plan)
    check_amounts(name)
    given = tuple(after or ())
    cl._wait(given)  # every entry is checked, used in round 0 or not
    per_dev = given if len(given) == cl.G else None
    tape, region, tx, rx = cl._tape, cl.region_path, cl._tx, cl._rx
    evs: list[Event] = []
    for (src, dst, op, dur, nbytes, reads, writes, qreads, qwrites,
         dep) in msgs:
        deps = (() if dep == -1 else (evs[dep],) if dep is not None
                else given if per_dev is None else (per_dev[src], per_dev[dst]))
        t_dep, waits = cl._wait(deps)
        if fn is not None:
            bw, lat = plan.prices[0][0]
            evs.append(cl.sendrecv(
                src, dst, nbytes, name, after=deps, fn=fn, reads=reads,
                writes=writes, bandwidth=bw, latency=lat))
            fn = None
            continue
        seq = -1 if tape is None else cl._taped(
            op, deps, (tx[src], rx[dst]), reads, writes, name=name,
            kind="comm", device=src, peer=dst, duration=dur,
            comm_bytes=nbytes)
        end, uid = cl._issue_p2p(src, dst, name, dur, nbytes, qreads,
                                 qwrites, None, t_dep, waits, region)
        evs.append(Event(end, rx[dst].label, op=uid, src=seq))
    for g, engines in enumerate(last):
        for engine, i in engines:
            touch[g].pop(engine, None)
            touch[g][engine] = evs[i]
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
    _check_door(bytes_sent_per_device, reads, writes)
    check_count("chunks", chunks)
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
        if cl.G > 1:  # a G=1 degenerate collective is not logged
            _log(cl, name, "alltoall", "bulk", bytes_sent_per_device, chunks,
                 chunks * cl.spec.collective_time(
                     bytes_sent_per_device / chunks))
        return events

    touch: list = [{} for _ in range(cl.G)]
    for i in range(chunks):
        dep = (after_chunks[i] if after_chunks is not None
               else (after if i == 0 else ()))
        # chunk sub-resources: reads from the producer's row-chunk i,
        # writes into transposed slot i, further split per source so
        # concurrent messages (and an in-place src==dst) never alias
        rds = tuple(f"{r}#r{i}" for r in reads)
        plan = _plans.build_plan(
            cl.spec, "alltoall", bytes_sent_per_device / chunks, algo,
            rds, tuple(writes), f"#t{i}",
        )
        touch = _issue_plan(cl, plan, name, dep, fn if i == 0 else None,
                            touch)
    _log(cl, name, "alltoall", algo, bytes_sent_per_device, chunks,
         chunks * plan.time)
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
    _check_door(bytes_per_device, reads, writes)
    algo = _resolve(cl, "allgather", bytes_per_device, algorithm)
    if algo == "bulk":
        events = cl.allgather(bytes_per_device, name, after=after, fn=fn,
                              reads=list(reads), writes=list(writes))
        if cl.G > 1:
            _log(cl, name, "allgather", "bulk", bytes_per_device, 1,
                 cl.spec.collective_time((cl.G - 1) * bytes_per_device))
        return events

    plan = _plans.build_plan(cl.spec, "allgather", bytes_per_device, algo,
                             tuple(reads), tuple(writes), "")
    touch = _issue_plan(cl, plan, name, after, fn, [{} for _ in range(cl.G)])
    _log(cl, name, "allgather", algo, bytes_per_device, 1, plan.time)
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
    :func:`repro.comm.plans.price_round` sees the cross-group
    contention on shared NICs and fabric uplinks.  Each member of an
    ``n``-device group sends ``bytes_sent_per_device`` split over its
    ``n - 1`` peers (pairwise permutation rounds, no forwarding).
    Devices outside every group do not participate.  Returns one
    completion event per device.
    """
    _check_door(bytes_sent_per_device, reads, writes)
    seen: set[int] = set()
    for grp in groups:
        for g in grp:
            if type(g) is not int:
                raise ParameterError(
                    f"group members must be device ids, got {g!r}")
            if not 0 <= g < cl.G:
                raise ParameterError(f"group device {g} out of range 0..{cl.G - 1}")
            if g in seen:
                raise ParameterError(f"device {g} appears in two groups")
            seen.add(g)
    if not writes:
        raise ParameterError("grouped_alltoall needs at least one write buffer")
    # like a built plan, kept per spec object and argument tuple
    key = ("grouped", bytes_sent_per_device, tuple(map(tuple, groups)),
           tuple(reads), tuple(writes))
    if key not in cl.spec.plans:
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
        cl.spec.plans[key] = rounds and _plans.price_plan(
            cl.spec, _plans.CommPlan("grouped", "alltoall", tuple(rounds),
                                     False))
    plan = cl.spec.plans[key]
    touch: list = [{} for _ in range(cl.G)]
    if plan:
        touch = _issue_plan(cl, plan, name, after, fn, touch)
        _log(cl, name, "alltoall", "grouped", bytes_sent_per_device, 1,
             plan.time)
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
    ``after[g]`` gates device g's sends on its producer (a ``None``
    entry is a ``ParameterError``, as on every collective).  Returns the
    per-device halo-arrival events.  Already a per-message plan (this is
    the paper's COMM-S / COMM-M pattern), so there is no algorithm knob.
    """
    G = cl.G
    if after and len(after) != G:
        raise ParameterError(
            f"after must be empty or hold G={G} entries, got {len(after)}")
    cl._wait(after or ())  # every entry is checked before anything issues
    if G == 1:
        if after:
            # nothing to exchange: the halo "arrives" with its producer
            return [Event(after[0].time, name, src=after[0].src)]
        return [cl.stream_event(0, "comm.rx", name)]
    deps = [[e] for e in after] if after else [()] * G
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
    shifts = [[_plans.Msg(g, (g + step) % G, nbytes) for g in range(G)]
              for step in (1, -1)]
    _log(cl, name, "halo", "ring", nbytes, 1,
         sum(_plans.price_round(cl.spec, shift)[1] for shift in shifts))
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
    that additionally logs the transfer in the cluster's comm log.
    """
    ev = cl.sendrecv(src, dst, nbytes, name, after=after, fn=fn,
                     reads=reads, writes=writes)
    predicted = 0.0 if src == dst else cl.spec.p2p_time(src, dst, nbytes)
    _log(cl, name, "p2p", "p2p", nbytes, 1, predicted)
    return ev

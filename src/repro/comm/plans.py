"""Per-round message plans for the pluggable collectives.

A *plan* decomposes one collective into explicit rounds of point-to-point
messages, each routed over the actual :mod:`repro.machine.topology` link
it would use (NVLink edge, PCIe fallback, or NIC) — so hybrid-cube-mesh,
ring, and fully-connected topologies now cost differently per round, and
the ledger/sanitizer/Perfetto see the true per-message structure.

Algorithms (``ALGORITHMS``):

``bulk``
    The legacy flat model: one synchronized op per device at the
    topology's effective all-to-all bandwidth (handled by
    :mod:`repro.comm.api`, not here — kept for back-compat/ablation).
``direct``
    Pairwise exchange: G-1 permutation rounds, round k pairs ``g`` with
    ``(g+k) % G``.  No forwarding, minimal wire bytes, one message
    latency per peer.
``ring``
    Store-and-forward around the ring ``g -> g+1``: G-1 rounds, only
    nearest-neighbour links, so every hop rides a direct edge on a ring
    topology — but each round depends on the previous round's receive.
``bruck``
    Dissemination/Bruck: ``ceil(log2 G)`` rounds at distance ``2^k``,
    fewer latencies but larger (forwarded) messages and non-neighbour
    partners — which on sparse topologies fall back to the slow path.
``hier``
    Two-level leader-based plan for multi-node machines (``node_of``
    annotation): funnel to the node leader, exchange between leaders
    over the NICs, scatter locally.
``hier2``
    Node-aware two-level plan that spreads the inter-node exchanges
    across a node's devices instead of funneling through one leader:
    intra-node gather to per-peer-node relays, exactly one inter-node
    message per ordered node pair, intra-node scatter.  The relay for
    node ``j`` within node ``i`` is ``groups[i][j % len(groups[i])]``,
    so NIC injection is load-balanced over the node's devices.

Every message carries read/write declares: reads on the source, writes
on the destination, using ``#part`` sub-resources so concurrent messages
of one collective never alias while whole-buffer consumers still
conflict (and therefore order) against all of them.  Forwarding
algorithms declare their staging buffers (``#via``/``#fwd``/``#nd``
parts) honestly; the chained dependency structure (``CommPlan.chained``)
is what makes the sanitizer prove them race-free.
"""

from __future__ import annotations

import numbers
from collections import Counter
from dataclasses import dataclass, replace

from repro.machine.cluster import VirtualCluster, price_p2p
from repro.util.validation import ParameterError, check_names

#: All algorithm names accepted by :func:`repro.comm.api.alltoall` /
#: ``allgather`` ("auto" resolves to one of the others per call).
ALGORITHMS = ("bulk", "direct", "ring", "bruck", "hier", "hier2")

#: Collective kinds a plan can be built for.
KINDS = ("alltoall", "allgather")


@dataclass(frozen=True)
class Msg:
    """One point-to-point message of a plan round.

    ``reads`` are buffer names on the source device, ``writes`` buffer
    names on the destination device (the cluster qualifies them).
    """

    src: int
    dst: int
    nbytes: float
    reads: tuple = ()
    writes: tuple = ()


@dataclass(frozen=True)
class CommPlan:
    """A collective decomposed into rounds of messages.

    ``chained`` means round ``k+1``'s send from a device must wait that
    device's round-``k`` receive (store-and-forward data dependency);
    non-chained plans only order rounds through per-stream program order.

    A plan from :func:`price_plan` (every plan the library issues or
    selects among) carries its prices: ``prices[r][i]`` is the
    ``(contended bandwidth, latency)`` of ``rounds[r][i]`` and ``time``
    the predicted completion, rounds back to back.  A hand-assembled
    plan is unpriced.  The first issue of a priced plan compiles it at
    those prices (:func:`compile_issue`), once per spec object.
    """

    algorithm: str
    kind: str
    rounds: tuple  # tuple[tuple[Msg, ...], ...]
    chained: bool
    prices: tuple = ()
    time: float = float("nan")

    @property
    def num_messages(self) -> int:
        return sum(len(r) for r in self.rounds)

    def wire_bytes(self) -> float:
        """Total bytes injected into the fabric (incl. forwarding)."""
        return sum(m.nbytes for r in self.rounds for m in r)


# ---------------------------------------------------------------------------
# alltoall plans
# ---------------------------------------------------------------------------

def _alltoall_direct(G: int, payload: float, reads: tuple, writes: tuple,
                     part: str) -> tuple[tuple, bool]:
    s = payload / (G - 1)
    rounds = []
    for k in range(1, G):
        rounds.append(tuple(
            Msg(g, (g + k) % G, s, reads,
                tuple(f"{w}{part}#s{g}" for w in writes))
            for g in range(G)
        ))
    return tuple(rounds), False


def _alltoall_ring(G: int, payload: float, reads: tuple, writes: tuple,
                   part: str) -> tuple[tuple, bool]:
    s = payload / (G - 1)
    w0 = writes[0]
    rounds = []
    for k in range(G - 1):
        msgs = []
        for g in range(G):
            d = (g + 1) % G
            rd = reads if k == 0 else (f"{w0}{part}#via@{k - 1}",)
            # the block arriving home at d this round originated k+1 hops back
            wr = tuple(f"{w}{part}#s{(d - 1 - k) % G}" for w in writes)
            if k < G - 2:  # the rest stages for further forwarding
                wr = wr + (f"{w0}{part}#via@{k}",)
            msgs.append(Msg(g, d, s * (G - 1 - k), rd, wr))
        rounds.append(tuple(msgs))
    return tuple(rounds), True


def _alltoall_bruck(G: int, payload: float, reads: tuple, writes: tuple,
                    part: str) -> tuple[tuple, bool]:
    s = payload / (G - 1)
    rounds = []
    k, step = 0, 1
    while step < G:
        nblocks = sum(1 for d in range(1, G) if (d >> k) & 1)
        msgs = []
        for g in range(G):
            dst = (g + step) % G
            rd = reads + tuple(
                f"{w}{part}#via{g}@{j}" for j in range(k) for w in writes
            )
            wr = tuple(f"{w}{part}#via{dst}@{k}" for w in writes)
            msgs.append(Msg(g, dst, s * nblocks, rd, wr))
        rounds.append(tuple(msgs))
        k += 1
        step <<= 1
    return tuple(rounds), True


# ---------------------------------------------------------------------------
# allgather plans
# ---------------------------------------------------------------------------

def _allgather_direct(G: int, b: float, reads: tuple, writes: tuple,
                      part: str) -> tuple[tuple, bool]:
    rounds = []
    for k in range(1, G):
        rounds.append(tuple(
            Msg(g, (g + k) % G, b, reads,
                tuple(f"{w}{part}#b{g}" for w in writes))
            for g in range(G)
        ))
    return tuple(rounds), False


def _allgather_ring(G: int, b: float, reads: tuple, writes: tuple,
                    part: str) -> tuple[tuple, bool]:
    rounds = []
    for k in range(G - 1):
        msgs = []
        for g in range(G):
            j = (g - k) % G  # block forwarded by g this round
            blk = tuple(f"{w}{part}#b{j}" for w in writes)
            rd = reads if k == 0 else blk
            msgs.append(Msg(g, (g + 1) % G, b, rd, blk))
        rounds.append(tuple(msgs))
    return tuple(rounds), True


def _allgather_bruck(G: int, b: float, reads: tuple, writes: tuple,
                     part: str) -> tuple[tuple, bool]:
    rounds = []
    c = 1
    while c < G:
        m = min(c, G - c)
        msgs = []
        for g in range(G):
            dst = (g - c) % G  # holds {g-c..g-1}; needs {g..g+m-1}
            blocks = [(g + t) % G for t in range(m)]
            rd = reads + tuple(
                f"{w}{part}#b{j}" for j in blocks[1:] for w in writes
            )
            wr = tuple(f"{w}{part}#b{j}" for j in blocks for w in writes)
            msgs.append(Msg(g, dst, b * m, rd, wr))
        rounds.append(tuple(msgs))
        c += m
    return tuple(rounds), True


# ---------------------------------------------------------------------------
# hierarchical (two-level) plans for multi-node machines
# ---------------------------------------------------------------------------

def _node_groups(graph, algorithm: str) -> list[list[int]]:
    """Device groups per node from the ``node_of`` annotation; a machine
    of fewer than two nodes has no ``algorithm`` plan."""
    nodes: dict[int, list[int]] = {}
    for dev, nd in (graph.graph.get("node_of") or {}).items():
        nodes.setdefault(nd, []).append(dev)
    if len(nodes) < 2:
        raise ParameterError(
            f"{algorithm} plans need a multi-node topology (node_of)")
    return [sorted(devs) for _, devs in sorted(nodes.items())]


def _intra_pairwise(groups, nbytes: float, reads: tuple, writes: tuple,
                    tag: str) -> list[tuple]:
    """Pairwise rounds inside every node: in round ``k`` each device
    sends to the one ``k`` places on in its group, writing ``w{tag}{g}``."""
    rounds = []
    for k in range(1, max(len(grp) for grp in groups)):
        msgs = tuple(Msg(g, grp[(i + k) % len(grp)], nbytes, reads,
                         tuple(f"{w}{tag}{g}" for w in writes))
                     for grp in groups if k < len(grp)
                     for i, g in enumerate(grp))
        if msgs:
            rounds.append(msgs)
    return rounds


def _alltoall_hier(graph, G: int, payload: float, reads: tuple,
                   writes: tuple, part: str) -> tuple[tuple, bool]:
    groups = _node_groups(graph, "hier")
    s = payload / (G - 1)
    w0 = writes[0]
    leaders = [grp[0] for grp in groups]
    nnodes = len(groups)
    # phase 0: intra-node pairwise exchange (final placement)
    rounds = _intra_pairwise(groups, s, reads, writes, f"{part}#s")
    # phase 1: non-leaders funnel their off-node data to the leader
    msgs = []
    for grp in groups:
        off = (G - len(grp)) * s
        for g in grp[1:]:
            msgs.append(Msg(g, grp[0], off, reads, (f"{w0}{part}#fwd{g}",)))
    if msgs:
        rounds.append(tuple(msgs))
    # phase 2: leaders exchange node aggregates pairwise over the NICs
    for k in range(1, nnodes):
        msgs = []
        for i, ld in enumerate(leaders):
            j = (i + k) % nnodes
            nb = len(groups[i]) * len(groups[j]) * s
            rd = reads + tuple(f"{w0}{part}#fwd{g}" for g in groups[i][1:])
            msgs.append(Msg(ld, leaders[j], nb, rd, (f"{w0}{part}#nd{i}",)))
        rounds.append(tuple(msgs))
    # phase 3: leaders scatter the received off-node data locally
    msgs = []
    for i, grp in enumerate(groups):
        rd = tuple(f"{w0}{part}#nd{j}" for j in range(nnodes) if j != i)
        for g in grp[1:]:
            msgs.append(Msg(grp[0], g, (G - len(grp)) * s, rd,
                            (f"{w0}{part}#rem",)))
    if msgs:
        rounds.append(tuple(msgs))
    return tuple(rounds), True


def _allgather_hier(graph, G: int, b: float, reads: tuple, writes: tuple,
                    part: str) -> tuple[tuple, bool]:
    groups = _node_groups(graph, "hier")
    leaders = [grp[0] for grp in groups]
    nnodes = len(groups)
    rounds: list[tuple] = []

    def blocks(devs) -> tuple:
        return tuple(f"{w}{part}#b{x}" for x in devs for w in writes)

    # phase 1: funnel contributions to the node leader
    msgs = [Msg(g, grp[0], b, reads, blocks([g]))
            for grp in groups for g in grp[1:]]
    if msgs:
        rounds.append(tuple(msgs))
    # phase 2: ring over leaders, forwarding whole node blocks
    for k in range(nnodes - 1):
        msgs = []
        for i, ld in enumerate(leaders):
            j = (i - k) % nnodes  # node block forwarded this round
            if j == i:  # own node: leader's block is in `reads`
                rd = reads + blocks(groups[j][1:])
            else:
                rd = blocks(groups[j])
            msgs.append(Msg(ld, leaders[(i + 1) % nnodes],
                            len(groups[j]) * b, rd, blocks(groups[j])))
        rounds.append(tuple(msgs))
    # phase 3: leaders deliver every foreign block to their locals —
    # off-node blocks from the leader ring plus the sibling blocks that
    # only exist on the leader (funneled there in phase 1) and the
    # leader's own contribution (still in the caller's `reads` buffer).
    msgs = []
    for grp in groups:
        for g in grp[1:]:
            staged = [x for x in range(G) if x != g and x != grp[0]]
            msgs.append(Msg(grp[0], g, (G - 1) * b, reads + blocks(staged),
                            blocks([x for x in range(G) if x != g])))
    if msgs:
        rounds.append(tuple(msgs))
    return tuple(rounds), True


def hier2_relay(groups: list[list[int]], i: int, j: int) -> int:
    """The device in node ``i`` that exchanges with node ``j``.

    ``groups[i][j % len(groups[i])]`` — a static assignment that spreads
    the per-peer-node relay duty across the node's devices, so a node's
    NIC traffic is injected by many devices instead of one leader.
    """
    grp = groups[i]
    return grp[j % len(grp)]


def _alltoall_hier2(graph, G: int, payload: float, reads: tuple,
                    writes: tuple, part: str) -> tuple[tuple, bool]:
    groups = _node_groups(graph, "hier2")
    s = payload / (G - 1)
    w0 = writes[0]
    nnodes = len(groups)
    # phase 0: intra-node pairwise exchange (final placement)
    rounds = _intra_pairwise(groups, s, reads, writes, f"{part}#s")
    # phase 1: gather — each device hands every relay the blocks that
    # relay will carry, one combined message per (device, relay) pair
    msgs = []
    for i, grp in enumerate(groups):
        for g in grp:
            per_relay: dict[int, list[int]] = {}
            for j in range(nnodes):
                if j == i:
                    continue
                h = hier2_relay(groups, i, j)
                if h == g:  # g relays its own blocks for node j
                    continue
                per_relay.setdefault(h, []).append(j)
            for h, js in sorted(per_relay.items()):
                nb = s * sum(len(groups[j]) for j in js)
                wr = tuple(f"{w0}{part}#g{g}@{j}" for j in js)
                msgs.append(Msg(g, h, nb, reads, wr))
    if msgs:
        rounds.append(tuple(msgs))
    # phase 2: exactly one inter-node message per ordered node pair,
    # scheduled as nnodes-1 contention-free permutation rounds
    for k in range(1, nnodes):
        msgs = []
        for i in range(nnodes):
            j = (i + k) % nnodes
            src = hier2_relay(groups, i, j)
            dst = hier2_relay(groups, j, i)
            nb = s * len(groups[i]) * len(groups[j])
            rd = reads + tuple(
                f"{w0}{part}#g{g}@{j}" for g in groups[i] if g != src
            )
            msgs.append(Msg(src, dst, nb, rd, (f"{w0}{part}#x{i}",)))
        rounds.append(tuple(msgs))
    # phase 3: scatter — each relay delivers the foreign blocks it
    # received to their final local destinations
    msgs = []
    for j, grp in enumerate(groups):
        for g in grp:
            per_relay = {}
            for i in range(nnodes):
                if i == j:
                    continue
                r = hier2_relay(groups, j, i)
                if r == g:  # arrived at g directly in phase 2
                    continue
                per_relay.setdefault(r, []).append(i)
            for r, srcs in sorted(per_relay.items()):
                nb = s * sum(len(groups[i]) for i in srcs)
                rd = tuple(f"{w0}{part}#x{i}" for i in srcs)
                msgs.append(Msg(r, g, nb, rd,
                                tuple(f"{w}{part}#rem{r}" for w in writes)))
    if msgs:
        rounds.append(tuple(msgs))
    return tuple(rounds), True


def _allgather_hier2(graph, G: int, b: float, reads: tuple, writes: tuple,
                     part: str) -> tuple[tuple, bool]:
    groups = _node_groups(graph, "hier2")
    nnodes = len(groups)

    def blocks(devs) -> tuple:
        return tuple(f"{w}{part}#b{x}" for x in devs for w in writes)

    # phase 0: intra-node pairwise allgather (every device gets its
    # siblings' contributions — so any device can relay the node block)
    rounds = _intra_pairwise(groups, b, reads, writes, f"{part}#b")
    # phase 1: one inter-node message per ordered node pair carries the
    # whole node block, relays spread across the node's devices
    for k in range(1, nnodes):
        msgs = []
        for i in range(nnodes):
            j = (i + k) % nnodes
            src = hier2_relay(groups, i, j)
            dst = hier2_relay(groups, j, i)
            rd = reads + blocks([g for g in groups[i] if g != src])
            msgs.append(Msg(src, dst, len(groups[i]) * b, rd,
                            blocks(groups[i])))
        rounds.append(tuple(msgs))
    # phase 2: relays broadcast the foreign node blocks they received
    # to their local siblings
    msgs = []
    for j, grp in enumerate(groups):
        for g in grp:
            per_relay: dict[int, list[int]] = {}
            for i in range(nnodes):
                if i == j:
                    continue
                r = hier2_relay(groups, j, i)
                if r == g:
                    continue
                per_relay.setdefault(r, []).append(i)
            for r, srcs in sorted(per_relay.items()):
                origins = [x for i in srcs for x in groups[i]]
                msgs.append(Msg(r, g, len(origins) * b, blocks(origins),
                                blocks(origins)))
    if msgs:
        rounds.append(tuple(msgs))
    return tuple(rounds), True


# ---------------------------------------------------------------------------
# costing + dispatch
# ---------------------------------------------------------------------------

def price_round(spec, msgs) -> tuple[tuple, float]:
    """``(per-message (bandwidth, latency), completion time)`` of a round.

    Each message crosses the wire segments of its pair (a dedicated
    edge, or the hops of its routed path — ``spec.pair(...).segments``);
    within a round every segment is shared equally by the same-direction
    messages mapped to it, so a message's bandwidth is the minimum over
    its segments of ``capacity / load`` (links stay full duplex:
    opposite directions never contend).  The round completes with its
    slowest message.
    """
    pairs = [spec.pair(m.src, m.dst) for m in msgs]
    load: Counter = Counter()
    for p in pairs:
        for key, _ in p.segments:
            load[key] += 1
    prices = tuple(
        (min(bw / load[key] for key, bw in p.segments), p.latency)
        for p in pairs
    )
    return prices, max(
        spec.p2p_time(m.src, m.dst, m.nbytes, bw, lat)
        for m, (bw, lat) in zip(msgs, prices)
    )


def price_plan(spec, plan: CommPlan) -> CommPlan:
    """``plan`` carrying its prices on ``spec`` — computed once, here."""
    priced = [price_round(spec, r) for r in plan.rounds]
    return replace(plan, prices=tuple(p for p, _ in priced),
                   time=sum(t for _, t in priced))


def compile_issue(spec, plan: CommPlan) -> tuple:
    """``plan``'s messages as the engine's issue half takes them, priced
    by :func:`repro.machine.cluster.price_p2p` at the stored prices once
    per spec object and kept in ``spec.plans`` beside the plan.

    Returns ``(messages, last)``.  A message is ``(src, dst, opcode,
    duration, bytes, reads, writes, qualified reads, qualified writes,
    dep)``; ``dep`` indexes the message it waits on (a chained
    plan's last receive at its sender in an earlier round), -1 for none,
    ``None`` for the caller's ``after`` (round 0).  ``last[g]`` holds
    ``(engine, index)`` of the messages that last used device ``g``'s
    ``tx`` and ``rx`` engines, in issue order.
    """
    key = ("issue", id(plan))  # the entry holds the plan: no id reuse
    form = spec.plans.get(key)
    if form is not None:
        return form[1]
    qualify = VirtualCluster._qualify
    msgs: list[tuple] = []
    last: list[dict] = [{} for _ in range(spec.num_devices)]
    last_recv = [-1] * spec.num_devices
    for ridx, (rnd, prices) in enumerate(
            zip(plan.rounds, plan.prices, strict=True)):
        new_recv = {}
        for m, (bw, lat) in zip(rnd, prices, strict=True):
            op, dur, nbytes = price_p2p(
                spec, m.src, m.dst, m.nbytes, plan.algorithm, bw, lat)
            i = len(msgs)
            msgs.append((m.src, m.dst, op, dur, nbytes, m.reads, m.writes,
                         qualify(m.src, m.reads), qualify(m.dst, m.writes),
                         None if ridx == 0
                         else last_recv[m.src] if plan.chained else -1))
            new_recv[m.dst] = i
            for g, engine in ((m.src, "tx"), (m.dst, "rx")):
                last[g].pop(engine, None)
                last[g][engine] = i
        for d, i in new_recv.items():
            last_recv[d] = i
    form = (tuple(msgs), tuple(tuple(t.items()) for t in last))
    spec.plans[key] = (plan, form)
    return form


def check_payload(payload: float) -> None:
    """Reject a payload that is not a number of bytes (a ``bool`` is
    not one), finite and >= 0 (NaN fails too)."""
    if (isinstance(payload, bool) or not isinstance(payload, numbers.Real)
            or not 0.0 <= payload < float("inf")):
        raise ParameterError(
            f"payload must be finite and >= 0 bytes, got {payload!r}")


#: algorithm -> its (alltoall, allgather) builders, in ``KINDS`` order;
#: the hierarchical ones take the machine's graph (its node map) first
_BUILDERS = {
    "direct": (_alltoall_direct, _allgather_direct),
    "ring": (_alltoall_ring, _allgather_ring),
    "bruck": (_alltoall_bruck, _allgather_bruck),
    "hier": (_alltoall_hier, _allgather_hier),
    "hier2": (_alltoall_hier2, _allgather_hier2),
}


def build_plan(
    spec,
    kind: str,
    payload: float,
    algorithm: str,
    reads: tuple = (),
    writes: tuple = ("comm",),
    part: str = "",
    certify: bool = True,
) -> CommPlan:
    """Build the message plan for one collective on one machine.

    ``payload`` is the per-device payload: total bytes each device sends
    for an alltoall, the per-device contribution for an allgather.
    ``reads``/``writes`` are the caller's base buffer names (already
    chunk-qualified on the read side); ``part`` is the chunk tag appended
    to write names before the per-message ``#s``/``#b`` sub-parts.

    The plan comes back priced on ``spec`` (:func:`price_plan`), built
    once per spec object and argument tuple and kept in ``spec.plans``.
    Unless ``certify=False``, every call — a stored plan too — admits it
    through the static verifier
    (:func:`repro.analysis.plancheck.certify_plan`) before it is
    returned: deadlock-freedom, payload conservation, and buffer
    liveness are proved once per ``(spec_fingerprint, kind, algorithm)``
    and cached, so the warm path pays two dict lookups.
    """
    G = spec.num_devices
    check_payload(payload)
    if kind not in KINDS:
        raise ParameterError(f"unknown collective kind {kind!r}")
    if G < 2:
        raise ParameterError("message plans need at least 2 devices")
    if not writes:
        raise ParameterError("message plans need at least one write buffer")
    if algorithm not in _BUILDERS:
        raise ParameterError(f"unknown plan algorithm {algorithm!r}; choose from {list(_BUILDERS)}")
    check_names("reads", reads)
    check_names("writes", writes)
    reads, writes = tuple(reads), tuple(writes)
    key = (kind, payload, algorithm, reads, writes, part)
    plan = spec.plans.get(key)
    if plan is None:
        build = _BUILDERS[algorithm][KINDS.index(kind)]
        graph = (spec.graph,) if algorithm.startswith("hier") else ()
        rounds, chained = build(*graph, G, payload, reads, writes, part)
        plan = spec.plans[key] = price_plan(spec, CommPlan(algorithm, kind, rounds, chained))
    if certify:
        from repro.analysis.plancheck import certify_plan  # lazy: no cycle

        certify_plan(spec, plan, payload)
    return plan

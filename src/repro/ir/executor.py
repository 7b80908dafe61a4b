"""Compiled replay executor: re-issue a captured tape with zero planning.

:func:`compile_tape` turns an :class:`~repro.ir.graph.IRGraph` into a
cluster-independent *tape*, once, kept on the graph: each node names
the engine *issue half* of its primitive (``VirtualCluster._issue_*``)
with its arguments frozen — buffers qualified (and optionally
slot-renamed), regions stripped, durations as priced.
:class:`ReplayExecutor` binds a tape to one cluster's issue halves, and
:meth:`ReplayExecutor.run` is a loop that turns each step's
dependency indices into a time and a ``waits`` tuple and hands the
step to the engine.  Start times, attempt outcomes under a fault
injector, ledger records, clock advances, closures, and per-message
telemetry are the engine's: the eager primitives call the same issue
halves right after pricing, so there is one copy of the stream/event
algebra and nothing here to keep in step with it.  No pipeline object,
plan, operator bundle, comm plan, roofline evaluation, or region
context manager is constructed per run — that is the entire point.

All durations were priced fault-free at capture and every dependency
names its producers, so a replay beginning from the same stream state
as an eager run — under the same fault history, whatever the history
the graph was captured under — produces bit-identical ledger records
(modulo the requested buffer renaming / region prefix), which the
bit-identity and faults × replay test matrices assert via
:meth:`Ledger.fingerprint`.  Where a dependency names several producers
(``cluster.latest``), the ``waits`` edge goes to whichever finished
last in *this* run.

Replay refuses machines whose spec fingerprint differs from the capture
machine (durations would silently misprice).
"""

from __future__ import annotations

from functools import partial

from repro.ir.graph import (
    OP_ACTION,
    OP_BARRIER,
    OP_COLL,
    OP_COLL1,
    OP_HOST,
    OP_LAUNCH,
    OP_LOG,
    OP_P2P,
    OP_P2P_SELF,
)
from repro.machine.spec import spec_fingerprint
from repro.util.validation import ParameterError


class ReplayError(ParameterError):
    """The graph cannot be replayed on this cluster."""


def _rename(name: str, old: str, new: str) -> str:
    if old and name.startswith(old):
        return new + name[len(old):]
    return name


def compile_tape(graph, rename: tuple | None = None,
                 region_strip: int = 0) -> tuple:
    """The cluster-independent half of replaying ``graph`` (parameters as
    for :class:`ReplayExecutor`), kept in ``graph.tapes``: per node, its
    issue half's name and frozen arguments, dependency slots and region."""
    tape = graph.tapes.get((rename, region_strip))
    if tape is not None:
        return tape
    old, new = rename if rename is not None else ("", "")
    G = graph.meta["G"]
    # tapes outlive the batches binding them, so they share what they can
    # (the dependency slots are the same in all tapes of a graph)
    names: dict = {}
    quals: dict = {}
    regions: dict = {}
    other = next(iter(graph.tapes.values()), None)

    def q(g, bufs):
        out = quals.get((g, bufs))
        if out is None:
            out = quals[g, bufs] = tuple([(g, names.setdefault(
                b, _rename(b, old, new))) for b in bufs])
        return out

    steps = []
    for k, n in enumerate(graph.nodes):
        op, g = n.op, n.device
        if op in (OP_LAUNCH, OP_HOST):  # a host op is a free launch
            issue = "_issue_launch"
            args = (g, n.stream, n.kind, n.name, n.duration, n.flops,
                    n.mops, q(g, n.reads), q(g, n.writes), n.fn)
        elif op in (OP_P2P, OP_P2P_SELF):  # a self-send a free message
            issue = "_issue_p2p"
            args = (g, n.peer, n.name, n.duration, n.comm_bytes,
                    q(g, n.reads), q(n.peer, n.writes), n.fn)
        elif op == OP_COLL:
            issue = "_issue_collective"
            args = (n.name, n.duration, n.comm_bytes,
                    [q(d, n.reads) for d in range(G)],
                    [q(d, n.writes) for d in range(G)], n.fn)
        elif op in (OP_COLL1, OP_ACTION):
            issue = "_issue_collective1" if op == OP_COLL1 else "_issue_action"
            args = (n.fn,)
        elif op == OP_BARRIER:
            issue, args = "_issue_barrier", ()
        elif op == OP_LOG:
            issue = "_issue_log"
            args = (n.payload["entry"],)
        else:  # pragma: no cover - graph.validate() rejects these
            raise ReplayError(f"unknown IR opcode {op!r}")
        # the deps as slots of the loop's per-run tables (slot 0 is the
        # release, step i is slot i + 1): the distinct producers gating
        # the start, and the wait edges — fixed, or (``among``) every
        # entry's candidates when one of them is decided per run
        order = wait = among = ()
        if other is not None:
            order, wait, among = other[k][2:5]
        elif n.deps:
            slots = [[(i + 1, sub, w) for i, sub, w in
                      (d if type(d[0]) is tuple else (d,))]
                     for d in n.deps]
            order = tuple(dict.fromkeys(
                [c[0] for cands in slots for c in cands]))
            if max(map(len, slots)) > 1:
                among = tuple([(*cands[0], tuple(cands[1:]))
                               for cands in slots])
            else:
                wait = tuple([c[:2] for (c,) in slots if c[2]])
        region = regions.get(n.region)
        if region is None:
            region = regions[n.region] = "/".join(
                n.region.split("/")[region_strip:])
        steps.append((issue, args, order, wait, among, region))
    tape = graph.tapes[rename, region_strip] = tuple(steps)
    return tape


class ReplayExecutor:
    """One graph's compiled tape bound to one cluster (see module
    docstring).

    Parameters
    ----------
    graph:
        A captured (and normally certified) :class:`IRGraph`.
    cluster:
        The live cluster to replay onto.  Must match the capture spec
        fingerprint.
    rename:
        Optional ``(old_prefix, new_prefix)`` rewriting every captured
        buffer name that starts with ``old_prefix`` — how the serve
        layer re-homes a graph captured under ``serve.b<bid>`` into a
        reusable slot namespace.
    region_strip:
        Number of leading region-path components to drop at compile
        time; :meth:`run`'s ``region_prefix`` is prepended to the
        remainder, so replays can stamp truthful per-batch regions.
    """

    def __init__(self, graph, cluster, rename: tuple | None = None,
                 region_strip: int = 0):
        if cluster.G != graph.meta["G"]:
            raise ReplayError(
                f"graph captured on G={graph.meta['G']}, "
                f"cluster has G={cluster.G}")
        fp = spec_fingerprint(cluster.spec)
        if fp != graph.meta["spec_fingerprint"]:
            raise ReplayError(
                "graph captured on a different machine spec; modeled "
                "durations would not transfer")
        self.graph = graph
        self.cluster = cluster
        # only the issue halves belong to a cluster (they find the streams)
        halves: dict = {}
        steps = []
        for issue, args, order, wait, among, region in compile_tape(
                graph, rename, region_strip):
            bound = halves.get(issue)
            if bound is None:
                bound = halves[issue] = getattr(cluster, issue)
            steps.append((partial(bound, *args), order, wait, among, region))
        self._steps = steps

    def run(self, release: float = 0.0, region_prefix: str = "") -> float:
        """Replay once; returns the latest record end time (the finish).

        ``release`` substitutes the external release dependency;
        ``region_prefix`` (e.g. ``"serve/b7/"``) is prepended to each
        record's compile-stripped region remainder.
        """
        ends: list = [release]
        uids: list = [None]
        finish = 0.0
        for issue, order, wait, among, region in self._steps:
            t = 0.0
            for slot in order:
                e = ends[slot]
                if e > t:
                    t = e
            if among:
                w = []
                for slot, sub, in_waits, rest in among:
                    # the candidate that finished last, the first on a tie
                    last = ends[slot]
                    for c in rest:
                        if ends[c[0]] > last:
                            slot, sub, in_waits = c
                            last = ends[slot]
                    if in_waits:
                        w.append(uids[slot] if sub < 0 else uids[slot][sub])
                wait = tuple(w)
            elif wait:
                w = []
                for slot, sub in wait:
                    w.append(uids[slot] if sub < 0 else uids[slot][sub])
                wait = tuple(w)
            end, uid = issue(t, wait, region_prefix + region)
            ends.append(end)
            uids.append(uid)
            if uid is not None and end > finish:
                finish = end
        return finish


def scratch_replay(graph, spec):
    """Timing-only replay onto a fresh cluster; returns that cluster.

    The normalized single-run ledger this produces (clocks from zero,
    uids from zero) is what :meth:`IRGraph.certify` hazard-checks, and
    what tests fingerprint against an interpreted run.
    """
    from repro.machine.cluster import VirtualCluster

    cl = VirtualCluster(spec, execute=False)
    kept = (None, 0) in graph.tapes
    ReplayExecutor(graph, cl).run()
    if not kept:  # a one-off replay does not keep its tape
        del graph.tapes[None, 0]
    return cl

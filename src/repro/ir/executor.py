"""Compiled replay executor: re-issue a captured tape with zero planning.

:class:`ReplayExecutor` compiles an :class:`~repro.ir.graph.IRGraph`
against one live cluster exactly once — binding each node to the engine
*issue half* of its primitive (``VirtualCluster._issue_*``), resolving
stream objects, pre-qualifying (and optionally slot-renaming) buffer
declarations, pre-splitting region paths, and freezing every modeled
duration — and then :meth:`run` is a loop that turns each step's
dependency indices into a time and a ``waits`` tuple and hands the step
to the engine.  Start times, attempt outcomes under a fault injector,
ledger records, clock advances, closures, and per-message telemetry are
the engine's: the eager primitives call the same issue halves right
after pricing, so there is one copy of the stream/event algebra and
nothing here to keep in step with it.  No
pipeline object, plan, operator bundle, comm plan, roofline evaluation,
or region context manager is constructed per run — that is the entire
point.

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


class ReplayExecutor:
    """One graph compiled against one cluster (see module docstring).

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
        old, new = rename if rename is not None else ("", "")
        G = cluster.G
        devs = cluster.devices
        tx = [d.stream("comm.tx") for d in devs]
        rx = [d.stream("comm.rx") for d in devs]
        regions: dict = {}
        renamed: dict = {}

        def q(g, names):
            out = []
            for b in names:
                r = renamed.get(b)
                if r is None:
                    r = renamed[b] = _rename(b, old, new)
                out.append((g, r))
            return tuple(out)

        steps = []
        for n in graph.nodes:
            op, g = n.op, n.device
            if op in (OP_LAUNCH, OP_HOST):  # a host op is a free launch
                issue = cluster._issue_launch
                args = (devs[g].stream(n.stream), g, n.stream, n.kind,
                        n.name, n.duration, n.flops, n.mops,
                        q(g, n.reads), q(g, n.writes), n.fn)
            elif op in (OP_P2P, OP_P2P_SELF):  # a self-send a free message
                issue = cluster._issue_p2p
                args = (tx[g], rx[n.peer], g, n.peer, n.name, n.duration,
                        n.comm_bytes, q(g, n.reads), q(n.peer, n.writes),
                        n.fn, n.tel)
            elif op == OP_COLL:
                issue = cluster._issue_collective
                args = (n.name, n.duration, n.comm_bytes,
                        [q(d, n.reads) for d in range(G)],
                        [q(d, n.writes) for d in range(G)], n.fn)
            elif op == OP_COLL1:
                issue = cluster._issue_collective1
                args = (tx[0], n.fn)
            elif op == OP_BARRIER:
                issue, args = cluster._issue_barrier, ()
            elif op == OP_ACTION:
                issue, args = cluster._issue_action, (n.fn,)
            elif op == OP_LOG:
                issue = cluster._issue_log
                args = (n.payload["entry"], n.payload.get("bulk_bytes"))
            else:  # pragma: no cover - graph.validate() rejects these
                raise ReplayError(f"unknown IR opcode {op!r}")
            # what the loop needs of the deps, as slots of its per-run
            # tables (slot 0 is the release, step i is slot i + 1): the
            # distinct producers whose completion gates the start, and
            # the wait edges — fixed ones, or (``among``) every entry as
            # its candidates when one of them is decided per run
            order = wait = among = ()
            if n.deps:
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
            steps.append((partial(issue, *args), order, wait, among, region))
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
    ReplayExecutor(graph, cl).run()
    return cl

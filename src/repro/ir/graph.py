"""The op-graph IR: explicit nodes for everything a pipeline issues.

An :class:`IRGraph` is the captured form of one pipeline run on a
:class:`~repro.machine.cluster.VirtualCluster`: a flat, topologically
ordered list of :class:`IRNode` entries, one per engine primitive the
run issued (kernel launch, host op, point-to-point transfer, bulk
collective, barrier) plus bookkeeping nodes for host-side data actions
and ``comm_log`` entries.  The nodes are the engine's own capture tape
(:mod:`repro.machine.tape` defines them and the engine writes them):
each is a step exactly as the engine priced it — op kind/name, modeled
duration, flops/mops/comm bytes, declared read/write buffer sets, and
the region path — so re-issuing it produces ledger records,
hazard-sanitizer input, trace spans, and telemetry identical to the
eager run that was captured.

Dependencies are structural, not temporal: each node stores
``(producer_index, sub, in_waits)`` triples resolved at capture time
from the event objects the pipeline actually passed — every event names
the step that produced it — where ``sub`` selects one device's
completion out of a collective and ``in_waits`` says whether the edge
appears in the ledger record's ``waits`` tuple (synthetic ``op == -1``
events contribute ordering but no wait edge).  ``producer_index == -1``
is the external *release* dependency — the serve scheduler's
batch-release event — substituted per replay.  A dependency on the
latest of several events (``cluster.latest``) is a tuple of such
triples: the node follows every one, and the ``waits`` edge goes to
whichever finishes last when the node is issued, so the graph stays
valid under any fault history.

The IR is backend-neutral by construction: nothing in a node references
the virtual engine beyond stream *names* and modeled durations, so
another engine only needs its own issue halves.

Construction of nodes and graphs is confined to :mod:`repro.machine`
(the tape) and :mod:`repro.ir` by the ``engine-site`` lint rule —
everyone else receives graphs from :func:`repro.ir.capture.capture` or
the pipeline helpers in :mod:`repro.ir.pipelines`.
"""

from __future__ import annotations

from repro.machine.tape import (  # noqa: F401 - the IR's node vocabulary
    OP_ACTION,
    OP_BARRIER,
    OP_COLL,
    OP_COLL1,
    OP_HOST,
    OP_LAUNCH,
    OP_LOG,
    OP_P2P,
    OP_P2P_SELF,
    IRNode,
)
from repro.util.validation import ParameterError

#: opcodes that append ledger records when replayed
RECORD_OPS = (OP_LAUNCH, OP_HOST, OP_P2P_SELF, OP_P2P, OP_COLL)


class IRGraph:
    """A captured pipeline schedule, ready for replay.

    Attributes
    ----------
    nodes:
        Topologically ordered :class:`IRNode` list.
    meta:
        Capture provenance: ``pipeline`` (e.g. ``"fmmfft"``), ``key``
        (the pipeline's plan key, hashable), ``G``, ``spec_fingerprint``
        (replay is only valid on an identical machine), and
        ``buffer_prefix`` (the namespace captured buffers live under,
        for slot renaming).
    stage_in:
        Optional ``stage_in(*inputs)`` callable re-staging input device
        buffers before an execute-mode replay (pipelines transform
        buffers in place, so replaying without re-staging would
        transform the previous output).  Bound to the capture cluster,
        as are the captured closures; None until a pipeline helper
        attaches it.
    finalize:
        Optional ``finalize() -> ndarray`` gathering the output after
        an execute-mode replay (same binding).
    tapes:
        Replay tapes (:func:`repro.ir.executor.compile_tape`) by
        ``(rename, region_strip)``: they go when the graph goes.
    """

    def __init__(self, nodes: list[IRNode], meta: dict):
        self.nodes = nodes
        self.meta = dict(meta)
        self.stage_in = None
        self.finalize = None
        self._certified: dict | None = None
        self.tapes: dict[tuple, tuple] = {}

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def num_records(self) -> int:
        """Ledger records one replay of this graph appends."""
        total = 0
        for n in self.nodes:
            if n.op == OP_COLL:
                total += self.meta["G"]
            elif n.op in RECORD_OPS:
                total += 1
        return total

    def op_counts(self) -> dict[str, int]:
        """Node count per opcode (stable key order)."""
        out: dict[str, int] = {}
        for n in self.nodes:
            out[n.op] = out.get(n.op, 0) + 1
        return dict(sorted(out.items()))

    def buffers(self) -> set:
        """All ``(device, name)`` buffer references the graph declares."""
        G = self.meta["G"]
        out: set = set()
        for n in self.nodes:
            if n.op == OP_COLL:
                for g in range(G):
                    out.update((g, b) for b in n.reads)
                    out.update((g, b) for b in n.writes)
            elif n.op == OP_P2P:
                out.update((n.device, b) for b in n.reads)
                out.update((n.peer, b) for b in n.writes)
            elif n.op in RECORD_OPS:
                out.update((n.device, b) for b in n.reads)
                out.update((n.device, b) for b in n.writes)
        return out

    def comm_calls(self) -> list[dict]:
        """The captured ``comm_log`` entries, in issue order."""
        return [dict(n.payload["entry"]) for n in self.nodes
                if n.op == OP_LOG]

    def summary(self) -> dict:
        """Plain-dict overview (the ``repro ir --json`` core)."""
        return {
            "pipeline": self.meta.get("pipeline", ""),
            "G": self.meta["G"],
            "nodes": len(self.nodes),
            "records_per_replay": self.num_records,
            "op_counts": self.op_counts(),
            "buffers": len(self.buffers()),
            "comm_calls": len(self.comm_calls()),
        }

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Structural sanity: dep indices acyclic (strictly backward)."""
        for i, n in enumerate(self.nodes):
            for idx, sub, _ in n.producers():
                if idx >= i:
                    raise ParameterError(
                        f"IR node {i} ({n.op} {n.name!r}) depends on node "
                        f"{idx} which does not precede it")
                if idx >= 0 and sub >= 0 and self.nodes[idx].op != OP_COLL:
                    raise ParameterError(
                        f"IR node {i} has a per-device dep on non-collective "
                        f"node {idx}")

    def certify(self, spec) -> dict:
        """Certify the graph once: a hazard-free scratch replay.

        Replays the graph timing-only onto a scratch cluster of the
        same spec and runs the hazard sanitizer over the resulting
        ledger.  Returns a summary dict and caches it; raises
        :class:`~repro.analysis.hazards.HazardError` on any hazard, so
        a graph that certifies once is safe to replay forever.  Its
        messages are not checked again: they are the compiled messages
        of plans ``build_plan`` certified when the capture run built
        them (grouped, halo and p2p exchanges forward nothing).
        """
        if self._certified is not None:
            return self._certified
        from repro.ir.executor import scratch_replay

        self.validate()
        scratch = scratch_replay(self, spec)
        scratch.sanitize()
        self._certified = {"hazards": 0, "records": len(scratch.ledger)}
        return self._certified

"""The graph-level preallocation contract, from plan certificates.

PR 6's static plan verifier left a promissory note: every
:class:`~repro.analysis.plancheck.PlanCertificate` carries a
``prealloc`` dict — per-device peak live bytes — "as the preallocation
contract a compiled plan-IR executor can size its buffers from".  This
module cashes it.  :func:`check_graph_prealloc` re-certifies every
communication call a captured graph performs (rebuilding each message
plan deterministically from the logged algorithm/payload/chunks),
derives the graph-level contract as the element-wise maximum of the
per-collective contracts, and cross-checks the *captured* messages
against the certificates:

- ``prealloc-conservation`` — the bytes the captured nodes actually
  move must equal what the certificate says crosses the wire;
- ``prealloc-messages`` — the captured message count must match the
  certified plan;
- ``prealloc-message-exceeds-peak`` — no single captured message may
  carry more bytes than the contract says a device ever holds live
  (the replay executor sizes slot buffers from this number);
- certificate findings themselves pass through unchanged.

On success the contract is attached as ``graph.prealloc`` and the
returned findings list is empty — :meth:`IRGraph.certify` treats any
``error``-severity row as a refusal to replay, and ``repro verify
--ir`` sweeps the check across every pipeline x algorithm and folds
the rows into the shared analysis-findings document.
"""

from __future__ import annotations

from repro.analysis.findings import Finding, finding_context
from repro.analysis.plancheck import check_bulk, check_plan
from repro.comm.plans import build_plan
from repro.ir.graph import OP_COLL, OP_LOG, OP_P2P, OP_P2P_SELF

_TOOL = "ir"


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))


class _CallWindow:
    """Captured p2p/collective nodes accumulated since the last log."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.msgs = 0
        self.bytes = 0.0
        self.max_msg = 0.0
        self.colls = 0
        self.coll_bytes = 0.0
        self.per_dst: dict[int, float] = {}

    def add_p2p(self, node):
        self.msgs += 1
        self.bytes += node.comm_bytes
        if node.comm_bytes > self.max_msg:
            self.max_msg = node.comm_bytes
        d = self.per_dst
        d[node.peer] = d.get(node.peer, 0.0) + node.comm_bytes

    def add_coll(self, node, G: int):
        self.colls += 1
        self.coll_bytes += G * node.comm_bytes


def check_graph_prealloc(graph, spec) -> list[Finding]:
    """Certify every comm call of a captured graph (module docstring).

    Attaches the derived contract as ``graph.prealloc`` and returns the
    findings (empty when everything checks out).
    """
    G = graph.meta["G"]
    findings: list[Finding] = []
    peak = [0.0] * G
    win = _CallWindow()

    def ctx(entry, **kw):
        return finding_context(name=entry["name"], kind=entry["kind"],
                               algorithm=entry["algorithm"], G=G, **kw)

    def err(rule, msg, entry, **kw):
        findings.append(Finding(tool=_TOOL, rule=rule, severity="error",
                                message=msg, context=ctx(entry, **kw)))

    for node in graph.nodes:
        if node.op == OP_P2P:
            win.add_p2p(node)
        elif node.op == OP_P2P_SELF:
            win.msgs += 1
        elif node.op == OP_COLL:
            win.add_coll(node, G)
        elif node.op == OP_LOG:
            entry = node.payload["entry"]
            kind, algo = entry["kind"], entry["algorithm"]
            payload, chunks = entry["payload"], entry.get("chunks", 1)
            if algo == "grouped":
                # concurrent subgroup all-to-alls (pencil exchanges): the
                # groups are not in the log, so the contract is read off
                # the captured messages -- every member receives, and
                # holds live, exactly the payload its peers send it
                for dst, b in win.per_dst.items():
                    if not _close(b, payload):
                        err("prealloc-conservation",
                            f"{entry['name']}: device {dst} receives "
                            f"{b:.0f} bytes of a grouped all-to-all whose "
                            f"members exchange {payload:.0f}", entry)
                    if b > peak[dst]:
                        peak[dst] = b
            elif kind in ("alltoall", "allgather"):
                if algo == "bulk":
                    cert = check_bulk(spec, kind, payload)
                    expected = (G * payload if kind == "alltoall"
                                else G * (G - 1) * payload)
                    if win.colls != chunks:
                        err("prealloc-messages",
                            f"{entry['name']}: bulk {kind} captured "
                            f"{win.colls} collective issue(s), expected "
                            f"{chunks} chunk(s)", entry)
                    if not _close(win.coll_bytes, expected):
                        err("prealloc-conservation",
                            f"{entry['name']}: bulk {kind} moved "
                            f"{win.coll_bytes:.0f} ledger bytes, certificate "
                            f"prices {expected:.0f}", entry)
                else:
                    plan = build_plan(spec, kind, payload / chunks, algo,
                                      certify=False)
                    cert = check_plan(spec, plan, payload / chunks)
                    findings.extend(cert.findings)
                    if win.msgs != chunks * cert.num_messages:
                        err("prealloc-messages",
                            f"{entry['name']}: captured {win.msgs} "
                            f"message(s), certified plan has "
                            f"{chunks * cert.num_messages}", entry)
                    if not _close(win.bytes, chunks * cert.wire_bytes):
                        err("prealloc-conservation",
                            f"{entry['name']}: captured messages carry "
                            f"{win.bytes:.0f} wire bytes, certificate "
                            f"prices {chunks * cert.wire_bytes:.0f}", entry)
                per_dev = cert.prealloc.get(
                    "per_device_peak_live_bytes", [0.0] * G)
                for g in range(G):
                    if per_dev[g] > peak[g]:
                        peak[g] = per_dev[g]
                if win.max_msg > cert.prealloc.get(
                        "peak_live_bytes", float("inf")) * (1 + 1e-6):
                    err("prealloc-message-exceeds-peak",
                        f"{entry['name']}: a captured message carries "
                        f"{win.max_msg:.0f} B, above the certified peak "
                        f"live {cert.prealloc['peak_live_bytes']:.0f} B",
                        entry)
            elif kind == "halo":
                # a ring halo holds both neighbours' slabs live at once
                if win.msgs != 2 * G:
                    err("prealloc-messages",
                        f"{entry['name']}: halo captured {win.msgs} "
                        f"message(s), the two ring shifts need {2 * G}",
                        entry)
                if not _close(win.bytes, 2 * G * payload):
                    err("prealloc-conservation",
                        f"{entry['name']}: halo moved {win.bytes:.0f} "
                        f"bytes, expected {2 * G * payload:.0f}", entry)
                for g in range(G):
                    if 2 * payload > peak[g]:
                        peak[g] = 2 * payload
            elif kind == "p2p":
                if win.msgs != 1:
                    err("prealloc-messages",
                        f"{entry['name']}: p2p logged one transfer but "
                        f"{win.msgs} message(s) were captured", entry)
                for dst, b in win.per_dst.items():
                    if b > peak[dst]:
                        peak[dst] = b
            win.reset()

    graph.prealloc = {
        "per_device_peak_live_bytes": list(peak),
        "peak_live_bytes": max(peak) if peak else 0.0,
    }
    return findings

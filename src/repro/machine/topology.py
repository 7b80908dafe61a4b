"""Interconnect topology graphs and all-to-all bandwidth analysis.

Devices are nodes; NVLink/PCIe links are edges carrying a
:class:`~repro.machine.spec.LinkSpec`.  Links are full duplex and each
connected pair owns its edge exclusively (NVLink point-to-point), so a
device can drive all of its links simultaneously.

Pairs *without* a direct edge cannot do NVLink P2P at all — on the real
DGX-1 (P100) such traffic falls back to the shared PCIe/QPI path.  The
graph stores that fallback as ``graph.graph['fallback_link']``; each
device serializes all of its fallback traffic through that one interface.
This asymmetry is what makes the 8-GPU all-to-all scale "more poorly"
(Section 6.1): 4 of 7 peers are NVLink-direct, 3 ride shared PCIe.

Two derived quantities drive the simulator's communication costs:

- **pair bandwidth** — direct edge bandwidth, or the fallback bandwidth.
- **all-to-all effective bandwidth** — per-device injection rate for the
  personalized all-to-all (the FFT transpose).  With per-pair message
  size ``s``: the NVLink part finishes in ``s / min_edge_bw`` (all edges
  in parallel), the fallback part in ``k * s / fallback_bw`` for ``k``
  non-adjacent peers, and the collective takes the max of the two.
"""

from __future__ import annotations

import itertools
from collections import Counter

from repro.machine import routing
from repro.machine.graph import Graph
from repro.util.validation import ParameterError

#: Shared PCIe/QPI path used when two GPUs have no NVLink edge
#: (approximate achieved DGX-1 cross-quad PCIe bandwidth).
DEFAULT_FALLBACK_BANDWIDTH = 10e9
DEFAULT_FALLBACK_LATENCY = 15e-6

#: Fraction of peak P2P bandwidth a strided, chunked personalized
#: all-to-all achieves in practice (pack granularity, protocol overhead,
#: simultaneous bidirectional traffic).  Calibrated so the simulated
#: cuFFTXT-style transposes reproduce the paper's measured speedup bands.
ALLTOALL_EFFICIENCY = 0.55


class _FallbackLink:
    """Minimal LinkSpec-alike for the shared PCIe fallback path."""

    def __init__(self, bandwidth: float, latency: float):
        self.bandwidth = bandwidth
        self.latency = latency


def linked(n: int, edges, link, fallback=None) -> Graph:
    """Devices ``0..n-1`` joined by ``edges``, each carrying ``link``;
    other pairs ride ``fallback`` (default: the shared PCIe path)."""
    g = Graph()
    g.add_nodes_from(range(n))
    for a, b in edges:
        g.add_edge(a, b, link=link)
    g.graph["fallback_link"] = fallback or _FallbackLink(
        DEFAULT_FALLBACK_BANDWIDTH, DEFAULT_FALLBACK_LATENCY
    )
    return g


def fully_connected(n: int, link, fallback=None) -> Graph:
    """All-pairs direct links (PCIe switch pair, NVLink pair/quad)."""
    return linked(n, itertools.combinations(range(n), 2), link, fallback)


def ring(n: int, link, fallback=None) -> Graph:
    """A ring of n devices."""
    return linked(n, ((a, (a + 1) % n) for a in range(n)), link, fallback)


def nvlink_quad(link, fallback=None) -> Graph:
    """4 GPUs, fully NVLink-connected (half a DGX-1 board)."""
    return fully_connected(4, link, fallback)


def dgx1_hybrid_cube_mesh(link, fallback=None) -> Graph:
    """The DGX-1 (P100) hybrid cube-mesh: 8 GPUs, 4 NVLinks each.

    Two quads {0..3} and {4..7}; within each quad a ring plus one
    diagonal, and a "cube" edge pairing the quads: degree exactly 4,
    so exactly 4 of each GPU's 7 peers are NVLink-direct and the other
    3 use the PCIe fallback.
    """
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3),   # quad 0
        (4, 5), (5, 6), (6, 7), (7, 4), (4, 6), (5, 7),   # quad 1
        (0, 4), (1, 5), (2, 6), (3, 7),                    # cube edges
    ]
    g = linked(8, edges, link, fallback)
    # NVLink budget check: 4 ports per P100 — ring(2) + diagonal(1) + cube(1).
    assert all(d == 4 for _, d in g.degree()), "hybrid cube-mesh must be 4-regular"
    return g


def fallback_link(graph: Graph):
    """The shared fallback path descriptor for non-adjacent pairs."""
    fb = graph.graph.get("fallback_link")
    if fb is None:
        raise ParameterError("graph has no fallback_link attribute")
    return fb


def _internode(graph: Graph, a: int, b: int) -> bool:
    """True when both endpoints are mapped to *different* nodes."""
    node_of = graph.graph.get("node_of")
    if node_of is None:
        return False
    na, nb = node_of.get(a), node_of.get(b)
    return na is not None and nb is not None and na != nb


def pair_bandwidth(graph: Graph, a: int, b: int) -> float:
    """Effective bandwidth for a lone a->b transfer."""
    if a == b:
        raise ParameterError("pair_bandwidth requires distinct devices")
    if graph.has_edge(a, b):
        return graph.edges[a, b]["link"].bandwidth
    if _internode(graph, a, b):
        return routing.inter_bandwidth(graph, a, b)
    return fallback_link(graph).bandwidth


def pair_latency(graph: Graph, a: int, b: int) -> float:
    """Per-message latency for an a->b transfer.

    Inter-node pairs pay the routed path: MPI software overhead plus
    each hop's traversal latency (NIC, switches) accumulated along the
    route — not just the NIC's wire latency.
    """
    if graph.has_edge(a, b):
        return graph.edges[a, b]["link"].latency
    if _internode(graph, a, b):
        return routing.inter_latency(graph, a, b)
    return fallback_link(graph).latency


def pair_segments(graph: Graph, a: int, b: int) -> tuple[tuple[tuple, float], ...]:
    """(contention key, capacity) per wire segment an a->b message crosses.

    Direct edges are a single dedicated segment.  Inter-node messages
    follow their routed path (:mod:`repro.machine.routing`): the source
    node's NIC, any leaf/spine uplinks, the destination node's NIC —
    keys are per *shared interface* (per node, per leaf), so all of a
    node's devices contend for its one NIC.  Same-node pairs without an
    edge keep the per-device fallback ports (PCIe injection/ejection).
    """
    if graph.has_edge(a, b):
        return ((("edge", a, b), graph.edges[a, b]["link"].bandwidth),)
    if _internode(graph, a, b):
        return tuple((h.key, h.bandwidth)
                     for h in routing.route_hops(graph, a, b))
    fb = fallback_link(graph).bandwidth
    return ((("fb-tx", a), fb), (("fb-rx", b), fb))


def link_class(graph: Graph, a: int, b: int) -> str:
    """Coarse label for the path an a->b message crosses.

    ``"self"`` (no wire), ``"inter-node"`` (endpoints on different
    nodes of a multi-node graph, same leaf switch), ``"inter-node-far"``
    (crossing the fabric spine), ``"direct"`` (a dedicated edge), or
    ``"fallback"`` (the shared fallback interface).  This is the
    ``link_class`` label on the ``comm.bytes`` telemetry series —
    bounded cardinality, unlike per-pair labels.

    A ``node_of`` map that omits either endpoint is an error: silently
    comparing ``None == None`` would misclassify an inter-node pair as
    ``direct``/``fallback`` and misprice its traffic.
    """
    if a == b:
        return "self"
    node_of = graph.graph.get("node_of")
    if node_of is not None:
        missing = [d for d in (a, b) if d not in node_of]
        if missing:
            raise ParameterError(
                f"node_of must cover every device; missing {missing}"
            )
        if node_of[a] != node_of[b]:
            if routing.cross_leaf(graph, a, b):
                return "inter-node-far"
            return "inter-node"
    return "direct" if graph.has_edge(a, b) else "fallback"


def alltoall_effective_bandwidth(graph: Graph, efficiency: float = ALLTOALL_EFFICIENCY) -> float:
    """Per-device effective injection bandwidth for personalized all-to-all.

    Each device sends one message of unit size to every peer: direct
    peers over dedicated full-duplex edges in parallel, non-adjacent
    peers serialized through the shared fallback interface.  Returns
    ``efficiency * (G - 1) / completion_time`` for unit messages, where
    ``efficiency`` accounts for pack granularity and protocol overhead
    of a real strided all-to-all.
    """
    n = graph.number_of_nodes()
    if n < 2:
        raise ParameterError("all-to-all needs at least 2 devices")
    if not 0.0 < efficiency <= 1.0:
        raise ParameterError(f"efficiency must be in (0, 1], got {efficiency!r}")
    nvlink_time = 0.0
    if graph.number_of_edges():
        nvlink_time = 1.0 / min(
            d["link"].bandwidth for _, _, d in graph.edges(data=True)
        )
    fb = fallback_link(graph)
    node_of = graph.graph.get("node_of")
    if node_of is not None:
        # Multi-node: all off-node traffic of a node's devices serializes
        # through that node's single NIC (both directions full duplex).
        per_node = Counter(node_of.values())
        worst_fallback = 0.0
        for node, g_local in per_node.items():
            off_node_pairs = g_local * (n - g_local)
            worst_fallback = max(worst_fallback, off_node_pairs / fb.bandwidth)
        fab = routing.fabric_of(graph)
        if fab is not None:
            # Fabric: a leaf's cross-leaf traffic serializes through its
            # (possibly oversubscribed) aggregate uplink capacity.
            leaf_devs: Counter = Counter()
            for node, g_local in per_node.items():
                leaf_devs[fab.leaf_of(node)] += g_local
            up = fab.uplink_bandwidth
            for leaf, d_local in leaf_devs.items():
                cross_pairs = d_local * (n - d_local)
                worst_fallback = max(worst_fallback, cross_pairs / up)
    else:
        worst_fallback = 0.0
        for a in graph.nodes:
            k = (n - 1) - graph.degree(a)
            worst_fallback = max(worst_fallback, k / fb.bandwidth)
    unit_time = max(nvlink_time, worst_fallback)
    return efficiency * (n - 1) / unit_time


def diameter_latency(graph: Graph) -> float:
    """Worst-case single-message latency across the topology.

    Scans per link *class* instead of all O(n^2) pairs: the worst
    direct edge (one edge pass), the shared fallback when any same-node
    pair lacks an edge, and the worst routed inter-node path — whose
    per-hop latencies are *summed* along the route (NIC + switches +
    MPI overhead), not approximated by the largest single hop.
    """
    n = graph.number_of_nodes()
    if n < 2:
        return 0.0
    worst = max(
        (d["link"].latency for _, _, d in graph.edges(data=True)), default=0.0
    )
    node_of = graph.graph.get("node_of")
    if node_of is None:
        if any(graph.degree(a) < n - 1 for a in graph.nodes):
            worst = max(worst, fallback_link(graph).latency)
        return worst
    # same-node pairs missing a direct edge ride the shared fallback
    per_node = Counter(node_of.values())
    intra_edges: Counter = Counter()
    for a, b in graph.edges():
        if node_of.get(a) == node_of.get(b):
            intra_edges[node_of.get(a)] += 1
    if any(intra_edges[nd] < g * (g - 1) // 2 for nd, g in per_node.items()):
        worst = max(worst, fallback_link(graph).latency)
    if len(per_node) > 1:
        worst = max(worst, routing.worst_route_latency(graph))
    return worst

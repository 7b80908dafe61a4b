"""Multi-node clusters — the paper's Section 7 extension.

"Extending the results to multiple nodes is necessary ... the
performance on multiple nodes is very likely to improve relative
performance and energy efficiency due to higher internode communication
costs."

A multi-node spec groups devices into nodes: intra-node pairs keep
their NVLink edges; inter-node pairs have no edge and share the node's
NIC (modeled like the DGX-1's PCIe fallback, but with the additional
constraint that *all* of a node's off-node traffic serializes through
one NIC).  The all-to-all analysis in :mod:`repro.machine.topology`
detects the ``node_of`` annotation and applies the per-node NIC
bottleneck, which is what makes the transpose-bound 1D FFT collapse —
and the FMM-FFT's advantage grow — as nodes are added.
"""

from __future__ import annotations

import itertools

from repro.machine import topology as topo
from repro.machine.graph import Graph
from repro.machine.routing import Fabric
from repro.machine.spec import ClusterSpec, DeviceSpec, LinkSpec, NVLINK_P100_LINK, P100
from repro.util.validation import ParameterError, check_positive

#: A 100 Gb/s-class fabric (4x EDR InfiniBand), achieved.
DEFAULT_NIC = LinkSpec(bandwidth=10e9, latency=2e-6)
#: MPI-level software latency for inter-node messages, charged on top of
#: the NIC/switch wire latencies (``graph.graph["mpi_latency"]``).
DEFAULT_NIC_LATENCY = 3e-6
#: Default fat-tree shape for the routed builders: 36-port leaves at
#: full bisection (oversubscription 1.0 — override to model cheaper
#: fabrics).
DEFAULT_RADIX = 36
DEFAULT_SWITCH_LATENCY = 0.5e-6


def multinode_graph(
    nodes: int,
    gpus_per_node: int,
    intra_link: LinkSpec,
    nic: LinkSpec,
) -> Graph:
    """Fully-connected NVLink islands joined only through per-node NICs."""
    check_positive("nodes", nodes)
    check_positive("gpus_per_node", gpus_per_node)
    islands = [range(n * gpus_per_node, (n + 1) * gpus_per_node)
               for n in range(nodes)]
    g = topo.linked(nodes * gpus_per_node, itertools.chain.from_iterable(
        itertools.combinations(devs, 2) for devs in islands), intra_link)
    g.graph["fallback_link"] = nic
    g.graph["node_of"] = {d: n for n, devs in enumerate(islands) for d in devs}
    g.graph["gpus_per_node"] = gpus_per_node
    g.graph["mpi_latency"] = DEFAULT_NIC_LATENCY
    return g


def routed_multinode_graph(
    nodes: int,
    gpus_per_node: int,
    intra_link: LinkSpec,
    nic: LinkSpec,
    radix: int = DEFAULT_RADIX,
    oversubscription: float = 1.0,
    switch_latency: float = DEFAULT_SWITCH_LATENCY,
) -> Graph:
    """NVLink islands joined by a routed two-level fat tree.

    Same island structure as :func:`multinode_graph`, plus a
    :class:`~repro.machine.routing.Fabric` descriptor: every node's NIC
    plugs into a leaf switch serving ``radix // 2`` nodes, leaves join
    through the spine, and ``oversubscription`` scales the leaf uplink
    capacity down.  Inter-node messages are priced per hop (NIC ->
    leaf [-> spine -> leaf] -> NIC) by :mod:`repro.machine.routing`.
    """
    g = multinode_graph(nodes, gpus_per_node, intra_link, nic)
    g.graph["fabric"] = Fabric(
        nic=nic,
        radix=radix,
        oversubscription=oversubscription,
        switch_latency=switch_latency,
    )
    return g


def multinode_p100(
    nodes: int,
    gpus_per_node: int = 4,
    nic: LinkSpec = DEFAULT_NIC,
    device: DeviceSpec = P100,
    intra_link: LinkSpec = NVLINK_P100_LINK,
) -> ClusterSpec:
    """N nodes of NVLink-connected P100s joined by an InfiniBand fabric."""
    if nodes < 1:
        raise ParameterError(f"nodes must be >= 1, got {nodes}")
    graph = multinode_graph(nodes, gpus_per_node, intra_link, nic)
    return ClusterSpec(
        device=device,
        num_devices=nodes * gpus_per_node,
        graph=graph,
        name=f"{nodes}x{gpus_per_node}xP100, IB",
        # cross-node collectives involve MPI on top of device sync
        collective_overhead=60e-6 * max(nodes, 1),
    )


def routed_multinode_p100(
    nodes: int,
    gpus_per_node: int = 4,
    radix: int = DEFAULT_RADIX,
    oversubscription: float = 1.0,
    nic: LinkSpec = DEFAULT_NIC,
    device: DeviceSpec = P100,
    intra_link: LinkSpec = NVLINK_P100_LINK,
    switch_latency: float = DEFAULT_SWITCH_LATENCY,
) -> ClusterSpec:
    """N P100 nodes on a routed IB fat tree (radix + oversubscription)."""
    if nodes < 1:
        raise ParameterError(f"nodes must be >= 1, got {nodes}")
    graph = routed_multinode_graph(
        nodes, gpus_per_node, intra_link, nic,
        radix=radix, oversubscription=oversubscription,
        switch_latency=switch_latency,
    )
    return ClusterSpec(
        device=device,
        num_devices=nodes * gpus_per_node,
        graph=graph,
        name=(f"{nodes}x{gpus_per_node}xP100, "
              f"fat-tree r{radix} o{oversubscription:g}"),
        collective_overhead=60e-6 * max(nodes, 1),
    )

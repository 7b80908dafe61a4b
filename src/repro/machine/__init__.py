"""Virtual multi-GPU cluster: the hardware substrate of the reproduction.

The paper measures on 2xK40c (PCIe) and 2x/8xP100 (NVLink DGX-1).  This
package replaces that hardware with an event-driven simulator:

- :mod:`repro.machine.spec` — device/link/cluster specifications with the
  paper's *achieved* architecture parameters (Section 5.4 / Section 6).
- :mod:`repro.machine.graph` / :mod:`topology` — adjacency-map interconnect
  graphs (PCIe switch, NVLink pair, DGX-1 hybrid cube-mesh) and an all-to-all
  bandwidth analysis (direct edges in parallel, the rest on the fallback).
- :mod:`repro.machine.routing` / :mod:`multinode` — routed multi-node
  fabrics: NVLink islands joined by a two-level fat tree
  (:class:`~repro.machine.routing.Fabric`) with per-hop latency and
  per-interface (NIC / leaf-uplink) contention.
- :mod:`repro.machine.roofline` — per-op cost via the paper's Eq. (3),
  ``T = W / min(gamma, beta * W / D)``, plus the GEMM/BatchedGEMM
  performance curves of Figure 1.
- :mod:`repro.machine.stream` / :mod:`device` / :mod:`cluster` — CUDA-like
  streams and events, per-device memory, and the
  :class:`~repro.machine.cluster.VirtualCluster` execution engine that
  runs *real NumPy computations* while accumulating *simulated time*.
- :mod:`repro.machine.ledger` / :mod:`trace` — per-op records, aggregate
  summaries, and nvprof-style ASCII profiles (Figure 2).
- :mod:`repro.machine.tape` — the capture tape the engine writes while
  :meth:`VirtualCluster.taping` is open: one priced step per primitive,
  dependencies named by producer (:mod:`repro.ir` seals it into a graph
  and replays it through the engine's own issue halves).

Every distributed algorithm in the library is written against this
engine, in the same structure (stages, streams, halos, all-to-alls) as
the paper's CUDA implementation.
"""

from __future__ import annotations

from repro.machine.spec import (
    DeviceSpec,
    LinkSpec,
    ClusterSpec,
    K40C,
    P100,
    dual_k40c_pcie,
    dual_p100_nvlink,
    p100_nvlink_node,
    dgx1_p100,
    preset,
)
from repro.machine.cluster import VirtualCluster
from repro.machine.stream import Event, Stream
from repro.machine.ledger import Ledger, OpRecord
from repro.machine.trace import ExecutionTrace
from repro.machine.roofline import op_time, gemm_performance
from repro.machine.topology import alltoall_effective_bandwidth
from repro.machine.routing import Fabric, route_hops, trace_route
from repro.machine.multinode import multinode_p100, routed_multinode_p100

__all__ = [
    "ClusterSpec",
    "DeviceSpec",
    "Event",
    "ExecutionTrace",
    "Fabric",
    "K40C",
    "Ledger",
    "LinkSpec",
    "OpRecord",
    "P100",
    "Stream",
    "VirtualCluster",
    "alltoall_effective_bandwidth",
    "dgx1_p100",
    "dual_k40c_pcie",
    "dual_p100_nvlink",
    "gemm_performance",
    "multinode_p100",
    "op_time",
    "p100_nvlink_node",
    "preset",
    "route_hops",
    "routed_multinode_p100",
    "trace_route",
]

"""Device, link, and cluster specifications.

The numbers here are the paper's *achieved* (not datasheet) architecture
parameters:

========  ==========  ==========  ============  ==================
device    gamma_f     gamma_d     beta (mem)    P2P (achieved)
========  ==========  ==========  ============  ==================
K40c      2.8 TF/s    1.2 TF/s    100 GB/s      13.2 GB/s (PCIe)
P100      10  TF/s    5   TF/s    360 GB/s      36 GB/s (NVLink)
========  ==========  ==========  ============  ==================

(Section 5.4 and the opening of Section 6.)  Latency constants are not
printed in the paper; they are calibrated so that, as in Section 6.1,
distributed FFTs become latency/synchronization bound for N <~ 2^21.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import networkx as nx
import numpy as np

from repro.machine import routing, topology as topo
from repro.util.validation import ParameterError, check_positive


@dataclass(frozen=True)
class DeviceSpec:
    """A single accelerator's practical performance envelope.

    Attributes
    ----------
    name:
        Human-readable device name.
    gamma_f, gamma_d:
        Practical peak single/double-precision throughput, flop/s.
    beta:
        Practical device memory bandwidth, byte/s.
    launch_latency:
        Fixed per-kernel-launch overhead, seconds.
    batched_gemm_derate:
        Fraction of gamma that BatchedGEMM achieves relative to plain
        GEMM (Figure 1 shows a visible deficit on K40c/cuBLAS 8.0 and
        near-parity on P100).
    custom_kernel_derate:
        Fraction of the roofline that hand-written CUDA kernels (S2T,
        M2L) achieve; the paper reports ~60% (Section 6.2, citing [1]).
    """

    name: str
    gamma_f: float
    gamma_d: float
    beta: float
    launch_latency: float = 8e-6
    batched_gemm_derate: float = 0.95
    custom_kernel_derate: float = 0.60

    def __post_init__(self):
        for attr in ("gamma_f", "gamma_d", "beta", "launch_latency"):
            check_positive(attr, getattr(self, attr))
        for attr in ("batched_gemm_derate", "custom_kernel_derate"):
            v = getattr(self, attr)
            if not 0.0 < v <= 1.0:
                raise ParameterError(f"{attr} must be in (0, 1], got {v!r}")

    def gamma(self, dtype) -> float:
        """Peak flop rate for the given dtype's precision."""
        dt = np.dtype(dtype)
        if dt in (np.float32, np.complex64):
            return self.gamma_f
        if dt in (np.float64, np.complex128):
            return self.gamma_d
        raise ParameterError(f"unsupported dtype {dt!r}")


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point interconnect link.

    Attributes
    ----------
    bandwidth:
        Achieved unidirectional P2P bandwidth, byte/s.
    latency:
        Per-message overhead (software + wire), seconds.
    """

    bandwidth: float
    latency: float = 10e-6

    def __post_init__(self):
        check_positive("bandwidth", self.bandwidth)
        check_positive("latency", self.latency)


class PairFacts(NamedTuple):
    """What the topology says about one ordered device pair ``a -> b``:
    its telemetry ``link_class``, the ``bandwidth`` and ``latency`` of a
    lone transfer, and the ``(contention key, capacity)`` wire
    ``segments`` the messages of a round share."""

    link_class: str
    bandwidth: float
    latency: float
    segments: tuple


@dataclass(frozen=True)
class ClusterSpec:
    """A node: G identical devices plus an interconnect graph.

    A spec is immutable, so what is derived from it — :meth:`pair`
    facts, :meth:`comm_latency`, :meth:`alltoall_bandwidth`,
    :attr:`fingerprint`, the comm layer's priced :attr:`plans` — is
    worked out once per spec *object*, on first use.
    ``dataclasses.replace`` builds a new object: a rescaled or
    fault-degraded spec starts with nothing derived.

    Attributes
    ----------
    device:
        The per-device spec (devices are homogeneous, as in the paper).
    num_devices:
        G.
    graph:
        networkx graph over device ids 0..G-1; edges carry a 'link'
        attribute (:class:`LinkSpec`).  Missing edges are routed via
        shortest paths (relayed transfers share link capacity).
    name:
        Label used in benchmark output, e.g. ``"2xP100, NVLINK"``.
    """

    device: DeviceSpec
    num_devices: int
    graph: nx.Graph
    name: str
    #: Host-side synchronization cost of a collective (all-to-all /
    #: allgather): plan coordination + stream syncs across all devices.
    #: Asynchronous P2P copies (halos) don't pay this — which is why the
    #: FMM-FFT, with one collective instead of three, wins at small N
    #: ("fewer synchronizations", Section 6.1).
    collective_overhead: float = 30e-6

    def __post_init__(self):
        check_positive("num_devices", self.num_devices)
        if set(self.graph.nodes) != set(range(self.num_devices)):
            raise ParameterError(
                f"graph nodes {sorted(self.graph.nodes)} must be 0..{self.num_devices - 1}"
            )
        if (
            self.num_devices > 1
            and not nx.is_connected(self.graph)
            and self.graph.graph.get("fallback_link") is None
        ):
            # disconnected islands are fine when a fallback path (PCIe,
            # NIC) joins them; otherwise the graph is misbuilt
            raise ParameterError("interconnect graph must be connected")
        # an incomplete node_of would silently misclassify inter-node
        # pairs (None == None) — reject it before any message is priced
        routing.validate_node_cover(self.graph)

    def link(self, a: int, b: int) -> LinkSpec:
        """The direct link between devices ``a`` and ``b`` (must exist)."""
        if not self.graph.has_edge(a, b):
            raise ParameterError(f"no direct link between device {a} and {b}")
        return self.graph.edges[a, b]["link"]

    @cached_property
    def _pairs(self) -> dict:
        return {}

    def pair(self, a: int, b: int) -> PairFacts:
        """The link facts of the ordered pair ``a -> b`` (distinct devices)."""
        facts = self._pairs.get((a, b))
        if facts is None:
            g = self.graph
            facts = self._pairs[a, b] = PairFacts(
                topo.link_class(g, a, b), topo.pair_bandwidth(g, a, b),
                topo.pair_latency(g, a, b), topo.pair_segments(g, a, b))
        return facts

    @cached_property
    def plans(self) -> dict:
        """What :mod:`repro.comm` priced and chose for this machine."""
        return {}

    def pair_bandwidth(self, a: int, b: int) -> float:
        """Effective P2P bandwidth a->b, shortest-path routed."""
        return self.pair(a, b).bandwidth

    @cached_property
    def _alltoall_bandwidth(self) -> float:
        return topo.alltoall_effective_bandwidth(self.graph)

    def alltoall_bandwidth(self) -> float:
        """Effective per-device all-to-all injection bandwidth (byte/s)."""
        return self._alltoall_bandwidth

    @cached_property
    def _comm_latency(self) -> float:
        return topo.diameter_latency(self.graph)

    def comm_latency(self) -> float:
        """Representative per-message latency (worst routed path)."""
        return self._comm_latency

    def p2p_time(self, src: int, dst: int, nbytes: float,
                 bandwidth: float | None = None,
                 latency: float | None = None) -> float:
        """Duration of one transfer: a lone one (a halo) pays the
        worst-path latency and the pair's full bandwidth, a message of a
        priced plan brings its contended ``bandwidth`` and ``latency``."""
        if latency is None:
            latency = self._comm_latency
        if bandwidth is None:
            bandwidth = self.pair(src, dst).bandwidth
        return latency + nbytes / bandwidth

    def collective_time(self, bytes_per_device: float) -> float:
        """Duration of one flat-model (``bulk``) collective: the G-1
        per-peer messages ride distinct links concurrently, so one
        message latency is paid per call — plus the host-side
        synchronization cost of coordinating it."""
        return (self._comm_latency + self.collective_overhead
                + bytes_per_device / self._alltoall_bandwidth)

    @cached_property
    def fingerprint(self) -> str:
        """Stable hash of everything about the machine that affects
        tuning (see :func:`spec_fingerprint`)."""
        dev = self.device
        fb = self.graph.graph.get("fallback_link")
        node_of = self.graph.graph.get("node_of")
        fab = routing.fabric_of(self.graph)
        doc = {
            "device": [dev.name, dev.gamma_f, dev.gamma_d, dev.beta,
                       dev.launch_latency, dev.batched_gemm_derate,
                       dev.custom_kernel_derate],
            "G": self.num_devices,
            "edges": sorted(
                (min(a, b), max(a, b), d["link"].bandwidth, d["link"].latency)
                for a, b, d in self.graph.edges(data=True)
            ),
            "fallback": None if fb is None else [fb.bandwidth, fb.latency],
            "node_of": (None if node_of is None
                        else sorted((int(g), int(n)) for g, n in node_of.items())),
            "mpi_latency": routing.mpi_latency(self.graph),
            "fabric": (None if fab is None
                       else [fab.nic.bandwidth, fab.nic.latency, fab.radix,
                             fab.oversubscription, fab.switch_latency]),
            "collective_overhead": self.collective_overhead,
        }
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


#: Tesla K40c with the paper's achieved parameters.
K40C = DeviceSpec(
    name="K40c",
    gamma_f=2.8e12,
    gamma_d=1.2e12,
    beta=100e9,
    launch_latency=8e-6,
    batched_gemm_derate=0.55,  # Fig 1(a): cuBLAS 8.0 batched deficit on K40
    custom_kernel_derate=0.60,
)

#: Tesla P100 (SXM2) with the paper's achieved parameters.
P100 = DeviceSpec(
    name="P100",
    gamma_f=10e12,
    gamma_d=5e12,
    beta=360e9,
    launch_latency=8e-6,
    batched_gemm_derate=0.92,  # Fig 1(b): batched tracks GEMM closely
    custom_kernel_derate=0.60,
)

#: Achieved P2P bandwidths from Section 6's opening paragraph.
PCIE_K40_LINK = LinkSpec(bandwidth=13.2e9, latency=12e-6)
NVLINK_P100_LINK = LinkSpec(bandwidth=36e9, latency=8e-6)


def dual_k40c_pcie() -> ClusterSpec:
    """2x K40c over a PCIe switch (achieved 13.2 GB/s P2P)."""
    return ClusterSpec(
        device=K40C,
        num_devices=2,
        graph=topo.fully_connected(2, PCIE_K40_LINK),
        name="2xK40c, PCIe",
        collective_overhead=200e-6,  # PCIe collectives stage through host
    )


def dual_p100_nvlink() -> ClusterSpec:
    """2x P100 directly connected with NVLink (achieved 36 GB/s P2P)."""
    return ClusterSpec(
        device=P100,
        num_devices=2,
        graph=topo.fully_connected(2, NVLINK_P100_LINK),
        name="2xP100, NVLINK",
        collective_overhead=60e-6,
    )


def dgx1_p100() -> ClusterSpec:
    """8x P100 in the DGX-1 hybrid cube-mesh NVLink topology.

    Only 4 of the 7 peer GPUs are NVLink-adjacent; the rest are reached
    via two-hop routes that share link capacity, which is what makes the
    all-to-all scale "more poorly" at G=8 (Section 6.1) and widens the
    FMM-FFT's win to ~2.1x.
    """
    return ClusterSpec(
        device=P100,
        num_devices=8,
        graph=topo.dgx1_hybrid_cube_mesh(NVLINK_P100_LINK),
        name="8xP100, NVLINK",
        collective_overhead=240e-6,  # coordination scales with G
    )


def p100_nvlink_node(G: int) -> ClusterSpec:
    """A P100 node with G in {1, 2, 4, 8} (scaling studies)."""
    if G == 1:
        return ClusterSpec(
            device=P100, num_devices=1, graph=topo.fully_connected(1, NVLINK_P100_LINK),
            name="1xP100",
        )
    if G == 2:
        return dual_p100_nvlink()
    if G == 4:
        return ClusterSpec(
            device=P100,
            num_devices=4,
            graph=topo.nvlink_quad(NVLINK_P100_LINK),
            name="4xP100, NVLINK",
            collective_overhead=120e-6,
        )
    if G == 8:
        return dgx1_p100()
    raise ParameterError(f"p100_nvlink_node supports G in 1/2/4/8, got {G}")


_PRESETS = {
    "2xK40c": dual_k40c_pcie,
    "2xP100": dual_p100_nvlink,
    "8xP100": dgx1_p100,
}


def preset(name: str) -> ClusterSpec:
    """Look up a named testbed: '2xK40c', '2xP100', or '8xP100'."""
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ParameterError(
            f"unknown preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None


def scaled(spec: ClusterSpec, **kwargs) -> ClusterSpec:
    """Return a copy of ``spec`` with device fields overridden (ablations)."""
    return replace(spec, device=replace(spec.device, **kwargs))


def spec_fingerprint(spec: ClusterSpec) -> str:
    """Stable hash of everything about a machine that affects tuning.

    Device envelope, device count, every link's bandwidth/latency, the
    fallback path, the node partition, and the collective overhead —
    but *not* the display name, so a renamed but physically identical
    node reuses its wisdom.  Link values enter the hash, so a degraded
    topology (a fault injector's ``degraded_spec``) fingerprints
    differently from the healthy machine — parameters autotuned while
    links were throttled can never poison the healthy machine's wisdom,
    and vice versa.  The same key scopes the static plan verifier's
    verdict cache (:mod:`repro.analysis.plancheck`).
    """
    return spec.fingerprint

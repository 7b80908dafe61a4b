"""Deterministic, seeded fault injection for the virtual cluster.

The injector is a *pure observer of simulated time*: the engine's
issue halves ask it "what is true at time t?" and it answers from two
sources —

- **scheduled faults**: explicit windows handed to the constructor
  (:class:`LinkDegrade`, :class:`LinkFlap`, :class:`Straggler`,
  :class:`DeviceLoss`), bit-reproducible by construction;
- **online transients**: per-attempt Bernoulli draws from a seeded
  ``numpy`` generator, consumed in issue order — the same schedule
  replayed issues ops in the same order, so the draws (and therefore the
  whole chaos run) are bit-reproducible too.

Nothing here mutates the cluster.  Timing degradation (duration scale
factors) and failures (:class:`~repro.machine.retry.CommFailure` after
retries) are both applied by the machine layer as it issues each op,
and recovery policy lives in serve.  The zero-fault configuration returns
scale 1.0 and outcome ``"ok"`` everywhere and never perturbs a single
record — the twin-ledger tests pin that bit-identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.faults.events import FaultEvent
from repro.machine.spec import ClusterSpec
from repro.util.validation import ParameterError

#: message/collective attempt outcomes
OUTCOMES = ("ok", "transient", "lost")


@dataclass(frozen=True)
class LinkDegrade:
    """Link (a, b) runs degraded during [start, end): bandwidth scaled
    by ``bandwidth_scale`` (< 1 slows it), latency by ``latency_scale``."""

    a: int
    b: int
    start: float
    end: float
    bandwidth_scale: float = 0.25
    latency_scale: float = 1.0

    def __post_init__(self):
        _check_window(self.start, self.end)
        if not 0.0 < self.bandwidth_scale <= 1.0:
            raise ParameterError(
                f"bandwidth_scale must be in (0, 1], got {self.bandwidth_scale!r}"
            )
        if self.latency_scale < 1.0:
            raise ParameterError(
                f"latency_scale must be >= 1, got {self.latency_scale!r}"
            )


@dataclass(frozen=True)
class LinkFlap:
    """Link (a, b) is down during [start, end): every message attempt
    crossing it fails transiently (detected after the retry timeout)."""

    a: int
    b: int
    start: float
    end: float

    def __post_init__(self):
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class Straggler:
    """Device runs ``slowdown``x slower during [start, end) — compute
    and its share of communication both stretch."""

    device: int
    start: float
    end: float
    slowdown: float = 3.0

    def __post_init__(self):
        _check_window(self.start, self.end)
        if self.slowdown < 1.0:
            raise ParameterError(f"slowdown must be >= 1, got {self.slowdown!r}")


@dataclass(frozen=True)
class DeviceLoss:
    """Device permanently leaves the machine at ``time``: every later
    message or collective touching it fails non-retryably."""

    device: int
    time: float

    def __post_init__(self):
        if self.time < 0.0:
            raise ParameterError(f"loss time must be >= 0, got {self.time!r}")


def _check_window(start: float, end: float) -> None:
    if start < 0.0 or end <= start:
        raise ParameterError(
            f"fault window must satisfy 0 <= start < end, got [{start}, {end})"
        )


def _active(f, t: float) -> bool:
    return f.start <= t < f.end


class FaultInjector:
    """Answers "what is wrong with the machine at time t?".

    Parameters
    ----------
    spec:
        The healthy machine (validates device/link references and is the
        base of :meth:`degraded_spec`).
    seed:
        Seed of the online transient generator.  Two injectors built
        with the same arguments produce bit-identical fault sequences
        against the same op issue order.
    transient_rate:
        Per-attempt probability in [0, 1) that a message or collective
        fails transiently (independent of scheduled faults).
    scheduled:
        Iterable of :class:`LinkDegrade` / :class:`LinkFlap` /
        :class:`Straggler` / :class:`DeviceLoss` windows.

    Attributes
    ----------
    events:
        The fault ledger: one :class:`FaultEvent` per scheduled fault
        (stamped up front) plus one per online transient drawn (stamped
        as it happens).  ``faults.events{kind=...}`` is counted off it
        once the run is over (:func:`repro.obs.fold.fold_run`).
    """

    def __init__(
        self,
        spec: ClusterSpec,
        seed: int = 0,
        transient_rate: float = 0.0,
        scheduled: tuple = (),
    ):
        if not 0.0 <= transient_rate < 1.0:
            raise ParameterError(
                f"transient_rate must be in [0, 1), got {transient_rate!r}"
            )
        self.spec = spec
        self.seed = seed
        self.transient_rate = transient_rate
        self.degrades: list[LinkDegrade] = []
        self.flaps: list[LinkFlap] = []
        self.stragglers: list[Straggler] = []
        self.losses: list[DeviceLoss] = []
        G = spec.num_devices
        for f in scheduled:
            if isinstance(f, (LinkDegrade, LinkFlap)):
                for d in (f.a, f.b):
                    _check_device(d, G)
                if f.a == f.b:
                    raise ParameterError(f"link fault needs two devices, got ({f.a}, {f.b})")
                (self.degrades if isinstance(f, LinkDegrade) else self.flaps).append(f)
            elif isinstance(f, Straggler):
                _check_device(f.device, G)
                self.stragglers.append(f)
            elif isinstance(f, DeviceLoss):
                _check_device(f.device, G)
                self.losses.append(f)
            else:
                raise ParameterError(f"unknown scheduled fault {f!r}")
        self.events: list[FaultEvent] = []
        self.transient_count = 0
        self._rng = np.random.default_rng(seed)
        #: degraded spec per fault state (see :meth:`degraded_spec`)
        self._degraded: dict[tuple, ClusterSpec] = {}
        self._stamp_scheduled()

    def _stamp_scheduled(self) -> None:
        for f in self.degrades:
            self.events.append(FaultEvent(
                time=f.start, kind="link_degrade", device=f.a, peer=f.b,
                duration=f.end - f.start,
                detail=f"bandwidth x{f.bandwidth_scale:g}",
            ))
        for f in self.flaps:
            self.events.append(FaultEvent(
                time=f.start, kind="link_flap", device=f.a, peer=f.b,
                duration=f.end - f.start, detail="link down",
            ))
        for f in self.stragglers:
            self.events.append(FaultEvent(
                time=f.start, kind="straggler", device=f.device,
                duration=f.end - f.start, detail=f"slowdown x{f.slowdown:g}",
            ))
        for f in self.losses:
            self.events.append(FaultEvent(
                time=f.time, kind="device_loss", device=f.device,
                detail="permanent",
            ))
        self.events.sort(key=lambda e: (e.time, e.kind, e.device, e.peer))

    def reset(self) -> None:
        """Rewind to construction state (replay support): reseed the
        transient generator and drop the dynamically stamped events."""
        self._rng = np.random.default_rng(self.seed)
        self.transient_count = 0
        self.events = [e for e in self.events if e.kind != "transient"]

    # -- timing degradation (queried by repro.machine) -----------------

    def compute_scale(self, device: int, t: float) -> float:
        """Duration multiplier for a kernel starting on ``device`` at t."""
        s = 1.0
        for f in self.stragglers:
            if f.device == device and _active(f, t):
                s *= f.slowdown
        return s

    def comm_scale(self, src: int, dst: int, t: float) -> float:
        """Duration multiplier for a src->dst message starting at t:
        the slower endpoint's straggler factor times any degrade of the
        link the message crosses."""
        s = 1.0
        worst = 1.0
        for f in self.stragglers:
            if f.device in (src, dst) and _active(f, t):
                worst = max(worst, f.slowdown)
        s *= worst
        for f in self.degrades:
            if {f.a, f.b} == {src, dst} and _active(f, t):
                s *= 1.0 / f.bandwidth_scale
        return s

    def collective_scale(self, t: float) -> float:
        """Duration multiplier for a bulk collective starting at t — it
        synchronizes everyone, so the worst active straggler/degrade
        stretches the whole operation."""
        s = 1.0
        for f in self.stragglers:
            if _active(f, t):
                s = max(s, f.slowdown)
        for f in self.degrades:
            if _active(f, t):
                s = max(s, 1.0 / f.bandwidth_scale)
        return s

    # -- failures (queried by repro.machine at each attempt's start) ---

    def message_outcome(self, src: int, dst: int, name: str, t: float) -> str:
        """Outcome of one src->dst message attempt starting at t."""
        for f in self.losses:
            if f.time <= t and f.device in (src, dst):
                return "lost"
        for f in self.flaps:
            if {f.a, f.b} == {src, dst} and _active(f, t):
                return "transient"
        if self.transient_rate > 0.0 and self._rng.random() < self.transient_rate:
            self._stamp_transient(t, src, dst, name)
            return "transient"
        return "ok"

    def collective_outcome(self, name: str, t: float) -> str:
        """Outcome of one bulk-collective attempt starting at t (it
        touches every device and every link)."""
        for f in self.losses:
            if f.time <= t:
                return "lost"
        for f in self.flaps:
            if _active(f, t):
                return "transient"
        if self.transient_rate > 0.0 and self._rng.random() < self.transient_rate:
            self._stamp_transient(t, -1, -1, name)
            return "transient"
        return "ok"

    def _stamp_transient(self, t: float, src: int, dst: int, name: str) -> None:
        self.transient_count += 1
        self.events.append(FaultEvent(
            time=t, kind="transient", device=src, peer=dst, detail=name,
        ))

    # -- degraded topology (queried by the serve replanner) ------------

    def active(self, t: float) -> bool:
        """True when any scheduled fault is in effect at time t."""
        return (
            any(_active(f, t) for f in self.degrades)
            or any(_active(f, t) for f in self.flaps)
            or any(_active(f, t) for f in self.stragglers)
            or any(f.time <= t for f in self.losses)
        )

    def degraded_spec(self, t: float) -> ClusterSpec:
        """The machine as it stands at time t: flapped links removed,
        degraded links rescaled, lost devices isolated.  Feed this to
        :func:`repro.comm.tuning.choose_algorithm` to replan against
        the topology that actually exists.

        One spec object per fault state (the flaps and degrades active
        at t, the losses up to t): a spec tabulates its link facts and
        the comm layer keeps its plans per spec object, so a replan in
        a state seen before reuses them instead of starting empty."""
        flaps = tuple(f for f in self.flaps if _active(f, t))
        degrades = tuple(f for f in self.degrades if _active(f, t))
        losses = tuple(f for f in self.losses if f.time <= t)
        spec = self._degraded.get((flaps, degrades, losses))
        if spec is None:
            spec = self._degraded[flaps, degrades, losses] = self._degrade(
                flaps, degrades, losses)
        return spec

    def _degrade(self, flaps, degrades, losses) -> ClusterSpec:
        g = self.spec.graph.copy()
        for f in flaps:
            if g.has_edge(f.a, f.b):
                g.remove_edge(f.a, f.b)
        for f in degrades:
            if g.has_edge(f.a, f.b):
                link = g.edges[f.a, f.b]["link"]
                g.edges[f.a, f.b]["link"] = replace(
                    link,
                    bandwidth=link.bandwidth * f.bandwidth_scale,
                    latency=link.latency * f.latency_scale,
                )
        for f in losses:
            for peer in list(g.neighbors(f.device)):
                g.remove_edge(f.device, peer)
        return replace(self.spec, graph=g, name=f"{self.spec.name} (degraded)")


def _check_device(d: int, G: int) -> None:
    if not 0 <= d < G:
        raise ParameterError(f"fault references device {d}, machine has 0..{G - 1}")


def node_loss(spec: ClusterSpec, node: int, time: float) -> tuple:
    """One :class:`DeviceLoss` per device of ``node`` — a whole-node
    failure (power, NIC, or top-of-rack port) at ``time``.

    Requires a multi-node spec (``node_of`` annotation); feed the tuple
    to :class:`FaultInjector`'s ``scheduled`` alongside other faults.
    """
    node_of = spec.graph.graph.get("node_of")
    if not node_of:
        raise ParameterError("node_loss needs a multi-node spec (node_of)")
    devs = sorted(d for d, nd in node_of.items() if nd == node)
    if not devs:
        raise ParameterError(
            f"node {node} has no devices; nodes: {sorted(set(node_of.values()))}"
        )
    return tuple(DeviceLoss(d, time) for d in devs)


def seeded_chaos(
    spec: ClusterSpec,
    seed: int = 0,
    transient_rate: float = 0.02,
    flaps: int = 0,
    stragglers: int = 1,
    degrades: int = 0,
    horizon: float = 50e-3,
    slowdown: float = 3.0,
    bandwidth_scale: float = 0.25,
) -> FaultInjector:
    """Build a reproducible random chaos scenario for one machine.

    Draws ``flaps``/``degrades`` link windows and ``stragglers`` device
    windows uniformly inside ``[0, horizon)`` from a generator seeded
    with ``seed`` — the scenario (and the injector's online transient
    stream, seeded with ``seed + 1``) is a pure function of the
    arguments.  This is what ``repro chaos`` and the chaos twin in
    ``tests/test_serve_faults.py`` drive.
    """
    if horizon <= 0.0:
        raise ParameterError(f"horizon must be > 0, got {horizon!r}")
    rng = np.random.default_rng(seed)
    edges = sorted(spec.graph.edges())
    scheduled: list = []
    for _ in range(flaps):
        a, b = edges[int(rng.integers(len(edges)))]
        t0 = float(rng.uniform(0.1, 0.6)) * horizon
        scheduled.append(LinkFlap(a, b, t0, t0 + float(rng.uniform(0.05, 0.2)) * horizon))
    for _ in range(degrades):
        a, b = edges[int(rng.integers(len(edges)))]
        t0 = float(rng.uniform(0.1, 0.6)) * horizon
        scheduled.append(LinkDegrade(
            a, b, t0, t0 + float(rng.uniform(0.1, 0.3)) * horizon,
            bandwidth_scale=bandwidth_scale,
        ))
    for _ in range(stragglers):
        d = int(rng.integers(spec.num_devices))
        t0 = float(rng.uniform(0.1, 0.6)) * horizon
        scheduled.append(Straggler(
            d, t0, t0 + float(rng.uniform(0.1, 0.3)) * horizon,
            slowdown=slowdown,
        ))
    return FaultInjector(spec, seed=seed + 1, transient_rate=transient_rate,
                         scheduled=tuple(scheduled))

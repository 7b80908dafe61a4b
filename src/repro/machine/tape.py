"""The capture tape: what the engine writes down while a capture is open.

Between :meth:`VirtualCluster.taping` opening and closing, every engine
primitive appends one :class:`IRNode`: the step it just *priced*
(modeled duration, flops/bytes, declared buffers, region path, closure)
with its dependencies resolved on the spot.  The run being taped is an
ordinary eager run; the tape is a side product, not an interposed layer.

Resolution is exact: every event handed out while a tape is open carries
the sequence number of the step that produced it (``Event.src``), so
each entry of ``after`` resolves by name, never by timestamp — under any
fault history the graph orders a consumer after the same producers:

- the tape's ``release`` event — the external release dependency,
  ``(-1, -1, False)``, substituted per replay;
- ``src`` inside this tape — its producing step, with a ``sub`` device
  index when that step is a bulk collective, and ``in_waits`` true
  exactly when the event carries a ledger uid (synthetic events order
  the consumer but add no ``waits`` entry);
- a ledger uid from outside the tape — :class:`CaptureError` (the graph
  would silently lose the edge on replay);
- a producer-less synthetic: dropped at ``time == 0.0`` (no clock is
  ever behind t=0), :class:`CaptureError` at any other time;
- the latest of several events (:meth:`VirtualCluster.latest`) — one
  entry holding a triple per candidate: the consumer is ordered after
  them all, and which of them gets the ``waits`` edge is decided when
  the step is issued (whichever finished last, the first on a tie).

Sequence numbers are cluster-wide and only ever grow, so an event kept
from an earlier capture can never alias a step of the current one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.util.validation import ParameterError

#: node opcodes — one per engine primitive (plus two bookkeeping steps)
OP_LAUNCH = "launch"      #: compute kernel on a device stream
OP_HOST = "host"          #: zero-cost host bookkeeping op
OP_P2P_SELF = "p2p_self"  #: self-send / G=1 local copy (zero cost)
OP_P2P = "p2p"            #: point-to-point transfer src -> dst
OP_COLL = "coll"          #: bulk collective (G synchronized records)
OP_COLL1 = "coll1"        #: G=1 degenerate collective (no records)
OP_BARRIER = "barrier"    #: all-stream synchronization
OP_ACTION = "action"      #: host-side data action (no ledger footprint)
OP_LOG = "log"            #: comm_log entry (+ bulk byte counter)


class CaptureError(ParameterError):
    """A pipeline issued something the tape cannot faithfully replay."""


@dataclass
class IRNode:
    """One priced engine step.

    ``deps`` holds ``(producer_index, sub, in_waits)`` triples, or a
    tuple of such triples for a latest-of-several dependency (see the
    module docstring).  ``fn`` is the capture-time NumPy closure — it
    already binds the operators/twiddles built when the pipeline was
    constructed, which is what makes replay free of plan construction.
    ``tel`` is the per-message telemetry intent of a real p2p transfer:
    ``(link_class, link_label, predicted_seconds)``.  ``payload`` belongs
    to an :data:`OP_LOG` step: the comm_log ``entry`` and, for a
    flat-model collective, the ``bulk_bytes`` it counts on
    ``comm.bytes{link_class=bulk}`` at the completion of its ``deps``.
    """

    op: str
    name: str = ""
    kind: str = ""
    device: int = -1
    peer: int = -1
    stream: str = ""
    duration: float = 0.0
    flops: float = 0.0
    mops: float = 0.0
    comm_bytes: float = 0.0
    reads: tuple = ()
    writes: tuple = ()
    region: str = ""
    deps: tuple = ()
    fn: object = None
    tel: tuple | None = None
    payload: dict | None = None

    def producers(self):
        """Every ``(producer_index, sub, in_waits)`` triple the step is
        ordered after, latest-of-several candidates flattened."""
        for d in self.deps:
            if type(d[0]) is tuple:
                yield from d
            else:
                yield d


class Tape:
    """The steps of one open capture, in issue order.

    ``base`` is the sequence number of the first step; ``release`` the
    event standing for the external release dependency (or None).
    """

    def __init__(self, base: int, release):
        self.nodes: list[IRNode] = []
        self.base = base
        self.release = release
        #: ledger uid of a collective step's first real record (``sub``)
        self._uid0: list[int] = []
        #: step that last advanced each stream's clock
        self._last: dict = {}

    def add(self, node: IRNode, advances: Sequence = (),
            uid0: int = -1) -> int:
        """Append a step; returns its sequence number (``Event.src``).

        ``advances`` are the streams whose clocks it moves; ``uid0``,
        for a bulk collective, the uid of device 0's record — known
        only once it is issued, since timed-out attempts come first.
        """
        idx = len(self.nodes)
        self.nodes.append(node)
        self._uid0.append(uid0)
        for st in advances:
            self._last[st] = idx
        return self.base + idx

    def last_on(self, stream) -> int:
        """Sequence number of the step that set ``stream``'s clock, or -1
        when nothing on this tape has touched it."""
        idx = self._last.get(stream)
        return -1 if idx is None else self.base + idx

    def deps(self, after: Sequence) -> tuple:
        """Resolve a dependency list (module docstring)."""
        out = []
        for ev in after:
            if type(ev.src) is tuple:
                among = tuple(d for c in ev.src for d in self._resolve(c))
                out.extend(among if len(among) < 2 else (among,))
            else:
                out.extend(self._resolve(ev))
        return tuple(out)

    def _resolve(self, ev) -> tuple:
        """The triple naming one event's producer, as a 0/1-tuple."""
        if ev is self.release:
            return ((-1, -1, False),)
        idx = ev.src - self.base
        if 0 <= idx < len(self.nodes):
            sub = (ev.op - self._uid0[idx]
                   if self.nodes[idx].op == OP_COLL else -1)
            return ((idx, sub, ev.op >= 0),)
        if ev.op >= 0:
            raise CaptureError(
                f"dependency on op uid={ev.op} issued outside this "
                "capture; capture must cover the whole pipeline run")
        if ev.time != 0.0:
            raise CaptureError(
                f"unresolvable synthetic dependency {ev.label!r} at "
                f"t={ev.time!r}: it names no step of this capture")
        return ()

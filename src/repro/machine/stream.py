"""CUDA-like streams and events for the simulated timeline.

A :class:`Stream` is an in-order queue on one device: each enqueued op
starts no earlier than the previous op on the same stream.  An
:class:`Event` marks a point in simulated time; ops on other streams (or
devices) can be made to wait on it, which is how the algorithms express
compute/communication overlap — e.g. Algorithm 1 launches S2M on the
compute stream while the S-halo exchange proceeds on the comm stream,
and S2T waits on the halo's event.

Events additionally carry the ledger uid of the operation that produced
them (``op``), which is what lets the hazard sanitizer in
:mod:`repro.analysis.hazards` reconstruct the happens-before graph of a
run, and — while the engine is writing a capture tape — the tape step
that produced them (``src``), so a captured dependency names its
producer exactly instead of being guessed from a timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Event:
    """A completion timestamp in the simulated timeline.

    Attributes
    ----------
    time:
        Simulated completion time, seconds.
    label:
        Debugging label (stream or stage name).
    op:
        Ledger uid of the producing :class:`~repro.machine.ledger.OpRecord`,
        or -1 for synthetic events (``Event.zero()``, barriers, G=1
        degenerate paths).  Excluded from equality/hash so pre-existing
        event comparisons keep their semantics.
    src:
        Cluster-wide sequence number of the capture-tape step that
        produced this event (:mod:`repro.machine.tape`), or -1 outside
        a capture.  Synthetic events carry it too — it orders a
        consumer after its true producer without adding a wait edge.
        The event :meth:`VirtualCluster.latest` returns under a tape is
        the latest of several: its ``src`` is the tuple of those
        candidate events, every one a producer the consumer is ordered
        after.  Excluded from equality/hash.
    """

    time: float
    label: str = ""
    op: int = field(default=-1, compare=False)
    src: int | tuple = field(default=-1, compare=False)

    @staticmethod
    def zero() -> "Event":
        return Event(0.0, "t0")


class Stream:
    """An in-order execution queue with a running clock."""

    def __init__(self, device: int, name: str):
        self.device = device
        self.name = name
        #: label of the completion events of ops on this stream
        self.label = f"{name}@dev{device}"
        self.clock = 0.0

    def reset(self) -> None:
        self.clock = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Stream(dev={self.device}, {self.name!r}, t={self.clock:.3e})"

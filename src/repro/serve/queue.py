"""Admission-controlled bounded request queue with backpressure.

The service's front door: arrivals are admitted while the queue has
room and shed (rejected, counted) once it is full — the backpressure
signal an open-loop driver observes as its offered load exceeds
capacity.  Scheduling order is deadline-class priority (interactive
ahead of batch), FIFO within a class; the batcher drains compatible
groups through :meth:`AdmissionQueue.take`.

Admission order is tracked per *admission*, not per rid: the same
request object may legitimately enter the queue more than once (the
scheduler re-enqueues the survivors of a failed batch), and each
admission gets a fresh sequence token, so a re-offered request queues
behind its class like any other arrival and never corrupts a sibling
still waiting from an earlier admission.

Queue-depth samples (total and per class) are recorded at every state
change — including shed arrivals, so depth percentiles, the Perfetto
depth counter and the ``serve.queue_depth`` gauges read off them after
the run show the queue pinned at capacity at the exact instants of
backpressure.
"""

from __future__ import annotations

from typing import Callable

from repro.serve.request import (
    DEADLINE_CLASSES,
    TransformRequest,
    count_by_class,
)
from repro.util.validation import ParameterError, check_count


class AdmissionQueue:
    """Bounded FIFO with deadline-class priority and shed accounting.

    Parameters
    ----------
    capacity:
        Maximum queued (admitted, not yet issued) requests; arrivals
        beyond it are shed.
    """

    def __init__(self, capacity: int = 64):
        check_count("capacity", capacity)
        self.capacity = capacity
        #: (admission token, request), token assigned per offer()
        self._items: list[tuple[int, TransformRequest]] = []
        self._next_seq = 0
        #: admitted counts per deadline class
        self.admitted: dict[str, int] = {c: 0 for c in DEADLINE_CLASSES}
        #: queued requests per class, maintained incrementally so a
        #: sample never rescans the queue
        self._class_depth: dict[str, int] = {c: 0 for c in DEADLINE_CLASSES}
        #: (time, per-class depths in ``DEADLINE_CLASSES`` order) at
        #: every admission/shed/drain
        self.class_depths: list[tuple[float, tuple[int, ...]]] = [
            (0.0, tuple(self._class_depth.values()))]
        #: (time, deadline class) of every shed arrival
        self.shed_at: list[tuple[float, str]] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def depth_samples(self) -> list[tuple[float, int]]:
        """(time, total depth) at every admission/shed/drain."""
        return [(t, sum(d)) for t, d in self.class_depths]

    @property
    def shed(self) -> dict[str, int]:
        """Shed counts per deadline class."""
        return count_by_class(c for _, c in self.shed_at)

    def _sample(self, now: float) -> None:
        self.class_depths.append((now, tuple(self._class_depth.values())))

    def offer(self, req: TransformRequest, now: float) -> bool:
        """Admit ``req`` at time ``now``; False means shed (queue full)."""
        if len(self._items) >= self.capacity:
            self.shed_at.append((now, req.deadline))
            self._sample(now)
            return False
        self._items.append((self._next_seq, req))
        self._next_seq += 1
        self.admitted[req.deadline] += 1
        self._class_depth[req.deadline] += 1
        self._sample(now)
        return True

    @staticmethod
    def _priority(entry: tuple[int, TransformRequest]) -> tuple:
        seq, req = entry
        return (DEADLINE_CLASSES.index(req.deadline), seq)

    def head(self) -> TransformRequest | None:
        """The request the scheduler must serve next (None if empty)."""
        if not self._items:
            return None
        return min(self._items, key=self._priority)[1]

    def take(
        self,
        now: float,
        compatible: Callable[[TransformRequest], bool],
        limit: int,
    ) -> list[TransformRequest]:
        """Drain up to ``limit`` requests compatible with the head.

        The head request is always included; the rest are taken in
        priority order among those for which ``compatible`` is true.
        """
        if limit < 1:
            raise ParameterError(f"limit must be >= 1, got {limit}")
        if not self._items:
            return []
        head = min(self._items, key=self._priority)
        group = [e for e in self._items if compatible(e[1])]
        group.sort(key=self._priority)
        if head not in group:
            group = [head] + group
        group = group[:limit]
        taken = set(seq for seq, _ in group)
        self._items = [e for e in self._items if e[0] not in taken]
        for _, req in group:
            self._class_depth[req.deadline] -= 1
        self._sample(now)
        return [req for _, req in group]

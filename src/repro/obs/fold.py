"""One read of a finished run.

A run leaves every observation behind, stamped in simulated time: its
cluster's ledger and comm log and, for a serve run, the scheduler's
batch, completion and failure records, the queue's samples, the cache's
counters and the injector's fault events.  :func:`fold_run` reads them
once into :class:`RunFacts`, and every report of the run renders those
facts: :func:`repro.serve.stats.summarize` (the ``ServeReport``), the
telemetry snapshot (:meth:`repro.obs.telemetry.MetricsRegistry.fill`,
which :func:`~repro.obs.telemetry.prometheus_text` and ``repro top``
read) and the retry line and comm table of
:func:`repro.obs.metrics.compute_metrics`.  A serve run's fold is kept on
its scheduler (``ServeScheduler.facts``).

Two facts have one rule each:

- a **retry attempt** is one timed-out ``<stage>!fail`` record: a
  message's own, or device 0's of the G records of a failed collective;
- **measured vs model** is per message: the duration the engine charged
  over the fault-free price.  A plan's message was priced at its pair's
  latency and contended bandwidth, so under a stretch fault its price is
  the duration over the stretch; a lone transfer paid the worst-path
  latency and is modelled at its pair's own; a bulk collective call (its
  device-0 record) is modelled by the flat ``collective_time``.  A
  stage's measured and model totals are sums over its messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.obs.slo import SloTimeline, slo_timeline


class Message(NamedTuple):
    """One message that crossed a link, or one bulk collective call."""

    name: str
    #: ``"a-b"`` (lower device first); ``""`` for a bulk call
    link: str
    #: the pair's link class; ``"bulk"`` for a bulk call
    link_class: str
    end: float
    nbytes: float
    #: what the engine charged
    duration: float
    #: the fault-free price
    model: float

    @property
    def ratio(self) -> float:
        """Measured over model: 1.0 for a message charged its price."""
        return self.duration / self.model


@dataclass(frozen=True)
class RunFacts:
    """What one finished run did, each fact read once.  The serve fields
    stay empty for a bare cluster's run."""

    #: messages with bytes that crossed a link and bulk calls, in ledger order
    messages: list[Message] = field(default_factory=list)
    #: ``G x payload`` of each bulk comm-log entry
    bulk_bytes: list[float] = field(default_factory=list)
    #: one timed-out record per failed attempt, in ledger order
    retries: list = field(default_factory=list)
    #: the injector's fault events
    fault_events: list = field(default_factory=list)
    #: ``(cache counter, issue time)`` per unit a batch moved it by
    cache_moves: list[tuple[str, float]] = field(default_factory=list)
    #: ``(size, finish, issue-to-finish latency or None if it failed)``
    batches: list[tuple] = field(default_factory=list)
    #: the queue's ``(time, per-class depths)`` samples
    depths: list[tuple] = field(default_factory=list)
    #: ``(time, class)`` per request shed at the door
    sheds: list[tuple[float, str]] = field(default_factory=list)
    #: ``(finish, class, latency, missed its target)`` per completion
    completions: list[tuple] = field(default_factory=list)
    #: ``(time, class, shed)`` per request whose batch failed
    failures: list[tuple[float, str, bool]] = field(default_factory=list)
    #: burn rates and alerts over the completions and retry-sheds
    slo: SloTimeline | None = None

    @property
    def retry_time(self) -> float:
        """Total duration of the failed attempts (in ledger order)."""
        total = 0.0
        for r in self.retries:
            total += r.duration
        return total


def fold_run(ledger, spec, comm_log=(), faults=None, sched=None) -> RunFacts:
    """Read a finished run once: the ledger and comm log of a cluster on
    ``spec`` (with its fault injector, if any), and its
    :class:`~repro.serve.scheduler.ServeScheduler` when it served."""
    messages, retries, prices = [], [], {}
    for r in ledger:
        if r.kind != "comm":
            continue
        src, dst, nbytes = r.device, r.peer, r.comm_bytes
        if r.name.endswith("!fail"):
            if dst >= 0 or src == 0:
                retries.append(r)
            continue
        if dst < 0:
            if src == 0:
                messages.append(Message(r.name, "", "bulk", r.end, nbytes,
                                        r.duration,
                                        spec.collective_time(nbytes)))
            continue
        if dst == src or not nbytes > 0.0:
            continue
        price = prices.get((src, dst, nbytes))
        if price is None:  # a lone transfer's price, and at the pair's latency
            pair = spec.pair(src, dst)
            price = prices[src, dst, nbytes] = (
                f"{min(src, dst)}-{max(src, dst)}", pair.link_class,
                spec.p2p_time(src, dst, nbytes),
                spec.p2p_time(src, dst, nbytes, None, pair.latency))
        link, link_class, lone, at_pair = price
        s = 1.0 if faults is None else faults.comm_scale(src, dst, r.start)
        if r.duration == (lone if s == 1.0 else lone * s):
            model = at_pair
        else:  # a plan's message: priced at the pair's latency already
            model = r.duration if s == 1.0 else r.duration / s
        messages.append(Message(r.name, link, link_class, r.end, nbytes,
                                r.duration, model))
    bulk = [e["payload"] * e["G"] for e in comm_log
            if e["algorithm"] == "bulk"]
    if sched is None:
        return RunFacts(messages, bulk, retries)
    targets = sched.deadline_targets
    completions = []
    for c in sched.completed:
        cls, lat = c.request.deadline, c.finish - c.request.arrival
        completions.append((c.finish, cls, lat, lat > targets[cls]))
    failures = [(t, r.deadline, shed) for t, r, shed in sched.failures]
    moves, seen = [], sched.cache_baseline
    for b in sched.batches:
        for name, n in b["cache"].items():
            moves += [(name, b["issued"])] * (n - seen[name])
        seen = b["cache"]
    return RunFacts(
        messages, bulk, retries,
        fault_events=[] if faults is None else list(faults.events),
        cache_moves=moves,
        batches=[(b["k"], b["finish"], None if b["failed"]
                  else max(0.0, b["finish"] - b["issued"]))
                 for b in sched.batches],
        depths=list(sched.queue.class_depths),
        sheds=list(sched.queue.shed_at),
        completions=completions,
        failures=failures,
        slo=slo_timeline([(t, cls, not missed)
                          for t, cls, _, missed in completions]
                         + [(t, cls, False)
                            for t, cls, shed in failures if shed]),
    )

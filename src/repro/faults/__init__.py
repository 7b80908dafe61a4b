"""repro.faults — deterministic fault injection for the virtual cluster.

The resilience layer's source of truth: *what goes wrong, when, and
reproducibly*.  A :class:`FaultInjector` holds scheduled fault windows
(link degradation/flaps, straggler devices, permanent device loss) plus
a seeded online transient-failure stream, and answers time-indexed
queries from the rest of the stack:

- :mod:`repro.machine` asks, as it issues each op, for duration scale
  factors (stragglers, degraded links stretch recorded ops) and for
  per-attempt outcomes, turning transient failures into timed-out
  ``<stage>!fail`` ledger records, retried under a
  :class:`~repro.machine.retry.RetryPolicy`;
- :mod:`repro.serve` asks for the degraded topology to replan failed
  batches, and for the fault ledger (:attr:`FaultInjector.events`) to
  report.

Everything is seeded and consumed in issue order, so a chaos run
replays bit-identically and the zero-fault configuration is
bit-identical to a cluster with no injector installed.  See
``docs/FAULTS.md``.
"""

from __future__ import annotations

from repro.faults.events import FAULT_KINDS, FaultEvent
from repro.faults.injector import (
    OUTCOMES,
    DeviceLoss,
    FaultInjector,
    LinkDegrade,
    LinkFlap,
    Straggler,
    node_loss,
    seeded_chaos,
)

__all__ = [
    "FAULT_KINDS",
    "OUTCOMES",
    "DeviceLoss",
    "FaultEvent",
    "FaultInjector",
    "LinkDegrade",
    "LinkFlap",
    "Straggler",
    "node_loss",
    "seeded_chaos",
]

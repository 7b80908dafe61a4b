"""Collective communication subsystem: algorithm-pluggable message plans.

The paper's contribution is communication *structure* — so the simulator
models it structurally too.  This package decomposes every collective a
pipeline issues into explicit per-round point-to-point message plans
routed over the machine's actual interconnect topology:

- :mod:`repro.comm.plans` — the plan builders (``direct``, ``ring``,
  ``bruck``, ``hier``, ``hier2``) plus the per-link/per-hop contention
  and round-cost model (inter-node messages are priced along their
  routed fabric path);
- :mod:`repro.comm.api` — what pipelines call:
  :func:`~repro.comm.api.alltoall`, :func:`~repro.comm.api.allgather`,
  :func:`~repro.comm.api.grouped_alltoall` (concurrent subgroup
  exchanges for pencil decompositions),
  :func:`~repro.comm.api.halo_exchange`,
  :func:`~repro.comm.api.sendrecv` — with ``algorithm="bulk"`` mapping
  bit-for-bit onto the legacy flat collective model for back-compat and
  ablation;
- :mod:`repro.comm.tuning` — the model-driven selector
  (``algorithm="auto"``) and the prediction table behind
  ``repro comm``;
- :mod:`repro.machine.retry` (re-exported here) — the fault-handling
  contract: a :class:`~repro.machine.retry.RetryPolicy` (timeout, exponential backoff
  with seeded jitter, a failed-attempt budget per call of this layer)
  applied by the engine as it issues each transfer when the cluster
  carries a :class:`~repro.faults.FaultInjector`, and
  :class:`~repro.machine.retry.CommFailure` raised when retries cannot
  succeed.

See ``docs/COMM.md`` for the cost model and selector policy, and
``docs/FAULTS.md`` for retry semantics.
"""

from __future__ import annotations

from repro.comm.api import (
    ALGORITHMS,
    allgather,
    alltoall,
    grouped_alltoall,
    halo_exchange,
    sendrecv,
)
from repro.machine.retry import DEFAULT_RETRY, CommFailure, RetryPolicy
from repro.comm.plans import CommPlan, Msg, build_plan
from repro.comm.tuning import (
    algorithm_table,
    candidate_algorithms,
    choose_algorithm,
    predict_time,
)

__all__ = [
    "ALGORITHMS",
    "CommFailure",
    "CommPlan",
    "DEFAULT_RETRY",
    "Msg",
    "RetryPolicy",
    "algorithm_table",
    "allgather",
    "alltoall",
    "build_plan",
    "candidate_algorithms",
    "choose_algorithm",
    "grouped_alltoall",
    "halo_exchange",
    "predict_time",
    "sendrecv",
]

"""Continuous batching: coalesce compatible requests into one execution.

Two requests are *compatible* when they resolve to the same execution
configuration — ``(N, dtype, P, ML, B, Q, G, comm_algorithm)`` — so a
batch of k of them runs as one plan with a leading batch axis: every
BatchedGEMM stacks k problems, every collective carries k payloads,
while launch count and per-launch latency stay those of a single
transform.  That amortization is the Figure-1 BatchedGEMM story applied
across *requests* instead of across FMM boxes, and it is where the
service's throughput win at latency-bound sizes comes from.

The policy is continuous batching: whenever the scheduler has a free
issue slot it drains up to ``max_batch`` requests compatible with the
queue head — no timers, no artificial waiting for a batch to "fill".
Deadline classes shape who the head *is* (the queue serves interactive
first); the batcher never delays the head to improve packing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.plan import FmmFftPlan
from repro.serve.cache import PlanCache
from repro.serve.queue import AdmissionQueue
from repro.serve.request import TransformRequest
from repro.util.validation import ParameterError


@dataclass(frozen=True)
class Batch:
    """One coalesced execution: k requests sharing a plan.

    ``setup_time`` is the modeled host-side planning cost this batch
    actually incurred (search + operator build on cold paths, 0.0 when
    fully warm); the scheduler adds it to the batch's release time.
    """

    bid: int
    requests: tuple[TransformRequest, ...]
    plan: FmmFftPlan = field(repr=False)
    comm_algorithm: str
    setup_time: float

    @property
    def k(self) -> int:
        """Batch size (number of coalesced requests)."""
        return len(self.requests)


class Batcher:
    """Form batches from an :class:`AdmissionQueue` through a
    :class:`PlanCache`.

    Parameters
    ----------
    cache:
        Plan/wisdom cache; the sole source of plans (lint rule 8).
    max_batch:
        Largest coalesced batch.
    batching:
        False degrades to one-request batches (the unbatched arms of
        ``TestServingArms`` in ``tests/test_serve_scheduler.py``).
    """

    def __init__(self, cache: PlanCache, max_batch: int = 8,
                 batching: bool = True):
        if max_batch < 1:
            raise ParameterError(f"max_batch must be >= 1, got {max_batch}")
        self.cache = cache
        self.max_batch = max_batch
        self.batching = batching
        # (N, dtype) -> compat key; resolution is deterministic for a
        # fixed machine, so memoizing keeps compat probes from charging
        # the cache counters once per queued request per issue attempt
        self._key_memo: dict[tuple, tuple] = {}
        self._next_bid = 0
        #: (bid, k, N) of every batch formed, in issue order
        self.formed: list[tuple[int, int, int]] = []

    def compat_key(self, req: TransformRequest) -> tuple:
        """The full compatibility key a request resolves to.

        ``(N, dtype, P, ML, B, Q, G, comm_algorithm)``: requests with
        equal keys can share one batched execution.  Under a fixed
        machine and wisdom store the parameters are a pure function of
        (N, dtype), so this is also the wisdom key's resolution.
        """
        memo_key = (req.N, np.dtype(req.dtype).name)
        hit = self._key_memo.get(memo_key)
        if hit is not None:
            return hit
        params, alg, _ = self.cache.resolve(req.N, req.dtype)
        key = (req.N, np.dtype(req.dtype).name, params["P"], params["ML"],
               params["B"], params["Q"], self.cache.spec.num_devices, alg)
        self._key_memo[memo_key] = key
        return key

    def next_batch(self, queue: AdmissionQueue, now: float) -> Batch | None:
        """Drain the next batch (None if the queue is empty).

        The queue head is always served; up to ``max_batch - 1`` more
        requests with the head's compatibility key ride along.  The
        plan is resolved exactly once, *before* the compatibility scan,
        so cold resolves charge their setup to this batch; the scan
        itself filters on (N, dtype), which under a fixed machine and
        wisdom store equals full-key equality without re-resolving (a
        probe resolve would warm the wisdom and quietly erase the
        search penalty the head is about to owe).
        """
        head = queue.head()
        if head is None:
            return None
        plan, alg, setup = self.cache.plan_for(head.N, head.dtype)
        self._key_memo[(head.N, np.dtype(head.dtype).name)] = (
            head.N, np.dtype(head.dtype).name, plan.P, plan.ML, plan.B,
            plan.Q, self.cache.spec.num_devices, alg,
        )
        if self.batching:
            reqs = queue.take(
                now,
                lambda r: r.N == head.N
                and np.dtype(r.dtype) == np.dtype(head.dtype),
                self.max_batch,
            )
        else:
            reqs = queue.take(now, lambda r: r is head, 1)
        bid = self._next_bid
        self._next_bid += 1
        self.formed.append((bid, len(reqs), head.N))
        return Batch(bid=bid, requests=tuple(reqs), plan=plan,
                     comm_algorithm=alg, setup_time=setup)

"""Plan cache and persistent wisdom — the serving layer's memory.

Two tiers, FFTW style:

- :class:`Wisdom` — a JSON-persistable store of *winning parameters*:
  the ``(P, ML, B, Q)`` found by :func:`repro.model.search.find_fastest`
  and the collective algorithm picked by
  :func:`repro.comm.tuning.choose_algorithm`, keyed by machine-spec
  fingerprint + N + dtype.  A warm start loads it and performs **zero**
  autotune searches.
- :class:`PlanCache` — an LRU of live :class:`FmmFftPlan` objects keyed
  by :meth:`FmmFftPlan.plan_key`, so repeated traffic at the same
  configuration reuses one operator bundle instead of rebuilding it per
  request.

This module is the **only** place the serving layer may construct an
``FmmFftPlan`` — the ``serve-plan-cache`` lint rule enforces it — so the
hit-rate accounting the stats layer reports is truthful by construction.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.comm.tuning import choose_algorithm
from repro.core.api import default_params
from repro.core.plan import FmmFftPlan
from repro.machine.spec import ClusterSpec, spec_fingerprint
from repro.model.search import find_fastest
from repro.util.validation import ParameterError

#: modeled host-side cost of one autotune search (a few hundred
#: timing-only simulations — FFTW_MEASURE territory), charged to the
#: release time of the batch that triggered it
SEARCH_SETUP_TIME = 5e-3

#: modeled host-side cost of building one plan's operator bundle
PLAN_BUILD_TIME = 0.5e-3


def _wisdom_key(fingerprint: str, N: int, dtype) -> str:
    return f"{fingerprint}|{N}|{np.dtype(dtype).name}"


@dataclass
class Wisdom:
    """Persistent autotuning results, keyed by machine fingerprint.

    The one wisdom store: ``repro tune`` fills it and ``repro serve
    --wisdom`` reads it.  Entries key on :func:`spec_fingerprint` (not
    the spec's display *name*), so a file is safe to ship between
    hosts: a mismatched machine misses instead of silently serving
    another machine's parameters.
    """

    entries: dict[str, dict] = field(default_factory=dict)

    def get(self, spec: ClusterSpec, N: int, dtype) -> dict | None:
        """Stored ``{"params": ..., "comm_algorithm": ...}`` or None."""
        hit = self.entries.get(_wisdom_key(spec_fingerprint(spec), N, dtype))
        if hit is None:
            return None
        return {"params": dict(hit["params"]),
                "comm_algorithm": hit["comm_algorithm"]}

    def put(self, spec: ClusterSpec, N: int, dtype, params: dict,
            comm_algorithm: str, fmmfft_time: float | None = None) -> None:
        """Record a search winner for this machine."""
        self.entries[_wisdom_key(spec_fingerprint(spec), N, dtype)] = dict(
            params={k: int(params[k]) for k in ("P", "ML", "B", "Q")},
            comm_algorithm=comm_algorithm,
            fmmfft_time=fmmfft_time,
        )

    def __len__(self) -> int:
        return len(self.entries)

    def dumps(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps({"version": 1, "kind": "serve-wisdom",
                           "entries": self.entries}, indent=1)

    @classmethod
    def loads(cls, text: str) -> "Wisdom":
        """Deserialize; rejects unknown versions and malformed entries."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParameterError(f"invalid wisdom JSON: {e}") from None
        if (
            not isinstance(doc, dict)
            or doc.get("version") != 1
            or doc.get("kind") != "serve-wisdom"
        ):
            raise ParameterError("unsupported wisdom format")
        entries = doc.get("entries", {})
        for k, v in entries.items():
            if (
                "params" not in v
                or not {"P", "ML", "B", "Q"} <= set(v["params"])
                or "comm_algorithm" not in v
            ):
                raise ParameterError(f"malformed wisdom entry {k!r}")
        return cls(entries=entries)

    def save(self, path: str | Path) -> None:
        """Write the wisdom file."""
        Path(path).write_text(self.dumps())

    @classmethod
    def load(cls, path: str | Path) -> "Wisdom":
        """Read a wisdom file."""
        return cls.loads(Path(path).read_text())


class PlanCache:
    """LRU plan cache over a wisdom store — the serve layer's sole
    source of :class:`FmmFftPlan` objects.

    Parameters
    ----------
    spec:
        The machine being served (fixes G and the wisdom fingerprint).
    capacity:
        Maximum live plans; least recently used are evicted.  0 disables
        caching entirely (every resolve re-plans — the "one-shot cold"
        baseline the benchmark measures against).
    wisdom:
        The persistent store; None starts cold and accumulates in
        memory.
    autotune:
        True (default) runs the Figure-3 parameter search on a wisdom
        miss; False falls back to :func:`repro.core.api.default_params`
        without searching (no search penalty, weaker parameters).
    build_operators:
        Build numeric operator bundles (needed when the service computes
        payloads; timing-only services keep geometry-only plans).
    remember:
        False drops search results instead of recording them to wisdom —
        every resolve re-searches.  Together with ``capacity=0`` this is
        the "re-plan and re-autotune per request" strawman the benchmark
        measures the service against.

    Counters ``plan_hits``/``plan_misses``/``wisdom_hits``/
    ``wisdom_misses``/``searches`` feed the stats layer's hit-rate and
    the zero-searches-on-warm-start acceptance check.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        capacity: int = 16,
        wisdom: Wisdom | None = None,
        autotune: bool = True,
        build_operators: bool = False,
        remember: bool = True,
    ):
        if capacity < 0:
            raise ParameterError(f"capacity must be >= 0, got {capacity}")
        self.spec = spec
        self.capacity = capacity
        self.wisdom = wisdom if wisdom is not None else Wisdom()
        self.autotune = autotune
        self.build_operators = build_operators
        self.remember = remember
        self._plans: OrderedDict[tuple, FmmFftPlan] = OrderedDict()
        #: captured IR graphs keyed by (plan_key, comm_algorithm, batch_k);
        #: warm batches replay these instead of re-interpreting the pipeline
        self._graphs: OrderedDict[tuple, object] = OrderedDict()
        self.plan_hits = 0
        self.plan_misses = 0
        self.wisdom_hits = 0
        self.wisdom_misses = 0
        self.searches = 0
        self.graph_hits = 0
        self.graph_misses = 0
        #: replayed-batch count (the scheduler increments via
        #: :meth:`count_replay` when a graph hit is actually replayed)
        self.replays = 0
        #: optional MetricsRegistry (see :meth:`attach_telemetry`)
        self.telemetry = None
        #: simulated time the next counter emission is stamped with —
        #: the batcher sets it before each resolve (the cache's own
        #: methods carry no time parameter)
        self.sim_now = 0.0

    def attach_telemetry(self, registry) -> None:
        """Stream cache counters (``cache.plan_hit`` / ``cache.plan_miss``
        / ``cache.wisdom_hit`` / ``cache.wisdom_miss`` / ``cache.search``
        / ``cache.graph_hit`` / ``cache.graph_miss`` / ``cache.replay``)
        into a metrics registry, stamped with :attr:`sim_now`."""
        self.telemetry = registry

    def _count(self, name: str) -> None:
        if self.telemetry is not None:
            self.telemetry.counter(name).inc(1.0, t=self.sim_now)

    def __len__(self) -> int:
        return len(self._plans)

    # -- parameter resolution (wisdom tier) ----------------------------

    def resolve(self, N: int, dtype) -> tuple[dict, str, float]:
        """Winning ``(params, comm_algorithm)`` for a size, plus the
        modeled host-side setup time this resolve cost (0.0 on a wisdom
        hit).  Searches at most once per (machine, N, dtype)."""
        hit = self.wisdom.get(self.spec, N, dtype)
        if hit is not None:
            self.wisdom_hits += 1
            self._count("cache.wisdom_hit")
            return hit["params"], hit["comm_algorithm"], 0.0
        self.wisdom_misses += 1
        self._count("cache.wisdom_miss")
        t = 0.0
        if self.autotune and self.spec.num_devices > 1:
            self.searches += 1
            self._count("cache.search")
            t += SEARCH_SETUP_TIME
            result = find_fastest(N, self.spec, dtype=dtype)
            params, best_time = dict(result.params), result.fmmfft_time
        else:
            params, best_time = default_params(N, self.spec.num_devices), None
        # the transpose all-to-all dominates; pick its algorithm once
        payload = N * np.dtype(dtype).itemsize
        alg = choose_algorithm(self.spec, "alltoall",
                               payload / max(1, self.spec.num_devices))
        if self.remember:
            self.wisdom.put(self.spec, N, dtype, params, alg, best_time)
        return params, alg, t

    # -- plan resolution (LRU tier) ------------------------------------

    def plan_for(self, N: int, dtype) -> tuple[FmmFftPlan, str, float]:
        """The live plan for a size: ``(plan, comm_algorithm, setup_time)``.

        ``setup_time`` models the host-side cost actually incurred by
        this call — search (wisdom miss) plus operator build (LRU miss);
        a fully warm call costs 0.0 and performs no construction.
        """
        params, alg, t = self.resolve(N, dtype)
        key = ("fmmfft", N, params["P"], params["ML"], params["B"],
               params["Q"], self.spec.num_devices, np.dtype(dtype).name)
        plan = self._plans.get(key)
        if plan is not None:
            self.plan_hits += 1
            self._count("cache.plan_hit")
            self._plans.move_to_end(key)
            return plan, alg, t
        self.plan_misses += 1
        self._count("cache.plan_miss")
        plan = FmmFftPlan.create(
            N=N, G=self.spec.num_devices, dtype=dtype,
            build_operators=self.build_operators, **params,
        )
        if plan.plan_key() != key:
            raise ParameterError(
                f"plan key drifted: built {plan.plan_key()}, cached {key}"
            )
        t += PLAN_BUILD_TIME
        if self.capacity > 0:
            self._plans[key] = plan
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
        return plan, alg, t

    def host_plan_for(self, N: int, dtype) -> FmmFftPlan:
        """Single-device operator twin of the serving plan.

        Batched numerics run host-side (:func:`repro.core.single.
        fmmfft_batched` wants G=1 operators); this resolves the same
        ``(P, ML, B, Q)`` as :meth:`plan_for` but builds a G=1 plan
        with operators.  Cached in the same LRU (``plan_key`` embeds G,
        so serving and host twins never collide).  Host numerics are a
        correctness mirror, not part of the timing model, so no setup
        time is charged here.
        """
        params, _, _ = self.resolve(N, dtype)
        key = ("fmmfft", N, params["P"], params["ML"], params["B"],
               params["Q"], 1, np.dtype(dtype).name)
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            return plan
        plan = FmmFftPlan.create(N=N, G=1, dtype=dtype,
                                 build_operators=True, **params)
        if self.capacity > 0:
            self._plans[key] = plan
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
        return plan

    # -- captured-graph tier (IR replay) -------------------------------

    def graph_for(self, key: tuple):
        """The certified :class:`~repro.ir.graph.IRGraph` captured for
        a ``(plan_key, comm_algorithm, batch_k)`` configuration, or
        None (counted as ``cache.graph_hit`` / ``cache.graph_miss``)."""
        graph = self._graphs.get(key)
        if graph is not None:
            self.graph_hits += 1
            self._count("cache.graph_hit")
            self._graphs.move_to_end(key)
            return graph
        self.graph_misses += 1
        self._count("cache.graph_miss")
        return None

    def put_graph(self, key: tuple, graph) -> None:
        """Store a captured graph (LRU, same capacity as the plan tier;
        a zero-capacity cache stores nothing)."""
        if self.capacity > 0:
            self._graphs[key] = graph
            while len(self._graphs) > self.capacity:
                self._graphs.popitem(last=False)

    def count_replay(self) -> None:
        """Account one replayed batch (``cache.replay``)."""
        self.replays += 1
        self._count("cache.replay")

    @property
    def hit_rate(self) -> float:
        """Plan-cache hit fraction over all lookups (1.0 when warm)."""
        total = self.plan_hits + self.plan_misses
        return self.plan_hits / total if total else 0.0

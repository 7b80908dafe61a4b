"""Model-driven collective algorithm selection (Section 5 cost model).

The selector prices every candidate plan with the same closed-form cost
model the simulator charges — a message plan's ``time`` as
:func:`repro.comm.plans.build_plan` priced it (per-message pair latency
+ bytes / contended bandwidth, rounds back to back) — and picks the
cheapest for a given (topology, G, kind, payload).  ``bulk`` is priced
with the legacy flat formula (``spec.collective_time``) so the table
shows exactly what the refactor buys; ``auto`` resolves among the real
message plans only (``direct``/``ring``/``bruck``, plus ``hier2`` and,
for an allgather, ``hier`` on multi-node machines), never back to
``bulk``, because the flat model's synthetic synchronization is what we
are replacing.

``repro comm --system ...`` prints :func:`algorithm_table`; after a
run, :func:`repro.obs.fold.fold_run` sets each message the engine
charged against its fault-free price.
"""

from __future__ import annotations

from repro.comm.plans import build_plan, check_payload
from repro.util.validation import check_count

#: Message sizes (bytes per device) swept by the CLI/bench tables.
DEFAULT_SIZES = tuple(float(1 << p) for p in range(12, 28, 3))  # 4 KiB..128 MiB


def candidate_algorithms(spec, kind: str) -> list[str]:
    """Plan algorithms ``auto`` prices for ``kind`` on this machine
    (never ``bulk``).  ``hier`` only for an allgather: over the sweep in
    ``docs/COMM.md`` it is never the cheapest all-to-all, while dropping
    it from allgather would cost up to 2.3x."""
    cands = ["direct", "ring", "bruck"]
    node_of = spec.graph.graph.get("node_of")
    if node_of and len(set(node_of.values())) > 1:
        cands += ["hier2"] if kind == "alltoall" else ["hier", "hier2"]
    return cands


def predict_time(spec, kind: str, payload: float, algorithm: str,
                 chunks: int = 1) -> float:
    """Predicted completion time of one collective under ``algorithm``.

    ``payload`` follows the plan convention: bytes each device sends for
    an alltoall, per-device contribution for an allgather.  With
    ``chunks > 1`` the chunks run back to back (the pipelining win comes
    from overlap with compute, which this closed form deliberately
    excludes — it prices the collective alone).
    """
    check_count("chunks", chunks)
    check_payload(payload)
    if algorithm == "bulk":
        per_dev = payload if kind == "alltoall" else \
            (spec.num_devices - 1) * payload
        return chunks * spec.collective_time(per_dev / chunks)
    return chunks * build_plan(spec, kind, payload / chunks, algorithm).time


def choose_algorithm(spec, kind: str, payload: float) -> str:
    """Cheapest plan algorithm for this machine, kind, and payload (kept in ``spec.plans``)."""
    check_payload(payload)
    if spec.num_devices < 2:
        return "bulk"
    key = ("auto", kind, payload)
    if key not in spec.plans:
        spec.plans[key] = min(candidate_algorithms(spec, kind),
                              key=lambda a: predict_time(spec, kind, payload, a))
    return spec.plans[key]


def algorithm_table(spec, kinds=("alltoall", "allgather"),
                    sizes=DEFAULT_SIZES) -> list[dict]:
    """Selector table: one row per (kind, payload) with every algorithm's
    predicted time, the legacy ``bulk`` prediction, and the winner."""
    rows = []
    for kind in kinds:
        for size in sizes:
            preds = {a: predict_time(spec, kind, float(size), a)
                     for a in candidate_algorithms(spec, kind)}
            best = min(preds, key=preds.get)
            rows.append({
                "kind": kind,
                "payload_bytes": float(size),
                "bulk": predict_time(spec, kind, float(size), "bulk"),
                "predictions": preds,
                "best": best,
                "speedup_vs_bulk":
                    predict_time(spec, kind, float(size), "bulk") / preds[best],
            })
    return rows

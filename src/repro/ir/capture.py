"""Capture: seal the tape of one eager pipeline run into an IRGraph.

There is no recording layer.  :func:`capture` opens the engine's own
tape (:meth:`VirtualCluster.taping`), calls ``run(cluster)`` on the
cluster itself — the capture run *is* the eager run: same object, same
ledger, events, data, and telemetry — and wraps the steps the engine
wrote (each priced exactly as it was issued, dependencies resolved by
producer, ``comm_log`` entries included) in an
:class:`~repro.ir.graph.IRGraph`.  The resolution rules and the
refusals (events from outside the capture, producer-less synthetics)
live with the tape in
:mod:`repro.machine.tape`.
"""

from __future__ import annotations

from typing import Callable

from repro.ir.graph import IRGraph
from repro.machine.spec import spec_fingerprint
from repro.machine.stream import Event
from repro.machine.tape import CaptureError  # noqa: F401 - re-exported


def capture(run: Callable, cluster, *, release_event: Event | None = None,
            pipeline: str = "", key=None, buffer_prefix: str = ""):
    """Capture one pipeline run: ``run(cluster)`` with the tape open.

    Returns ``(graph, result)`` where ``result`` is whatever ``run``
    returned — the capture run is the eager run, so its output is
    usable directly.  ``release_event`` marks an external dependency
    event to parameterize per replay; ``buffer_prefix`` documents the
    namespace captured buffer names live under (for slot renaming at
    replay).
    """
    with cluster.taping(release_event) as tape:
        result = run(cluster)
    graph = IRGraph(tape.nodes, {
        "pipeline": pipeline,
        "key": key,
        "G": cluster.G,
        "spec_fingerprint": spec_fingerprint(cluster.spec),
        "buffer_prefix": buffer_prefix,
        "executed": bool(cluster.execute),
    })
    graph.validate()
    return graph, result

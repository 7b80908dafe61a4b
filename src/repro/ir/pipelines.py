"""IR capture of the table's pipelines (:mod:`repro.pipelines`).

:func:`capture_built` runs an already-built pipeline once with the
engine's capture tape open — the ordinary eager run, every primitive it
issues taped — and returns ``(graph, result)``.  On the way out it
attaches the two host-side data hooks the replay loop needs in execute
mode, straight from the pipeline contract:

- ``graph.stage_in(*inputs)`` — place fresh input data into the
  capture cluster's device buffers (the same host-side scatter the
  pipeline's ``run`` performs before issuing ops);
- ``graph.finalize()`` — gather the output from device buffers (the
  same host-side gather ``run`` performs at the end).

Both hooks are bound to the **capture cluster**: the captured NumPy
closures read and write that cluster's device buffers (and, for the
FMM, per-instance host state), so an execute-mode replay must target
the machine the graph was captured on.  Timing-only replays
(:func:`~repro.ir.executor.scratch_replay`, the serve scheduler) never
run closures and may target any fresh cluster with the same spec.

:func:`capture_pipeline` is build + capture by name: what the CLI, the
CI smoke jobs and ``perf/`` use, with inputs drawn from the table's
seeded generator on execute-mode clusters.
"""

from __future__ import annotations

from repro import pipelines
from repro.ir.capture import capture


def capture_built(pipeline, *inputs):
    """Capture ``pipeline.run(*inputs)`` on the pipeline's own cluster."""
    key = pipeline.graph_key()
    graph, result = capture(
        lambda cl: pipeline.run(*inputs), pipeline.cl, pipeline=key[0],
        key=key, buffer_prefix=pipeline.ns)
    graph.stage_in, graph.finalize = pipeline.stage_in, pipeline.finalize
    return graph, result


def capture_pipeline(name: str, cluster, N: int, *, dtype="complex128",
                     comm_algorithm="bulk", seed: int = 0):
    """Build pipeline ``name`` at size ``N`` on ``cluster`` and capture
    one run of it; returns ``(graph, result)``.

    On execute-mode clusters, inputs are drawn from a seeded RNG so
    captures are reproducible; timing-only clusters run without data.
    """
    pipe = pipelines.build(name, cluster, N, dtype=dtype,
                           comm_algorithm=comm_algorithm)
    args = pipelines.inputs(pipe, seed) if cluster.execute else ()
    return capture_built(pipe, *args)

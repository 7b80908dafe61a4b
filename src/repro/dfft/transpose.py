"""The distributed transpose: one personalized all-to-all.

Device g holds rows ``[g*r, (g+1)*r)`` of an ``R x C`` matrix; after the
transpose, device h holds rows ``[h*c, (h+1)*c)`` of the ``C x R``
transposed matrix.  Device g therefore sends sub-block
``A_g[:, h*c:(h+1)*c]`` to every h != g — exactly ``(G-1)/G`` of its
local data — and locally reorders its diagonal sub-block.

Chunking: the all-to-all can be issued in ``chunks`` pieces, each gated
on a caller-supplied event (typically the completion of the local FFT
that produced those rows).  This is how the six-step baseline reproduces
cuFFTXT's comm/compute overlap.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import comm
from repro.dfft.layout import BlockRows
from repro.machine.cluster import VirtualCluster
from repro.machine.stream import Event
from repro.util.validation import ParameterError, check_count


def _move_blocks(cl: VirtualCluster, src_key: str, dst_key: str, layout: BlockRows) -> None:
    """Perform the real data movement of the transpose (all at once)."""
    G = cl.G
    c = layout.cols_local
    srcs = [
        np.asarray(cl.dev(g)[src_key]).reshape(layout.rows_local, layout.cols)
        for g in range(G)
    ]
    r = layout.rows_local
    step = min(r, 128)  # source rows per copy: the column walk stays in cache
    for h in range(G):
        # rows h*c..(h+1)*c of the transposed matrix = cols h*c.. of A,
        # written once: source g fills columns g*r..(g+1)*r
        dst = np.empty((c, layout.rows), dtype=srcs[0].dtype)
        for i in range(0, layout.rows, step):
            g, j = divmod(i, r)
            dst[:, i : i + step] = srcs[g][j : j + step, h * c : (h + 1) * c].T
        cl.dev(h)[dst_key] = dst


def distributed_transpose(
    cl: VirtualCluster,
    src_key: str,
    dst_key: str,
    layout: BlockRows,
    dtype,
    name: str = "transpose",
    after_chunks: Sequence[Sequence[Event]] | None = None,
    chunks: int = 1,
    algorithm: str = "bulk",
    batch: int = 1,
) -> list[Event]:
    """Transpose a block-row distributed matrix; returns per-device events.

    Parameters
    ----------
    cl:
        The cluster (must have ``G == layout.G``).
    src_key, dst_key:
        Device buffer names; ``dst_key`` receives the transposed local
        block of shape ``(cols_local, rows)``.
    layout:
        The source layout.
    dtype:
        Element dtype (for byte accounting).
    name:
        Ledger stage name.
    after_chunks:
        Optional per-chunk event dependencies, ``len == chunks``; chunk
        ``i`` starts only after ``after_chunks[i]``.
    chunks:
        Number of all-to-all pieces to pipeline.
    algorithm:
        Collective algorithm (see :mod:`repro.comm`): ``"bulk"`` is the
        legacy flat model, ``"auto"`` picks the cheapest message plan
        for this topology and payload.
    batch:
        Stacked-problem count (timing-only): scales the bytes moved by
        the all-to-all and the local reorder, one collective either way.
    """
    if cl.G != layout.G:
        raise ParameterError(f"cluster G={cl.G} != layout G={layout.G}")
    check_count("batch", batch)
    itemsize = np.dtype(dtype).itemsize
    sent = layout.alltoall_bytes_sent(itemsize) * batch

    # Real data moves once, with the first op issued (orchestration is
    # sequential, so the data is complete by the time any fn runs).
    # Chunk i moves row-chunk i of the source into transposed slot i of
    # the destination; distinct chunks are disjoint sub-resources, which
    # is what lets them pipeline against the producing FFTs.
    def fn(c: VirtualCluster) -> None:
        _move_blocks(c, src_key, dst_key, layout)

    events = comm.alltoall(
        cl, sent, name,
        fn=fn,
        reads=[src_key],
        writes=[dst_key],
        algorithm=algorithm,
        chunks=chunks,
        after_chunks=after_chunks,
    )
    # Local diagonal sub-block still needs an on-device reorder
    # (read + write of local_bytes / G); on G == 1 this is the whole
    # transpose and carries the full local cost.
    local_bytes = layout.local_bytes(itemsize) * batch
    reorder = 2.0 * (local_bytes if cl.G == 1 else local_bytes / cl.G)
    out: list[Event] = []
    for g in range(cl.G):
        ev = cl.launch(
            g, name=f"{name}.reorder", kind="copy", flops=0.0, mops=reorder,
            dtype=dtype, stream="compute", after=[events[min(g, len(events) - 1)]],
            reads=[src_key, dst_key], writes=[dst_key],
        )
        out.append(ev)
    return out

"""The batched local FFT stage: the other primitive beside the transpose.

Every pipeline here is serial FFTs along one local axis around global
redistributions (:func:`~repro.dfft.transpose.distributed_transpose`).
This is the FFT: its price, chunking, per-device launches and data
closure, written once for ``fft1d``, ``fft2d`` and both 3D decompositions.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.fftcore.flops import fft_flops, fft_mops, fft_small_n_efficiency
from repro.fftcore.plan import LocalFFTPlan
from repro.machine.cluster import VirtualCluster
from repro.machine.stream import Event


def local_fft_price(n: int, batch: float, itemsize: int,
                    extra: float = 0.0) -> tuple[float, float]:
    """``(flops, bytes)`` of ``batch`` length-``n`` FFTs in one launch.

    ``extra`` is the per-point flop count of an elementwise load fused
    into the transform (6.0 for the six-step twiddle, 8.0 for the
    FMM-FFT's POST callback): flops only, no extra memory pass.  Small-n
    batched transforms run below peak bandwidth; the inefficiency is
    charged as effective extra traffic.
    """
    flops = fft_flops(n, batch=batch)
    if extra:
        flops += extra * n * batch
    return flops, fft_mops(n, batch=batch, itemsize=itemsize) / fft_small_n_efficiency(n)


def local_fft_stage(
    cl: VirtualCluster,
    key: str,
    name: str,
    region: str,
    shape: tuple[int, ...],
    passes: Sequence[tuple[LocalFFTPlan, int]],
    dtype: np.dtype,
    after: Sequence[Event | None] | None = None,
    chunks: int = 1,
    load: Callable[[np.ndarray, int], np.ndarray] | None = None,
    extra: float = 0.0,
    scale: int = 1,
) -> list[list[Event]]:
    """Transform every device's ``key`` block in place, under ``region``.

    Each device's block is viewed as ``shape``, optionally passed
    through ``load(block, g)`` (a cuFFT-style load callback, priced by
    ``extra``), and transformed by each ``(plan, axis)`` of ``passes``
    in turn; stacked passes are priced as one launch.  The stage is
    issued in ``chunks`` launches per device, chunk ``i`` owning the
    disjoint sub-resource ``{key}#r{i}`` so a following transpose can
    pipeline against it; only chunk 0 waits on ``after[g]``.  ``scale``
    is the timing-only stacked-problem count.

    Returns per-chunk event lists (``chunks`` lists of G events).
    """
    G, size = cl.G, math.prod(shape)
    flops = mops = 0.0
    for plan, _ in passes:
        f, m = local_fft_price(plan.n, size // plan.n / chunks * scale,
                               dtype.itemsize, extra)
        flops += f
        mops += m

    # the real-data closure serves every device at once, so it rides on
    # device 0's first launch only
    def fn(c: VirtualCluster) -> None:
        for g in range(G):
            blk = np.asarray(c.dev(g)[key]).reshape(shape)
            if load is not None:
                blk = load(blk, g)
            for plan, axis in passes:
                blk = plan.forward(blk, axis=axis)
            c.dev(g)[key] = blk

    per_chunk: list[list[Event]] = []
    with cl.region(region):
        for i in range(chunks):
            bufs = [key] if chunks == 1 else [f"{key}#r{i}"]
            per_chunk.append([
                cl.launch(
                    g, name=name, kind="fft", flops=flops, mops=mops,
                    dtype=dtype, stream="compute",
                    after=[after[g]] if i == 0 and after and after[g] is not None else (),
                    fn=fn if i == 0 and g == 0 else None,
                    reads=bufs, writes=bufs,
                )
                for g in range(G)
            ])
    return per_chunk

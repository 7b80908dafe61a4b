"""Distributed M x P 2D FFT — a single all-to-all.

Steps (2)-(4) of the FMM-FFT (Section 3) are "precisely a distributed 2D
FFT of size M x P"::

    input  A[m, p] (m-block rows)   -- p-major vector t[p + m P]
    (a) M local FFTs of size P along p    (optionally with a fused load
        callback: the FMM-FFT's POST stage, Algorithm 1 lines 15-16)
    (b) transpose, the ONE all-to-all, pipelined against (a)
    (c) P local FFTs of size M along m
    output B[p, m] (p-block rows)   -- natural-order vector X[m + p M]

Compared to the six-step 1D FFT this saves two of the three transposes,
which is why "distributed 2D FFTs often achieve nearly 3x performance of
distributed 1D FFTs" (Section 6.1) — the black budget bar of Figure 3.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.dfft.layout import BlockRows
from repro.dfft.localfft import local_fft_stage
from repro.dfft.transpose import distributed_transpose
from repro.fftcore.plan import LocalFFTPlan
from repro.machine.cluster import VirtualCluster
from repro.machine.stream import Event
from repro.util.validation import (
    ParameterError,
    check_count,
    check_multiple,
    check_pow2,
    host_input,
)


class Distributed2DFFT:
    """Plan for a distributed 2D FFT over an M x P grid.

    Parameters
    ----------
    M, P:
        Grid dimensions; the transform is applied along both.
    cluster:
        The :class:`VirtualCluster` to run on.
    dtype:
        complex64 or complex128.
    chunks:
        Pipeline depth for overlap of (a) with (b).
    fuse_load:
        When a ``load_callback`` is supplied, True fuses it into the
        first FFT (no extra memory round trip); False charges a separate
        elementwise kernel — the ablation of the paper's callback
        optimization.
    comm_algorithm:
        Collective algorithm for the transpose (see :mod:`repro.comm`):
        ``"bulk"`` is the legacy flat model, ``"auto"`` the selector.
    batch:
        Stacked-problem count (timing-only cost model): per-stage data
        flops, memory traffic, and transpose bytes scale by ``batch``
        while the launch and collective counts stay fixed — how the
        serve batcher amortizes fixed costs over coalesced requests.
    """

    ns = "dfft2"  # device buffer prefix: the default ``key`` below

    def __init__(
        self,
        M: int,
        P: int,
        cluster: VirtualCluster,
        dtype="complex128",
        chunks: int = 4,
        fuse_load: bool = True,
        comm_algorithm: str = "bulk",
        batch: int = 1,
    ):
        check_pow2("M", M)
        check_pow2("P", P)
        check_count("chunks", chunks)
        G = cluster.G
        check_multiple("M", M, G, "G")
        check_multiple("P", P, G, "G")
        check_count("batch", batch)
        if batch > 1 and cluster.execute:
            raise ParameterError(
                "batch > 1 is a timing-only cost model; execute-mode numerics "
                "run through core.single.fmmfft_batched"
            )
        dt = np.dtype(dtype)
        if dt.kind != "c":
            raise ParameterError(f"dtype must be complex, got {dt!r}")
        # cuFFTXT rejects 2D FFTs with a dimension < 32 (Section 6.3.2);
        # we accept them but the model captures the same degradation.
        self.M, self.P = M, P
        self.cl = cluster
        self.dtype = dt
        if (M // G) * P < (1 << 16):
            chunks = 1
        self.chunks = min(chunks, M // G, P // G)
        self.fuse_load = fuse_load
        self.comm_algorithm = comm_algorithm
        self.batch = batch
        self._plan_M = LocalFFTPlan(M, dtype=dt)
        self._plan_P = LocalFFTPlan(P, dtype=dt)

    def graph_key(self) -> tuple:
        """Hashable configuration key: equal keys, equal schedules."""
        return ("fft2d", self.M, self.P, self.dtype.name, self.chunks,
                self.comm_algorithm, self.cl.G)

    # -- staging ----------------------------------------------------------

    def stage_in(self, a: np.ndarray, key: str = ns) -> None:
        """Scatter the global (M, P) array into per-device row blocks
        (host-side, no schedule footprint)."""
        cl, M, P, G = self.cl, self.M, self.P, self.cl.G
        a = host_input(a, self.dtype, M * P).reshape(M, P)
        lay_mp = BlockRows(rows=M, cols=P, G=G)
        for g, blk in enumerate(lay_mp.scatter(a)):
            cl.dev(g)[key] = blk

    def finalize(self, key: str = ns) -> np.ndarray:
        """Stack the per-device output blocks into the (P, M) result."""
        cl, G = self.cl, self.cl.G
        return BlockRows(rows=self.P, cols=self.M, G=G).gather(
            [cl.dev(g)[key] for g in range(G)])

    def run(
        self,
        a: np.ndarray | None = None,
        key: str = ns,
        load_callback: Callable[[np.ndarray, int], np.ndarray] | None = None,
        after: list[Event] | None = None,
        staged: bool = False,
        barrier: bool = True,
    ) -> np.ndarray | None:
        """Execute the 2D FFT.

        Parameters
        ----------
        a:
            Global (M, P) array (execute mode, unless ``staged``).
        key:
            Device buffer name; with ``staged=True`` the input blocks of
            shape (M/G, P) must already be in each device's ``key``
            buffer (how the FMM-FFT hands its T tensor over).
        load_callback:
            ``f(block, g) -> block`` applied to device g's input block
            before the first FFT (the POST stage).  Charged fused or
            unfused per ``fuse_load``.
        after:
            Per-device events the first FFT must wait on.
        staged:
            Input already resident on devices.
        barrier:
            True (default) ends with a cluster-wide barrier.  The serve
            scheduler passes False so the next in-flight batch's comm
            can start under this batch's trailing compute.

        Returns
        -------
        The (P, M) output — i.e. the natural-order vector reshaped — or
        None in timing-only mode.
        """
        cl, M, P, G = self.cl, self.M, self.P, self.cl.G
        k = self.batch
        lay_mp = BlockRows(rows=M, cols=P, G=G)
        lay_pm = lay_mp.transposed()
        if after is not None and len(after) != G:
            raise ParameterError(f"after must have G={G} events, got {len(after)}")

        if cl.execute and not staged:
            if a is None:
                raise ParameterError("execute-mode cluster requires input data")
            self.stage_in(a, key)
        elif not cl.execute and not staged:
            for g in range(G):
                cl.dev(g).alloc(key, lay_mp.local_shape(), self.dtype)

        fused = load_callback is not None and self.fuse_load
        with cl.region("fft2d"):
            # Unfused load callback: a separate elementwise pass.
            if load_callback is not None and not self.fuse_load:
                local_elems = lay_mp.rows_local * P * k

                def apply(c: VirtualCluster) -> None:
                    for g in range(G):
                        c.dev(g)[key] = load_callback(np.asarray(c.dev(g)[key]), g)

                with cl.region("load"):
                    after = [
                        cl.launch(
                            g, name="load", kind="custom",
                            flops=8.0 * local_elems,
                            mops=2.0 * local_elems * self.dtype.itemsize,
                            dtype=self.dtype, stream="compute",
                            after=[after[g]] if after and after[g] is not None else (),
                            fn=apply if g == 0 else None,
                            reads=[key], writes=[key],
                        )
                        for g in range(G)
                    ]
            # (a) M local FFTs of size P, chunked; a fused callback adds
            # flops only
            chunk_evs = local_fft_stage(
                cl, key, "fft2d.P", "fftP", (lay_mp.rows_local, P),
                [(self._plan_P, 1)], self.dtype, after=after,
                chunks=self.chunks, load=load_callback if fused else None,
                extra=8.0 if fused else 0.0, scale=k,
            )
            # (b) the single all-to-all, pipelined against (a)
            with cl.region("transpose"):
                evs = distributed_transpose(
                    cl, key, key, lay_mp, self.dtype, name="fft2d.transpose",
                    after_chunks=chunk_evs, chunks=self.chunks,
                    algorithm=self.comm_algorithm, batch=k,
                )
            # (c) P local FFTs of size M
            local_fft_stage(
                cl, key, "fft2d.M", "fftM", (lay_pm.rows_local, M),
                [(self._plan_M, 1)], self.dtype, after=evs, scale=k,
            )
        if barrier:
            cl.barrier()
        if cl.execute:
            return self.finalize(key)
        return None

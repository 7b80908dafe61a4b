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
from repro.dfft.transpose import distributed_transpose
from repro.fftcore.flops import fft_flops, fft_mops, fft_small_n_efficiency
from repro.fftcore.plan import LocalFFTPlan
from repro.machine.cluster import VirtualCluster
from repro.machine.stream import Event
from repro.util.validation import ParameterError, check_multiple, check_pow2


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
        G = cluster.G
        check_multiple("M", M, G, "G")
        check_multiple("P", P, G, "G")
        if batch < 1:
            raise ParameterError(f"batch must be >= 1, got {batch}")
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
        self.chunks = max(1, min(chunks, M // G, P // G))
        self.fuse_load = fuse_load
        self.comm_algorithm = comm_algorithm
        self.batch = batch
        self._plan_M = LocalFFTPlan(M, dtype=dt)
        self._plan_P = LocalFFTPlan(P, dtype=dt)

    # -- staging ----------------------------------------------------------

    def stage_in(self, a: np.ndarray, key: str = "dfft2") -> None:
        """Scatter the global (M, P) array into per-device row blocks.

        Host-side data motion with no schedule footprint; the replay
        executor calls it before each execute-mode replay (the IR's
        ``stage_in`` hook) exactly as :meth:`run` does on capture.
        """
        cl, M, P, G = self.cl, self.M, self.P, self.cl.G
        a = np.asarray(a, dtype=self.dtype).reshape(M, P)
        lay_mp = BlockRows(rows=M, cols=P, G=G)
        for g, blk in enumerate(lay_mp.scatter(a)):
            cl.dev(g)[key] = blk

    def gather(self, key: str = "dfft2") -> np.ndarray:
        """Stack the per-device output blocks into the (P, M) result.

        The inverse host-side motion of :meth:`stage_in`; doubles as the
        IR ``finalize`` hook.
        """
        cl, M, P, G = self.cl, self.M, self.P, self.cl.G
        rows_local = BlockRows(rows=P, cols=M, G=G).rows_local
        return np.vstack(
            [np.asarray(cl.dev(g)[key]).reshape(rows_local, M) for g in range(G)]
        )

    def run(
        self,
        a: np.ndarray | None = None,
        key: str = "dfft2",
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
        itemsize = self.dtype.itemsize
        local_elems = lay_mp.rows_local * P * k

        if cl.execute and not staged:
            if a is None:
                raise ParameterError("execute-mode cluster requires input data")
            self.stage_in(a, key)
        elif not cl.execute and not staged:
            for g in range(G):
                cl.dev(g).alloc(key, lay_mp.local_shape(), self.dtype)

        # Unfused load callback: a separate elementwise pass.
        evs = list(after) if after else [None] * G
        if load_callback is not None and not self.fuse_load:
            new_evs = []
            with cl.region("fft2d"), cl.region("load"):
                for g in range(G):
                    ev = cl.launch(
                        g, name="load", kind="custom",
                        flops=8.0 * local_elems,
                        mops=2.0 * local_elems * itemsize,
                        dtype=self.dtype, stream="compute",
                        after=[evs[g]] if evs[g] is not None else (),
                        fn=(lambda c: self._apply_callback(c, key, load_callback))
                        if g == 0 else None,
                        reads=[key], writes=[key],
                    )
                    new_evs.append(ev)
            evs = new_evs

        # (a) M local FFTs of size P, chunked; fused callback adds flops only.
        def fft_p_fn(c: VirtualCluster) -> None:
            for g in range(G):
                blk = np.asarray(c.dev(g)[key]).reshape(lay_mp.rows_local, P)
                if load_callback is not None and self.fuse_load:
                    blk = load_callback(blk, g)
                c.dev(g)[key] = self._plan_P.forward(blk, axis=1)

        rows_chunk = lay_mp.rows_local / self.chunks * k
        flops = fft_flops(P, batch=rows_chunk)
        if load_callback is not None and self.fuse_load:
            flops += 8.0 * P * rows_chunk
        mops = fft_mops(P, batch=rows_chunk, itemsize=itemsize) / fft_small_n_efficiency(P)
        chunk_evs: list[list[Event]] = []
        with cl.region("fft2d"), cl.region("fftP"):
            for i in range(self.chunks):
                # chunk i owns row-chunk i of ``key``: disjoint from the
                # already-transposing earlier chunks
                bufs = [key] if self.chunks == 1 else [f"{key}#r{i}"]
                es = []
                for g in range(G):
                    ev = cl.launch(
                        g, name="fft2d.P", kind="fft", flops=flops, mops=mops,
                        dtype=self.dtype, stream="compute",
                        after=[evs[g]] if i == 0 and evs[g] is not None else (),
                        fn=fft_p_fn if (i == 0 and g == 0) else None,
                        reads=bufs, writes=bufs,
                    )
                    es.append(ev)
                chunk_evs.append(es)

        # (b) the single all-to-all, pipelined against (a)
        with cl.region("fft2d"), cl.region("transpose"):
            evs2 = distributed_transpose(
                cl, key, key, lay_mp, self.dtype, name="fft2d.transpose",
                after_chunks=chunk_evs, chunks=self.chunks,
                algorithm=self.comm_algorithm, batch=k,
            )

        # (c) P local FFTs of size M
        lay_pm = lay_mp.transposed()

        def fft_m_fn(c: VirtualCluster) -> None:
            for g in range(G):
                blk = np.asarray(c.dev(g)[key]).reshape(lay_pm.rows_local, M)
                c.dev(g)[key] = self._plan_M.forward(blk, axis=1)

        flops_m = fft_flops(M, batch=lay_pm.rows_local * k)
        mops_m = fft_mops(M, batch=lay_pm.rows_local * k, itemsize=itemsize) / fft_small_n_efficiency(M)
        with cl.region("fft2d"), cl.region("fftM"):
            for g in range(G):
                cl.launch(
                    g, name="fft2d.M", kind="fft", flops=flops_m, mops=mops_m,
                    dtype=self.dtype, stream="compute", after=[evs2[g]],
                    fn=fft_m_fn if g == 0 else None,
                    reads=[key], writes=[key],
                )
        if barrier:
            cl.barrier()
        if cl.execute:
            return self.gather(key)
        return None

    @staticmethod
    def _apply_callback(cl: VirtualCluster, key: str, cb) -> None:
        for g in range(cl.G):
            cl.dev(g)[key] = cb(np.asarray(cl.dev(g)[key]), g)

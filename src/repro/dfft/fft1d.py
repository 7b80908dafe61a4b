"""The six-step distributed in-order 1D FFT — the paper's baseline.

This is the radix-P split of Section 3 (Van Loan's factorization)::

    F_N = Pi_{M,P} (I_M (x) F_P) Pi_{P,M} T_{P,M} (I_P (x) F_M) Pi_{M,P}

implemented, as all industry-standard distributed libraries implement it,
with **three** all-to-all transposes:

1. transpose P-major -> M-major          (all-to-all #1)
2. P local FFTs of size M
3. twiddle ``w[p,m] = omega_N^(p m)``    (fused as a load callback of 5)
4. transpose M-major -> P-major          (all-to-all #2)
5. M local FFTs of size P
6. transpose P-major -> M-major          (all-to-all #3)

Local FFT chunks are pipelined against their transpose chunks — the
overlap cuFFTXT achieves in Figure 2 (top) — so wall time degenerates to
roughly the three all-to-alls for large N, which is precisely the
communication-bound behaviour the FMM-FFT attacks.
"""

from __future__ import annotations

import numpy as np

from repro.dfft.layout import BlockRows
from repro.dfft.transpose import distributed_transpose
from repro.fftcore.flops import fft_flops, fft_mops, fft_small_n_efficiency
from repro.fftcore.plan import LocalFFTPlan
from repro.fftcore.twiddle import twiddle_block
from repro.machine.cluster import VirtualCluster
from repro.machine.stream import Event
from repro.util.bitmath import ilog2, is_pow2
from repro.util.validation import ParameterError, check_multiple, check_pow2


class Distributed1DFFT:
    """Plan for an in-order distributed 1D FFT of size ``N = M * P``.

    Parameters
    ----------
    N:
        Transform size (power of two).
    cluster:
        The :class:`VirtualCluster` to run on.
    dtype:
        complex64 or complex128.
    M, P:
        Optional explicit split; defaults to the near-square split
        ``M = 2^ceil(q/2)`` that vendor libraries prefer.
    chunks:
        Pipeline depth for FFT/transpose overlap.
    comm_algorithm:
        Collective algorithm for the three transposes (see
        :mod:`repro.comm`); ``"bulk"`` is the legacy flat model.
    """

    def __init__(
        self,
        N: int,
        cluster: VirtualCluster,
        dtype="complex128",
        M: int | None = None,
        P: int | None = None,
        chunks: int = 4,
        comm_algorithm: str = "bulk",
    ):
        check_pow2("N", N)
        q = ilog2(N)
        if M is None and P is None:
            M = 1 << ((q + 1) // 2)
            P = N // M
        elif M is None:
            M = N // P
        elif P is None:
            P = N // M
        if M * P != N:
            raise ParameterError(f"M*P = {M}*{P} != N = {N}")
        check_pow2("M", M)
        check_pow2("P", P)
        G = cluster.G
        check_multiple("M", M, G, "G")
        check_multiple("P", P, G, "G")
        dt = np.dtype(dtype)
        if dt.kind != "c":
            raise ParameterError(f"dtype must be complex, got {dt!r}")
        self.N, self.M, self.P = N, M, P
        self.cl = cluster
        self.dtype = dt
        # cuFFT-style heuristic: don't chunk tiny local problems (launch
        # overhead would dominate any overlap win)
        if N // G < (1 << 16):
            chunks = 1
        self.chunks = max(1, min(chunks, M // G, P // G))
        self.comm_algorithm = comm_algorithm
        self._plan_M = LocalFFTPlan(M, dtype=dt)
        self._plan_P = LocalFFTPlan(P, dtype=dt)

    # -- helpers ---------------------------------------------------------

    def _chunked_row_fft(
        self,
        key: str,
        layout: BlockRows,
        plan: LocalFFTPlan,
        name: str,
        after: list[Event],
        twiddle: bool = False,
    ) -> list[list[Event]]:
        """Batch row FFTs on every device, issued in ``self.chunks`` pieces.

        Returns per-chunk event lists (``chunks`` lists of G events) so a
        following transpose can pipeline.  The optional twiddle is fused
        as a load callback (charged as extra flops, no extra memory
        pass), matching cuFFTXT's callback facility.
        """
        cl = self.cl
        n = plan.n
        rows_local = layout.rows_local
        itemsize = self.dtype.itemsize

        def data_fn(c: VirtualCluster) -> None:
            for g in range(cl.G):
                a = np.asarray(c.dev(g)[key]).reshape(rows_local, layout.cols)
                if twiddle:
                    a = self._twiddle_block(a, g)
                c.dev(g)[key] = plan.forward(a, axis=1)

        per_chunk: list[list[Event]] = []
        rows_chunk = rows_local / self.chunks
        flops = fft_flops(n, batch=rows_chunk)
        # small-n batched transforms run below peak bandwidth; charge the
        # inefficiency as effective extra traffic
        mops = fft_mops(n, batch=rows_chunk, itemsize=itemsize) / fft_small_n_efficiency(n)
        if twiddle:
            flops += 6.0 * n * rows_chunk  # complex multiply per element
        for i in range(self.chunks):
            # chunk i transforms row-chunk i in place: a disjoint
            # sub-resource, so later chunks overlap the transpose of
            # earlier ones without aliasing
            bufs = [key] if self.chunks == 1 else [f"{key}#r{i}"]
            evs = []
            for g in range(cl.G):
                ev = cl.launch(
                    g, name=name, kind="fft", flops=flops, mops=mops,
                    dtype=self.dtype, stream="compute",
                    after=[after[g]] if i == 0 and after else (),
                    fn=data_fn if (i == 0 and g == 0) else None,
                    reads=bufs, writes=bufs,
                )
                evs.append(ev)
            per_chunk.append(evs)
        return per_chunk

    def _twiddle_block(self, a: np.ndarray, g: int) -> np.ndarray:
        """Device g's (P/G, M) block times its twiddle ``omega_N^(p m)``.

        After transpose #1 the local block is ``Y[p, m]`` with p in
        device g's row block; the diagonal ``T_{P,M}`` entry at global
        vector position ``m + p M`` is ``omega_N^(m p)``.  It factors as
        ``omega_N^(p0 m) * omega_N^(p' m)``, ``p = p0 + p'``: one base
        block shared by all devices times one length-M row per device,
        both from the process-wide cache — no exponential is evaluated
        per op and no N-sized table is resident.
        """
        rows, cols = a.shape
        a = a * twiddle_block(self.N, 1, cols, -1, self.dtype, row0=g * rows)
        a *= twiddle_block(self.N, rows, cols, -1, self.dtype)
        return a

    # -- staging ----------------------------------------------------------

    def stage_in(self, x: np.ndarray, key: str = "dfft1") -> None:
        """Scatter the global input vector into per-device blocks.

        Host-side data motion with no schedule footprint; the replay
        executor calls it before each execute-mode replay (the IR's
        ``stage_in`` hook) exactly as :meth:`run` does on capture.
        """
        cl, G = self.cl, self.cl.G
        x = np.asarray(x, dtype=self.dtype)
        if x.shape != (self.N,):
            raise ParameterError(f"input must have shape ({self.N},), got {x.shape}")
        lay_mp = BlockRows(rows=self.M, cols=self.P, G=G)
        blocks = lay_mp.scatter(x)
        for g in range(G):
            cl.dev(g)[key] = blocks[g]

    def gather(self, key: str = "dfft1") -> np.ndarray:
        """Concatenate the per-device output blocks into the spectrum.

        The inverse host-side motion of :meth:`stage_in`; doubles as the
        IR ``finalize`` hook.
        """
        cl, G = self.cl, self.cl.G
        return np.concatenate(
            [np.asarray(cl.dev(g)[key]).ravel() for g in range(G)]
        )

    # -- execution --------------------------------------------------------

    def run(
        self,
        x: np.ndarray | None = None,
        key: str = "dfft1",
        after: list[Event] | None = None,
    ) -> np.ndarray | None:
        """Execute the six-step pipeline.

        Parameters
        ----------
        x:
            Global input vector of length N (execute mode); None in
            timing-only mode.
        key:
            Device buffer name prefix.
        after:
            Optional per-device events gating the first transpose — the
            producer that filled ``key`` (e.g. the real-FFT pack stage).
            Without this the opening all-to-all would race the producer.

        Returns
        -------
        The in-order DFT of ``x`` (gathered), or None in timing-only mode.
        """
        cl, M, P, G = self.cl, self.M, self.P, self.cl.G
        lay_mp = BlockRows(rows=M, cols=P, G=G)  # X0[m, p] = x[p + m P]
        lay_pm = lay_mp.transposed()

        if cl.execute:
            if x is None:
                raise ParameterError("execute-mode cluster requires input data")
            self.stage_in(x, key)
        else:
            for g in range(G):
                cl.dev(g).alloc(key, lay_mp.local_shape(), self.dtype)

        with cl.region("fft1d"):
            # (1) transpose #1: P-major -> M-major (gated on the producer of
            # ``key`` when there is one; no compute to overlap either way)
            with cl.region("transpose1"):
                evs = distributed_transpose(
                    cl, key, key, lay_mp, self.dtype, name="transpose1", chunks=1,
                    after_chunks=[after] if after is not None else None,
                    algorithm=self.comm_algorithm,
                )
            # (2) P local FFTs of size M, chunked
            with cl.region("fftM"):
                chunk_evs = self._chunked_row_fft(
                    key, lay_pm, self._plan_M, "fftM", after=evs
                )
            # (4) transpose #2, pipelined against (2)
            with cl.region("transpose2"):
                evs = distributed_transpose(
                    cl, key, key, lay_pm, self.dtype, name="transpose2",
                    after_chunks=chunk_evs, chunks=self.chunks,
                    algorithm=self.comm_algorithm,
                )
            # (3)+(5) twiddle fused into M local FFTs of size P, chunked
            with cl.region("fftP"):
                chunk_evs = self._chunked_row_fft(
                    key, lay_mp, self._plan_P, "fftP", after=evs, twiddle=True
                )
            # (6) transpose #3, pipelined against (5)
            with cl.region("transpose3"):
                evs = distributed_transpose(
                    cl, key, key, lay_mp, self.dtype, name="transpose3",
                    after_chunks=chunk_evs, chunks=self.chunks,
                    algorithm=self.comm_algorithm,
                )
            cl.barrier()
        if cl.execute:
            return self.gather(key)
        return None

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
from repro.dfft.localfft import local_fft_stage
from repro.dfft.transpose import distributed_transpose
from repro.fftcore.plan import LocalFFTPlan
from repro.fftcore.twiddle import twiddle_block
from repro.machine.cluster import VirtualCluster
from repro.machine.stream import Event
from repro.util.bitmath import ilog2
from repro.util.validation import (
    ParameterError,
    check_count,
    check_multiple,
    check_pow2,
    host_input,
)


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

    ns = "dfft1"  # device buffer prefix: the default ``key`` below

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
        check_count("chunks", chunks)
        q = ilog2(N)
        if M is None:
            M = N // P if P is not None else 1 << ((q + 1) // 2)
        if P is None:
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
        self.chunks = min(chunks, M // G, P // G)
        self.comm_algorithm = comm_algorithm
        self._plan_M = LocalFFTPlan(M, dtype=dt)
        self._plan_P = LocalFFTPlan(P, dtype=dt)

    def graph_key(self) -> tuple:
        """Hashable configuration key: equal keys, equal schedules."""
        return ("fft1d", self.N, self.M, self.P, self.dtype.name, self.chunks,
                self.comm_algorithm, self.cl.G)

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

    def stage_in(self, x: np.ndarray, key: str = ns) -> None:
        """Scatter the global input vector into per-device blocks
        (host-side, no schedule footprint)."""
        cl, G = self.cl, self.cl.G
        x = host_input(x, self.dtype, self.N)
        if x.shape != (self.N,):
            raise ParameterError(f"input must have shape ({self.N},), got {x.shape}")
        lay_mp = BlockRows(rows=self.M, cols=self.P, G=G)
        for g, blk in enumerate(lay_mp.scatter(x)):
            cl.dev(g)[key] = blk

    def finalize(self, key: str = ns) -> np.ndarray:
        """Concatenate the per-device output blocks into the spectrum."""
        return np.concatenate([np.asarray(self.cl.dev(g)[key]).ravel()
                               for g in range(self.cl.G)])

    # -- execution --------------------------------------------------------

    def run(
        self,
        x: np.ndarray | None = None,
        key: str = ns,
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

        def transpose(i: int, lay: BlockRows, after_chunks, chunks: int):
            with cl.region(f"transpose{i}"):
                return distributed_transpose(
                    cl, key, key, lay, self.dtype, name=f"transpose{i}",
                    after_chunks=after_chunks, chunks=chunks,
                    algorithm=self.comm_algorithm)

        with cl.region("fft1d"):
            # (1) transpose #1: P-major -> M-major (gated on the producer of
            # ``key`` when there is one; no compute to overlap either way)
            evs = transpose(1, lay_mp, [after] if after is not None else None, 1)
            # (2) P local FFTs of size M, chunked
            chunk_evs = local_fft_stage(
                cl, key, "fftM", "fftM", (lay_pm.rows_local, M),
                [(self._plan_M, 1)], self.dtype, after=evs, chunks=self.chunks,
            )
            # (4) transpose #2, pipelined against (2)
            evs = transpose(2, lay_pm, chunk_evs, self.chunks)
            # (3)+(5) M local FFTs of size P, chunked; the twiddle is fused
            # as a load callback (a complex multiply per element, no extra
            # memory pass), matching cuFFTXT's callback facility
            chunk_evs = local_fft_stage(
                cl, key, "fftP", "fftP", (lay_mp.rows_local, P),
                [(self._plan_P, 1)], self.dtype, after=evs, chunks=self.chunks,
                load=self._twiddle_block, extra=6.0,
            )
            # (6) transpose #3, pipelined against (5)
            transpose(3, lay_mp, chunk_evs, self.chunks)
            cl.barrier()
        if cl.execute:
            return self.finalize(key)
        return None

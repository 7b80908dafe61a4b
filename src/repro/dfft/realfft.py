"""Distributed real-input 1D FFT (the C = 1 case, end to end).

Section 5.1's ``C`` factor says real input costs half a complex
transform.  At the distributed level the classic two-for-one trick
realizes it:

1. pack ``z[k] = x[2k] + i x[2k+1]`` — *local* on block-distributed
   data (each device's contiguous chunk packs independently);
2. one distributed **complex** FFT of length N/2 (half the transposes'
   bytes, half the flops);
3. untangle ``X_k = E_k + w^k O_k`` where E/O need ``Z_k`` and
   ``conj(Z_{N/2-k})`` — a single **pairwise mirror exchange** (device g
   swaps its block, reversed, with device G-1-g; G/2 concurrent
   transfers, *not* an all-to-all), then local arithmetic.

Returns the ``N/2 + 1`` non-redundant bins, ``numpy.fft.rfft``
conventions.
"""

from __future__ import annotations

import numpy as np

from repro import comm
from repro.dfft.fft1d import Distributed1DFFT
from repro.fftcore.twiddle import twiddles
from repro.machine.cluster import VirtualCluster
from repro.machine.stream import Event
from repro.util.bitmath import is_pow2
from repro.util.validation import (
    ParameterError,
    check_multiple,
    check_pow2,
    host_input,
)


class DistributedRealFFT:
    """Plan for a distributed real-to-complex FFT of length N.

    Parameters
    ----------
    N:
        Input length (power of two, >= 4, with ``2 G | N``).
    cluster:
        The machine to run on.
    dtype:
        Real input precision: 'float32' or 'float64'.
    chunks:
        Passed through to the inner complex FFT.
    comm_algorithm:
        Collective algorithm for the inner FFT's transposes (see
        :mod:`repro.comm`); the mirror exchange itself is already a
        per-message plan.
    """

    ns = "drfft"  # device buffer prefix: the default ``key`` below

    def __init__(
        self,
        N: int,
        cluster: VirtualCluster,
        dtype="float64",
        chunks: int = 4,
        comm_algorithm: str = "bulk",
    ):
        check_pow2("N", N)
        if N < 4:
            raise ParameterError(f"N must be >= 4, got {N}")
        dt = np.dtype(dtype)
        if dt.kind != "f":
            raise ParameterError(f"dtype must be real, got {dt!r}")
        check_multiple("N", N, 2 * cluster.G, "2G")
        self.N = N
        self.cl = cluster
        self.rdtype = dt
        self.cdtype = np.dtype(np.complex64 if dt == np.float32 else np.complex128)
        self.inner = Distributed1DFFT(
            N // 2, cluster, dtype=self.cdtype, chunks=chunks,
            comm_algorithm=comm_algorithm,
        )

    def graph_key(self) -> tuple:
        """Hashable configuration key: equal keys, equal schedules."""
        return ("rfft", self.rdtype.name) + self.inner.graph_key()[1:]

    # -- staging ----------------------------------------------------------

    def _pack(self, x: np.ndarray) -> np.ndarray:
        """Two-for-one pack ``z[k] = x[2k] + i x[2k+1]`` (host-side)."""
        x = host_input(x, self.rdtype, self.N)
        if x.shape != (self.N,):
            raise ParameterError(f"input must have shape ({self.N},), got {x.shape}")
        return (x[0::2] + 1j * x[1::2]).astype(self.cdtype)

    def _untangle(self, Z: np.ndarray) -> np.ndarray:
        """Split the packed spectrum into the N/2 + 1 real-input bins."""
        h = self.N // 2
        Z = np.asarray(Z).reshape(h)
        idx = (-np.arange(h)) % h
        Zc = np.conj(Z[idx])
        E = 0.5 * (Z + Zc)
        O = -0.5j * (Z - Zc)
        w = twiddles(self.N, -1, self.cdtype)[:h]
        out = np.empty(h + 1, dtype=self.cdtype)
        out[:h] = E + w * O
        out[h] = (E[0] - O[0]).real
        return out

    def stage_in(self, x: np.ndarray, key: str = ns) -> None:
        """Pack the real input and scatter it (the IR ``stage_in`` hook)."""
        self.inner.stage_in(self._pack(x), key)

    def finalize(self, key: str = ns) -> np.ndarray:
        """Gather the packed spectrum and untangle it (IR ``finalize``)."""
        return self._untangle(self.inner.finalize(key))

    def run(self, x: np.ndarray | None = None, key: str = ns) -> np.ndarray | None:
        """Execute; returns the N/2 + 1 rfft bins (gathered) or None."""
        cl, N, G = self.cl, self.N, self.cl.G
        h = N // 2
        blk = h // G  # Z bins per device

        # -- (1) pack (local) + (2) half-size complex distributed FFT -----
        if cl.execute:
            if x is None:
                raise ParameterError("execute-mode cluster requires input data")
            z = self._pack(x)
        else:
            z = None
        # charge the pack pass (read x, write z) on each device; the inner
        # FFT's opening all-to-all must wait on it (it reads ``key``)
        itemr = self.rdtype.itemsize
        with cl.region("rfft"), cl.region("pack"):
            ev_pack = [
                cl.launch(g, "rfft.pack", "copy", flops=0.0,
                          mops=(N / G) * itemr + blk * 2 * itemr,
                          dtype=self.rdtype,
                          reads=[f"{key}.x"], writes=[key])
                for g in range(G)
            ]
        with cl.region("rfft"):
            Zfull = self.inner.run(z, key=key, after=ev_pack)

        # -- (3) mirror exchange + untangle, pipelined in chunks ------------
        # Each untangle chunk needs only its own slice of the mirror
        # block, so chunk j's arithmetic overlaps chunk j+1's transfer —
        # the same comm/compute overlap the transposes use, now with the
        # dependency edges declared so the sanitizer can certify it.
        itemc = self.cdtype.itemsize
        C = self.inner.chunks
        for j in range(C):
            part = f"#m{j}" if C > 1 else ""
            ev_mirror: list[Event | None] = [None] * G
            with cl.region("rfft"), cl.region("mirror"):
                for g in range(G):
                    # device g needs Z_{h-k} for its k-range: held by the
                    # mirror device; the returned event is the *receive*
                    # completion on that device
                    mirror = (G - 1 - g) if G > 1 else 0
                    ev_mirror[mirror] = comm.sendrecv(
                        cl, g, mirror, blk * itemc / C, "rfft.mirror",
                        reads=[key], writes=[f"{key}.mirror{part}"],
                    )
            with cl.region("rfft"), cl.region("untangle"):
                for g in range(G):
                    cl.launch(g, "rfft.untangle", "custom",
                              flops=10.0 * blk / C, mops=3 * blk * itemc / C,
                              dtype=self.cdtype,
                              after=[ev_mirror[g]] if ev_mirror[g] is not None else (),
                              reads=[key, f"{key}.mirror{part}"],
                              writes=[f"{key}.out{part}"])
        cl.barrier()

        if not cl.execute:
            return None
        return self._untangle(np.asarray(Zfull).reshape(h))

"""Distributed FMM-FFT on the virtual cluster (Algorithm 1 + 2D FFT).

The full pipeline of Section 4.9: the distributed FMMs (S2M .. L2T with
S/M halos and the base gather), then the POST stage *fused into the 2D
FFT's load callback* (Algorithm 1 lines 15-16 — the cuFFTXT-callback
optimization that saves one full round trip of T through memory), then
the single-transpose distributed 2D FFT.

Data placement: device g owns the contiguous natural-order block
``x[g N/G : (g+1) N/G]`` on input and the corresponding block of the
spectrum on output — the same in-order contract as the baseline 1D FFT,
so the two are drop-in comparable.
"""

from __future__ import annotations

import numpy as np

from repro import comm
from repro.core.kernels import post_in_place
from repro.core.plan import FmmFftPlan
from repro.dfft.fft2d import Distributed2DFFT
from repro.fmm import kernels
from repro.fmm.distributed import DistributedFMM
from repro.machine.cluster import VirtualCluster
from repro.util.validation import ParameterError, check_count, check_in, host_input


class FmmFftDistributed:
    """Executable distributed FMM-FFT.

    Parameters
    ----------
    plan:
        An :class:`FmmFftPlan` whose G matches the cluster.
    cluster:
        The machine to run on (execute or timing-only).
    chunks:
        Transpose pipeline depth in the 2D FFT.
    fuse_post:
        True (default) fuses POST into the 2D FFT's first load; False
        issues it as a separate elementwise kernel (the ablation).
    comm_algorithm:
        Collective algorithm for the FMM allgather and the 2D FFT
        transpose (see :mod:`repro.comm`): ``"bulk"`` is the legacy
        flat model, ``"auto"`` picks the cheapest message plan per
        collective for this topology.
    ns:
        Buffer namespace.  None (default) keeps the historical names
        (``fmmfft.S``/``fmmfft.T`` staging, ``fmm.*`` internals); a
        string ``s`` prefixes every buffer with ``s.`` so concurrent
        in-flight executions (serve's interleaved batches) touch
        provably disjoint buffers.
    batch:
        Stacked-problem count (timing-only cost model): the serve
        batcher's coalesced requests run as one schedule whose data
        costs scale by ``batch`` while launch/collective counts do not.
    """

    def __init__(
        self,
        plan: FmmFftPlan,
        cluster: VirtualCluster,
        chunks: int = 4,
        fuse_post: bool = True,
        comm_algorithm: str = "bulk",
        ns: str | None = None,
        batch: int = 1,
    ):
        if plan.G != cluster.G:
            raise ParameterError(f"plan G={plan.G} != cluster G={cluster.G}")
        if plan.operators is None and cluster.execute:
            raise ParameterError("execute-mode cluster requires built operators")
        check_count("batch", batch)
        check_in("comm_algorithm", comm_algorithm, comm.ALGORITHMS)
        self.plan = plan
        self.cl = cluster
        self.ns = "fmmfft" if ns is None else ns
        fmm_ns = "fmm" if ns is None else f"{ns}.fmm"
        self.fmm = DistributedFMM(
            plan.operators if plan.operators is not None else plan.geometry,
            cluster, dtype=plan.dtype, comm_algorithm=comm_algorithm,
            ns=fmm_ns, batch=batch,
        )
        self.fft2d = Distributed2DFFT(
            plan.M, plan.P, cluster, dtype=plan.dtype, chunks=chunks,
            fuse_load=fuse_post,
            comm_algorithm=comm_algorithm, batch=batch,
        )

    # -- staging -----------------------------------------------------------

    def graph_key(self) -> tuple:
        """Hashable configuration key: equal keys, equal schedules."""
        f = self.fft2d
        return self.plan.plan_key() + (f.comm_algorithm, f.chunks, f.fuse_load)

    def stage_in(self, x: np.ndarray) -> None:
        """Device g gets S_g = S[:, b0:b1, :] (its leaf boxes, all p).

        In terms of the natural vector this is exactly the contiguous
        block ``x[g N/G : (g+1) N/G]`` re-viewed p-major — a view of ``x``
        that S2M's closure folds in one pass and nothing writes.
        """
        plan = self.plan
        x = host_input(x, plan.dtype, plan.N)
        if x.shape != (plan.N,):
            raise ParameterError(f"input must have shape ({plan.N},), got {x.shape}")
        self.fmm.stage_in(x.reshape(plan.M, plan.P).T, f"{self.ns}.S")

    def finalize(self) -> np.ndarray:
        """The in-order spectrum, gathered from the 2D FFT's output."""
        return self.fft2d.finalize(f"{self.ns}.T").reshape(self.plan.N)

    def _post_callback(self, block: np.ndarray, g: int) -> np.ndarray:
        """POST on device g's (M/G, P) block, in place: columns p >= 1
        scale by rho_p after adding i r_p.  The block is the one the
        ``relayout`` pass wrote, never the caller's input.

        Reads the FMM's live reduction result (not a snapshot from the
        orchestrating ``run``), so a replayed schedule — where the FMM
        stage closures refresh ``fmm.state`` without re-running ``run`` —
        feeds POST the current pass's values.
        """
        return post_in_place(block, self.fmm.state.r, self.plan.operators.rho)

    # -- execution -----------------------------------------------------------

    def run(
        self,
        x: np.ndarray | None = None,
        after: list | None = None,
        barrier: bool = True,
    ) -> np.ndarray | None:
        """Execute the full FMM-FFT.

        ``after`` gates the input-consuming stages (request release in
        the serve scheduler); ``barrier=False`` skips the trailing
        cluster barrier so another in-flight schedule can overlap.

        Returns the in-order DFT (gathered to the host) in execute mode,
        None in timing-only mode.  Simulated time accumulates on the
        cluster; read it with ``cluster.wall_time()``.
        """
        cl, plan = self.cl, self.plan
        key_s, key_t = f"{self.ns}.S", f"{self.ns}.T"
        if cl.execute:
            if x is None:
                raise ParameterError("execute-mode cluster requires input data")
            self.stage_in(x)
        # Algorithm 1 lines 1-14
        with cl.region("fmmfft"):
            ev_t, _ = self.fmm.run(key_in=key_s, key_out=key_t, staged=True,
                                   after=after)

        # Relayout T -> A (M/G, P), each device's block written once: free
        # at the timing level (the fused load callback gathers from T).
        if cl.execute:
            def relayout(c):
                for g, slab in enumerate(np.split(self.fmm.state.T, cl.G, axis=-2)):
                    A = np.empty((plan.M // cl.G, plan.P), dtype=plan.dtype)
                    At = A.T.reshape(plan.P, -1, plan.ML)  # (P, nb/G, ML) view
                    At[0] = c.dev(g)[key_s][0]
                    kernels.unfold(slab, out=At[1:])
                    c.dev(g)[key_t] = A
            with cl.region("fmmfft"), cl.region("relayout"):
                cl.host_op(0, "relayout", relayout,
                           reads=[key_t], writes=[key_t])

        # The POST callback is always passed so its (fused) cost is charged;
        # it only actually executes on execute-mode clusters.
        with cl.region("fmmfft"):
            out = self.fft2d.run(
                key=key_t,
                load_callback=self._post_callback,
                after=ev_t,
                staged=True,
                barrier=barrier,
            )
        if cl.execute:
            return np.asarray(out).reshape(plan.N)
        return None

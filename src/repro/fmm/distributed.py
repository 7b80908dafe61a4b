"""Distributed execution of the P-1 interleaved FMMs (Algorithm 1).

Box ownership is contiguous per device at every level (see
:class:`~repro.fmm.tree.Tree1D`), so the communication pattern is
exactly the paper's:

- **COMM S** — one leaf box to each cyclic neighbour (halo width 1),
  overlapped with S2M on the compute stream;
- **COMM M-ell** — two boxes to each neighbour per hierarchical level
  (halo width 2), overlapped with the previous level's M2L;
- **COMM M-B** — one all-to-all gather of the base-level multipoles,
  after which M2L-B and the reduction run on replicated data.

M2M and L2L never communicate: children of owned parents are owned.

Every compute stage is one launch per device per level, with flop/byte
costs derived from the actual tensor shapes — the ledger sums are
cross-checked against the Section 5 closed forms in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro import comm
from repro.fmm import kernels
from repro.fmm.plan import FmmGeometry, FmmOperators
from repro.machine.cluster import VirtualCluster
from repro.machine.stream import Event
from repro.util.validation import ParameterError, c_factor, real_dtype_for


class DistributedFMM:
    """All P-1 FMMs across a :class:`VirtualCluster` (Algorithm 1).

    Parameters
    ----------
    operators:
        A prebuilt :class:`FmmOperators` (required for execute-mode
        clusters) or a bare :class:`FmmGeometry` (sufficient for
        timing-only sweeps at any scale).  The tree's G must match the
        cluster's device count.
    cluster:
        The machine to run on.
    dtype:
        Input/output dtype (sets the C factor and byte widths).
    ns:
        Buffer namespace: every device buffer this executor touches is
        named ``{ns}.<suffix>`` (default ``"fmm"``, the historical
        names).  Concurrent in-flight executions (the serve scheduler's
        interleaved batches) use distinct namespaces so the hazard
        sanitizer can prove them independent.
    batch:
        Number of stacked problems per stage launch (timing-only).  The
        serve batcher coalesces compatible transforms: data flops,
        memory traffic, and comm bytes scale by ``batch`` while launch
        count and operator reads do not — the BatchedGEMM amortization
        the paper's pipeline is shaped for.
    """

    def __init__(
        self,
        operators: FmmOperators | FmmGeometry,
        cluster: VirtualCluster,
        dtype="complex128",
        fuse_m2l_l2l: bool = False,
        comm_algorithm: str = "bulk",
        ns: str = "fmm",
        batch: int = 1,
    ):
        """``fuse_m2l_l2l`` enables the Section 5.3 fusion: each level's
        M2L and the L2L feeding it run as one kernel, saving one write
        and one read of the local-expansion data per level (identical
        numerics; fewer launches and memory ops).  ``comm_algorithm``
        selects the collective algorithm for the base-level allgather
        (see :mod:`repro.comm`); the halo exchanges are already
        per-message plans."""
        if operators.tree.G != cluster.G:
            raise ParameterError(
                f"operators built for G={operators.tree.G}, cluster has G={cluster.G}"
            )
        if cluster.execute and not isinstance(operators, FmmOperators):
            raise ParameterError(
                "execute-mode clusters need full FmmOperators, got geometry only"
            )
        if batch < 1:
            raise ParameterError(f"batch must be >= 1, got {batch}")
        if batch > 1 and cluster.execute:
            raise ParameterError(
                "batch > 1 is a timing-only cost model; execute-mode numerics "
                "run through core.single.fmmfft_batched"
            )
        self.ops = operators
        self.cl = cluster
        self.dtype = np.dtype(dtype)
        self.fuse_m2l_l2l = fuse_m2l_l2l
        self.comm_algorithm = comm_algorithm
        self.ns = ns
        self.batch = batch
        self.C = c_factor(self.dtype)
        self.rsize = np.dtype(real_dtype_for(self.dtype)).itemsize
        self.csize = self.C * self.rsize  # bytes per input element
        self._begin_pass()

    def _buf(self, suffix: str) -> str:
        """Namespaced device buffer name."""
        return f"{self.ns}.{suffix}"

    # -- cost helpers -----------------------------------------------------

    def _gemm_cost(self, m: int, n: int, k: int, batch: float) -> tuple[float, float]:
        """(flops, bytes) for a batched GEMM on C-factor-flattened data.

        Operator A is real (m x k), read once; data B (read) and output
        C' (written) carry the C factor.  Matches the Section 5 convention
        that complex input doubles flops and data bytes, not operator bytes.
        """
        flops = 2.0 * m * n * k * batch * self.C
        return flops, m * k * self.rsize + (k + m) * n * batch * self.csize

    def _m2l_cost(self, ell: int) -> tuple[float, float]:
        """(flops, bytes) of the cousin M2L at a level: three Q x Q
        products per box; the sources are the slab plus two boxes a side."""
        nbl, n = self.ops.tree.boxes_local(ell), (self.ops.P - 1) * self.batch
        flops = 6.0 * self.C * nbl * n * self.ops.Q ** 2
        return flops, ((nbl + 4) + nbl) * self.ops.Q * n * self.csize

    # -- data staging ------------------------------------------------------

    def scatter(self, S: np.ndarray, key: str | None = None) -> None:
        """Place each device's leaf-box slice of S (shape (P, M))."""
        key = self._buf("S") if key is None else key
        Sb = np.asarray(S, dtype=self.dtype).reshape(self.ops.P, -1, self.ops.ML)
        for g in range(self.cl.G):
            self.cl.dev(g)[key] = Sb[:, self._boxes(g), :].copy()

    def gather(self, key: str | None = None) -> np.ndarray:
        """Reassemble the (P, M) output from per-device box slices."""
        key = self._buf("T") if key is None else key
        parts = [np.asarray(self.cl.dev(g)[key]) for g in range(self.cl.G)]
        return np.concatenate(parts, axis=1).reshape(self.ops.P, self.ops.M)

    def _boxes(self, g: int) -> slice:
        """Device g's leaf boxes on the global box axis."""
        return slice(*self.ops.tree.box_range(self.ops.L, g))

    # -- pipeline ----------------------------------------------------------

    def run(
        self,
        S: np.ndarray | None = None,
        key_in: str | None = None,
        key_out: str | None = None,
        staged: bool = False,
        after: list[Event] | None = None,
    ) -> tuple[list[Event], np.ndarray | None]:
        """Execute Algorithm 1 lines 1-14 (S2M .. L2T).

        ``after`` (optional) gates the input-consuming stages (S2M and
        the S halo) — one event for all devices or one per device; the
        serve scheduler uses it to model request release times.

        Returns ``(events, r)``: per-device completion events for the T
        tensor (so the 2D FFT can chain off them) and the replicated
        reduction vector r (execute mode; None otherwise).  POST is left
        to the caller — the FMM-FFT fuses it into the 2D FFT's load
        callback.
        """
        cl, o = self.cl, self.ops
        G, P, Q, ML = cl.G, o.P, o.Q, o.ML
        L, B = o.L, o.B
        nb_loc = o.tree.boxes_local(L)
        k = self.batch
        key_in = self._buf("S") if key_in is None else key_in
        key_out = self._buf("T") if key_out is None else key_out
        if after is not None and len(after) not in (1, G):
            raise ParameterError(f"after must have 1 or G={G} events, got {len(after)}")
        rel = [None] * G if after is None else list(after) * (G // len(after))

        if cl.execute and not staged:
            if S is None:
                raise ParameterError("execute-mode cluster requires input data")
            self.scatter(S, key_in)

        # ---- line 1: S2M (one BatchedGEMM per device) --------------------
        with cl.region("fmm"), cl.region("S2M"):
            ev_s2m = self._launch(
                "S2M", "batched_gemm", self._gemm_cost(Q, nb_loc, ML, (P - 1) * k),
                [[e] if e is not None else () for e in rel],
                lambda c: self._do_s2m(key_in),
                reads=[key_in], writes=[self._buf(f"M{L}")],
            )

        # ---- line 2: COMM S (halo width 1), overlapped with S2M ----------
        halo_bytes = (P - 1) * ML * self.csize * k
        with cl.region("fmm"), cl.region("halo-S"):
            ev_shalo = self._halo_exchange(
                "S", key_in, 1, halo_bytes, "COMM-S",
                after=rel if after is not None else None,
            )

        # ---- line 3: S2T after the S halo ---------------------------------
        flops = 6.0 * self.C * ML * ML * nb_loc * (P - 1) * k
        # operators generated on the fly (Section 5.3): traffic is the
        # halo-extended read of S plus the write of T.
        mops = ((nb_loc + 2) * ML * P * self.csize + nb_loc * ML * P * self.csize) * k
        with cl.region("fmm"), cl.region("S2T"):
            ev_s2t = self._launch(
                "S2T", "custom", (flops, mops), [[e] for e in ev_shalo],
                lambda c: self._do_s2t(key_in, key_out),
                reads=[key_in, self._buf("halo.S")], writes=[key_out],
            )

        # ---- lines 4-5: M2M up the tree -----------------------------------
        ev_m: dict[int, list[Event]] = {L: ev_s2m}  # per level
        with cl.region("fmm"), cl.region("upward"):
            for ell in o.tree.levels_m2m():
                ev_m[ell] = self._launch(
                    f"M2M-{ell}", "batched_gemm",
                    self._gemm_cost(Q, o.tree.boxes_local(ell), 2 * Q, (P - 1) * k),
                    [[e] for e in ev_m[ell + 1]],
                    lambda c, e=ell: self._do_m2m(e),
                    reads=[self._buf(f"M{ell + 1}")], writes=[self._buf(f"M{ell}")],
                )

        # ---- lines 6-8: M halo + cousin M2L per level ----------------------
        ev_loc: dict[int, list[Event]] = {}
        ev_mh: dict[int, list[Event]] = {}
        with cl.region("fmm"), cl.region("m2l"):
            for ell in o.tree.levels_m2l():
                mh_bytes = 2 * (P - 1) * Q * self.csize * k  # two boxes per side
                ev_mh[ell] = self._halo_exchange(
                    f"M{ell}", None, 2, mh_bytes, f"COMM-M{ell}", level=ell, after=ev_m[ell])
                if self.fuse_m2l_l2l:
                    continue  # M2L runs fused with L2L in the downward pass
                ev_loc[ell] = self._launch(
                    f"M2L-{ell}", "custom", self._m2l_cost(ell), [[e] for e in ev_mh[ell]],
                    lambda c, e=ell: self._do_m2l_level(e),
                    reads=[self._buf(f"M{ell}"), self._buf(f"halo.M{ell}")],
                    writes=[self._buf(f"L{ell}")],
                )

        with cl.region("fmm"), cl.region("base"):
            # ---- line 9: all-to-all gather of base multipoles ---------------
            base_bytes = (P - 1) * o.tree.boxes_local(B) * Q * self.csize * k
            ev_gather = comm.allgather(
                cl, base_bytes, "COMM-MB",
                after=ev_m[B],
                fn=lambda c: self._do_gather_base(),
                reads=[self._buf(f"M{B}")], writes=[self._buf("MB")],
                algorithm=self.comm_algorithm,
            )
            gathered = [[ev_gather[min(g, len(ev_gather) - 1)]] for g in range(G)]

            # ---- line 10: dense base-level M2L ------------------------------
            nS = (1 << B) - 3
            nbB_loc = o.tree.boxes_local(B)
            flops = 2.0 * self.C * nbB_loc * nS * (P - 1) * Q * Q * k
            mops = ((1 << B) * Q + nbB_loc * Q) * (P - 1) * self.csize * k
            ev_base = self._launch(
                "M2L-B", "custom", (flops, mops), gathered,
                lambda c: self._do_m2l_base(),
                reads=[self._buf("MB")], writes=[self._buf(f"L{B}")],
            )

            # ---- line 11: REDUCE (one GEMV on the gathered base data) -------
            flops = self.C * (1 << B) * (P - 1) * Q * k
            mops = ((1 << B) * (P - 1) * Q * self.csize + (P - 1) * self.csize) * k
            self._launch(
                "REDUCE", "gemv", (flops, mops), gathered,
                lambda c: self._do_reduce(),
                reads=[self._buf("MB")], writes=[self._buf("r")],
            )

        # ---- lines 12-13: L2L down the tree -----------------------------------
        ev_l = ev_base
        with cl.region("fmm"), cl.region("downward"):
            for ell in o.tree.levels_l2l():
                flops, mops = self._gemm_cost(2 * Q, o.tree.boxes_local(ell), Q, (P - 1) * k)
                name, kind, fn = f"L2L-{ell}", "batched_gemm", self._do_l2l
                reads = [self._buf(f"L{ell}"), self._buf(f"L{ell + 1}")]
                gate = ev_loc  # the destination level's own M2L must also be done
                if self.fuse_m2l_l2l:
                    # one kernel: M2L-(ell+1) accumulated with L2L-(ell);
                    # saves one write + one read of the child L data.
                    m2l_flops, m2l_mops = self._m2l_cost(ell + 1)
                    flops += m2l_flops
                    mops += m2l_mops - 2.0 * o.tree.boxes_local(ell + 1) * Q * (P - 1) * self.csize * k
                    name, kind, fn = f"M2L+L2L-{ell + 1}", "custom", self._do_fused_m2l_l2l
                    reads = [self._buf(f"M{ell + 1}"), self._buf(f"halo.M{ell + 1}"),
                             self._buf(f"L{ell}")]
                    gate = ev_mh
                ev_l = self._launch(
                    name, kind, (flops, mops),
                    [[cl.latest(ev_l[g], gate[ell + 1][g])] for g in range(G)],
                    lambda c, e=ell, fn=fn: fn(e),
                    reads=reads, writes=[self._buf(f"L{ell + 1}")],
                )

        # ---- line 14: L2T (accumulate into T) ----------------------------------
        flops, mops = self._gemm_cost(ML, nb_loc, Q, (P - 1) * k)
        mops += nb_loc * ML * (P - 1) * self.csize * k  # read T for accumulation
        with cl.region("fmm"), cl.region("L2T"):
            ev_t = self._launch(
                "L2T", "batched_gemm", (flops, mops),
                [[ev_l[g], ev_s2t[g]] for g in range(G)],
                lambda c: self._do_l2t(key_out),
                reads=[self._buf(f"L{L}"), key_out], writes=[key_out],
            )

        if cl.execute and self._r is None:
            raise ParameterError("the REDUCE stage did not execute: no r to return")
        return ev_t, self._r

    def _launch(self, name, kind, cost, after, fn, reads, writes) -> list[Event]:
        """One kernel per device, device g waiting on ``after[g]``.  The
        real-data closure ``fn`` serves every device at once, so it rides
        on device 0's launch only."""
        flops, mops = cost
        return [
            self.cl.launch(
                g, name, kind, flops, mops, self.dtype, after=after[g],
                fn=fn if g == 0 else None, reads=reads, writes=writes,
            )
            for g in range(self.cl.G)
        ]

    # -- halo machinery ------------------------------------------------------

    def _halo_exchange(
        self,
        what: str,
        key: str | None,
        width: int,
        nbytes: float,
        name: str,
        level: int | None = None,
        after: list[Event] | None = None,
    ) -> list[Event]:
        """Cyclic neighbour exchange of ``width`` boxes per side.

        Stashes the real halo data (execute mode), then issues the
        exchange through :func:`repro.comm.halo_exchange` — two fully
        parallel ring shifts whose ``#L``/``#R`` halo slots are disjoint
        sub-resources.  Returns per-device events for halo arrival;
        ``after[g]`` gates device g's sends on its producer kernel.  The
        real data is stashed in ``self._halo[what]`` as (left, right),
        each with a device axis.
        """
        cl = self.cl
        cl.host_action(lambda c: self._stash_halo(what, width, level))
        src_buf = key if key is not None else self._buf(f"M{level}")
        return comm.halo_exchange(
            cl, nbytes, name, src_buf, self._buf(f"halo.{what}"), after=after,
        )

    def _stash_halo(self, what: str, width: int, level: int | None) -> None:
        """Record the halo data every device will need (execute mode)."""
        src = self._S if level is None else self._M[level]
        self._halo[what] = kernels.halos(src, self.cl.G, width)

    # -- real-data stage drivers ------------------------------------------------
    # Orchestration order guarantees producers ran first.  The pass state is
    # planar (see repro.fmm.kernels) with a *global* box axis, each device's
    # slab a contiguous run of it: one kernel call reads each operator slice
    # once for every device, and neighbours' data reaches it only via ``_halo``.

    def _begin_pass(self) -> None:
        """Forget the previous pass (a second run() on this instance, an
        IR replay) so nothing of it folds into this one's accumulators."""
        self._S = self._MB = self._r = None
        self._M: dict[int, np.ndarray] = {}
        self._L: dict[int, np.ndarray] = {}
        self._halo: dict[str, kernels.Halo] = {}

    def _do_s2m(self, key_in: str) -> None:
        o = self.ops
        self._begin_pass()
        self._S = kernels.fold(self.gather(key_in).reshape(o.P, -1, o.ML)[1:])
        self._M[o.L] = kernels.s2m(o, self._S)

    def _do_s2t(self, key_in: str, key_out: str) -> None:
        near = kernels.unfold(kernels.s2t(self.ops, self._S, self._halo["S"]))
        for g in range(self.cl.G):
            self.cl.dev(g)[key_out] = np.concatenate(
                [self.cl.dev(g)[key_in][:1], near[:, self._boxes(g)]])

    def _do_m2m(self, ell: int) -> None:
        self._M[ell] = kernels.m2m(self.ops, self._M[ell + 1])

    def _do_m2l_level(self, ell: int) -> None:
        self._L[ell] = kernels.m2l_level(
            self.ops, self._M[ell], ell, self._halo[f"M{ell}"])

    def _do_gather_base(self) -> None:
        self._MB = self._M[self.ops.B]

    def _do_m2l_base(self) -> None:
        self._L[self.ops.B] = kernels.m2l_base(self.ops, self._MB)

    def _do_reduce(self) -> None:
        self._r = kernels.reduce(self._MB)

    def _do_l2l(self, ell: int) -> None:
        self._L[ell + 1] = self._L[ell + 1] + kernels.l2l(self.ops, self._L[ell])

    def _do_fused_m2l_l2l(self, ell: int) -> None:
        """Fused kernel data path: M2L at level ell+1, then accumulate
        the parent translation (identical numerics to the split path)."""
        self._do_m2l_level(ell + 1)
        self._do_l2l(ell)

    def _do_l2t(self, key_out: str) -> None:
        far = kernels.unfold(kernels.l2t(self.ops, self._L[self.ops.L]))
        for g in range(self.cl.G):
            self.cl.dev(g)[key_out][1:] += far[:, self._boxes(g)]

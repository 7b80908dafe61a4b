"""Distributed execution of the P-1 interleaved FMMs (Algorithm 1).

The cluster wrangler of :func:`repro.fmm.driver.drive_fmm`: the driver
names the stage order, this module's ``issue`` prices each stage and
launches it on every device of a
:class:`~repro.machine.cluster.VirtualCluster` after the events the
driver's tokens hold, and the stage's data path (execute mode) is the
shared :class:`~repro.fmm.driver.PassState` with one slab per device.

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
from repro.fmm.driver import PassState, drive_fmm
from repro.fmm.plan import FmmGeometry, FmmOperators
from repro.machine.cluster import VirtualCluster
from repro.machine.stream import Event
from repro.util.validation import ParameterError, c_factor, check_count, check_in, real_dtype_for


#: stage -> the telemetry region (under ``fmm``) its ops are stamped with
_REGION = {
    "S2M": "S2M", "COMM-S": "halo-S", "S2T": "S2T", "M2M": "upward",
    "COMM-M": "m2l", "M2L": "m2l", "COMM-MB": "base", "M2L-B": "base",
    "REDUCE": "base", "L2L": "downward", "L2T": "L2T",
}


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
            raise ParameterError(f"operators built for G={operators.tree.G}, cluster has G={cluster.G}")
        if cluster.execute and not isinstance(operators, FmmOperators):
            raise ParameterError("execute-mode clusters need full FmmOperators, got geometry only")
        check_count("batch", batch)
        check_in("comm_algorithm", comm_algorithm, comm.ALGORITHMS)
        if batch > 1 and cluster.execute:
            raise ParameterError("batch > 1 is a timing-only cost model; execute-mode numerics "
                                 "run through core.single.fmmfft_batched")
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
        #: the current pass's data (execute mode); ``state.r`` is the live
        #: reduction vector POST reads, refreshed by every pass and replay
        self.state = PassState(operators, None, cluster.G)

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

    def graph_key(self) -> tuple:
        """Hashable configuration key: equal keys, equal schedules."""
        o = self.ops
        return ("fmm", o.tree.G, o.M, o.P, o.ML, o.B, o.Q, self.dtype.name,
                self.comm_algorithm)

    def stage_in(self, S: np.ndarray, key: str | None = None) -> None:
        """Place each device's leaf-box slice of S ((P, M), any strides):
        a view, which S2M's closure folds in one pass."""
        key = self._buf("S") if key is None else key
        Sb = np.asarray(S, dtype=self.dtype).reshape(self.ops.P, -1, self.ops.ML)
        for g in range(self.cl.G):
            self.cl.dev(g)[key] = Sb[:, self._boxes(g), :]

    def finalize(self) -> np.ndarray:
        """The (P, M) output T: each device's passthrough row ``p = 0``
        over the pass's planar rows ``p >= 1``, unfolded in one pass."""
        o = self.ops
        T = np.empty((o.P, o.tree.num_leaves, o.ML), dtype=self.dtype)
        for g in range(self.cl.G):
            T[0, self._boxes(g)] = self.cl.dev(g)[self._buf("S")][0]
        kernels.unfold(self.state.T, out=T[1:])
        return T.reshape(o.P, o.M)

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
        cl, G = self.cl, self.cl.G
        key_in = self._buf("S") if key_in is None else key_in
        key_out = self._buf("T") if key_out is None else key_out
        if after is not None and len(after) not in (1, G):
            raise ParameterError(f"after must have 1 or G={G} events, got {len(after)}")
        rel = None if after is None else list(after) * (G // len(after))

        if cl.execute and not staged:
            if S is None:
                raise ParameterError("execute-mode cluster requires input data")
            self.stage_in(S, key_in)

        def issue(stage: str, ell: int, *tokens: list[Event]) -> list[Event]:
            with cl.region("fmm"), cl.region(_REGION[stage]):
                return self._issue(stage, ell, tokens, key_in, key_out, rel)

        ev_t = drive_fmm(self.ops.tree, issue)
        if cl.execute and self.state.r is None:
            raise ParameterError("the REDUCE stage did not execute: no r to return")
        return ev_t, self.state.r

    def _issue(self, stage, ell, tokens, key_in, key_out, rel) -> list[Event]:
        """Price one stage at level ``ell`` from the actual tensor shapes
        and put it on every device after the events in ``tokens``; its
        data path (execute mode) is the shared :class:`PassState`'s."""
        cl, o, buf = self.cl, self.ops, self._buf
        Q, ML, n = o.Q, o.ML, (o.P - 1) * self.batch  # n: data columns per box row
        nbl = o.tree.boxes_local(ell)
        own = [[e] for e in tokens[0]] if len(tokens) == 1 else None  # device g after its own event

        def fn(c):
            self.state.run(stage, ell)

        if stage == "S2M":  # line 1: one BatchedGEMM per device
            return self._launch(
                "S2M", "batched_gemm", self._gemm_cost(Q, nbl, ML, n),
                [[e] for e in rel] if rel else [()] * cl.G,
                lambda c: self._load(key_in), reads=[key_in], writes=[buf(f"M{ell}")])
        if stage == "COMM-S":  # line 2: halo width 1, overlapped with S2M
            return self._halo_exchange("S", key_in, n * ML * self.csize, fn, rel)
        if stage == "S2T":  # line 3, after the S halo
            flops = 6.0 * self.C * ML * ML * nbl * n
            # operators generated on the fly (Section 5.3): traffic is the
            # halo-extended read of S plus the write of T.
            mops = ((nbl + 2) * ML * o.P * self.csize + nbl * ML * o.P * self.csize) * self.batch
            return self._launch("S2T", "custom", (flops, mops), own, fn,
                                reads=[key_in, buf("halo.S")], writes=[key_out])
        if stage == "M2M":  # lines 4-5
            return self._launch(
                f"M2M-{ell}", "batched_gemm", self._gemm_cost(Q, nbl, 2 * Q, n), own, fn,
                reads=[buf(f"M{ell + 1}")], writes=[buf(f"M{ell}")])
        if stage == "COMM-M":  # lines 6-7: two boxes per side
            return self._halo_exchange(
                f"M{ell}", buf(f"M{ell}"), 2 * n * Q * self.csize, fn, tokens[0])
        if stage == "M2L":  # line 8
            if self.fuse_m2l_l2l:
                return tokens[0]  # runs fused with the L2L into this level
            return self._launch(
                f"M2L-{ell}", "custom", self._m2l_cost(ell), own, fn,
                reads=[buf(f"M{ell}"), buf(f"halo.M{ell}")], writes=[buf(f"L{ell}")])
        if stage == "COMM-MB":  # line 9: all-to-all gather of base multipoles
            ev = comm.allgather(
                cl, n * nbl * Q * self.csize, "COMM-MB", after=tokens[0], fn=fn,
                reads=[buf(f"M{ell}")], writes=[buf("MB")], algorithm=self.comm_algorithm)
            return [ev[min(g, len(ev) - 1)] for g in range(cl.G)]
        if stage == "M2L-B":  # line 10: dense, on the replicated base data
            flops = 2.0 * self.C * nbl * ((1 << ell) - 3) * n * Q * Q
            mops = ((1 << ell) * Q + nbl * Q) * n * self.csize
            return self._launch("M2L-B", "custom", (flops, mops), own, fn,
                                reads=[buf("MB")], writes=[buf(f"L{ell}")])
        if stage == "REDUCE":  # line 11: one GEMV on the gathered base data
            flops = self.C * (1 << ell) * n * Q
            mops = ((1 << ell) * (o.P - 1) * Q * self.csize + (o.P - 1) * self.csize) * self.batch
            return self._launch("REDUCE", "gemv", (flops, mops), own, fn,
                                reads=[buf("MB")], writes=[buf("r")])
        if stage == "L2L":  # lines 12-13, after the parent and the child's M2L (or M halo)
            flops, mops = self._gemm_cost(2 * Q, nbl, Q, n)
            name, kind = f"L2L-{ell}", "batched_gemm"
            reads = [buf(f"L{ell}"), buf(f"L{ell + 1}")]
            if self.fuse_m2l_l2l:
                # one kernel: M2L-(ell+1) accumulated with L2L-(ell);
                # saves one write + one read of the child L data.
                m2l_flops, m2l_mops = self._m2l_cost(ell + 1)
                flops += m2l_flops
                mops += m2l_mops - 2.0 * o.tree.boxes_local(ell + 1) * Q * n * self.csize
                name, kind = f"M2L+L2L-{ell + 1}", "custom"
                reads = [buf(f"M{ell + 1}"), buf(f"halo.M{ell + 1}"), buf(f"L{ell}")]

                def fn(c):
                    self.state.run("M2L", ell + 1)
                    self.state.run("L2L", ell)
            return self._launch(
                name, kind, (flops, mops), [[cl.latest(*pair)] for pair in zip(*tokens)],
                fn, reads=reads, writes=[buf(f"L{ell + 1}")])
        if stage == "L2T":  # line 14: accumulate into T
            flops, mops = self._gemm_cost(ML, nbl, Q, n)
            mops += nbl * ML * n * self.csize  # read T for accumulation
            return self._launch(
                "L2T", "batched_gemm", (flops, mops), [list(pair) for pair in zip(*tokens)],
                fn,
                reads=[buf(f"L{ell}"), key_out], writes=[key_out])
        raise ParameterError(f"unknown FMM stage {stage!r}")

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

    def _halo_exchange(self, what, src_buf, nbytes, fn, after) -> list[Event]:
        """COMM-``what``: every device's boundary boxes of ``src_buf`` to
        both cyclic neighbours.  The data (``fn``: the pass state records
        the halos) moves as a host action, off the ledger; the exchange
        it mirrors is charged by :func:`repro.comm.halo_exchange`, whose
        per-device arrival events come back.  ``after[g]`` gates device
        g's sends on its producer kernel."""
        self.cl.host_action(fn)
        return comm.halo_exchange(
            self.cl, nbytes, f"COMM-{what}", src_buf, self._buf(f"halo.{what}"), after=after)

    # -- execute mode: device input -> pass state ----------------------------
    # The pass state's box axis is global, each device's slab a contiguous
    # run of it: one kernel call reads each operator slice once for every
    # device, and neighbours' data reaches it only via the recorded halos.
    # T stays there too, like every intermediate.

    def _load(self, key_in: str) -> None:
        """S2M's closure: a new pass, each device's input folded into its slab."""
        o = self.ops
        S = np.empty((o.P - 1, self.C, o.tree.num_leaves, o.ML), dtype=real_dtype_for(self.dtype))
        for g in range(self.cl.G):
            kernels.fold(self.cl.dev(g)[key_in][1:], out=S[..., self._boxes(g), :])
        self.state = PassState(o, S, self.cl.G)
        self.state.run("S2M", o.L)

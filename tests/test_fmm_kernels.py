"""The shared FMM kernel set (``repro.fmm.kernels``) and the one data
path over it (``repro.fmm.driver``) behind both executors.

References are deliberately the slow way round: the dense O(M^2) oracle
for the whole pipeline, and per-stage loops over boxes and offsets that
apply the *math-layout* tensors of ``repro.fmm.operators`` in complex
arithmetic — sharing neither the planar layout, nor the GEMM-layout
operators, nor the windows with the code under test.
"""

import numpy as np
import pytest

from repro.fmm import batched, distributed, kernels, operators
from repro.fmm.batched import BatchedFMM
from repro.fmm.distributed import DistributedFMM
from repro.fmm.driver import PassState, drive_fmm
from repro.fmm.interaction import COUSINS_EVEN, COUSINS_ODD, base_offsets
from repro.fmm.plan import FmmOperators
from repro.fmm.reference import dense_apply_all
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import p100_nvlink_node
from repro.util.validation import ParameterError

M, P, ML, B, Q = 256, 4, 16, 2, 16          # L = 4: levels 4 and 3 are hierarchical
N, NB = M * P, M // ML
DTYPES = [np.float32, np.float64, np.complex64, np.complex128]
LAYOUTS = ["contiguous", "transposed", "sliced"]
BATCHES = [(), (3,)]


def _tol(dtype):
    """Rounding of the working precision (the FMM truncation error at
    Q = 16 is below both)."""
    return 2e-5 if np.dtype(dtype) in (np.float32, np.complex64) else 1e-12


def _data(shape, dtype, layout, seed=7):
    """Random data of one logical shape in three memory layouts."""
    rng = np.random.default_rng(seed)

    def draw(shp):
        a = rng.uniform(-1, 1, shp)
        if np.dtype(dtype).kind == "c":
            a = a + 1j * rng.uniform(-1, 1, shp)
        return a.astype(dtype)

    if layout == "contiguous":
        return draw(shape)
    if layout == "transposed":  # last two axes swapped in memory
        a = draw((*shape[:-2], shape[-1], shape[-2])).swapaxes(-1, -2)
    else:                       # every other element of a wider buffer
        a = draw((*shape[:-1], 2 * shape[-1]))[..., ::2]
    assert a.shape == tuple(shape) and not a.flags.c_contiguous
    return a


def _ops(dtype, G=1):
    return FmmOperators.create(M=M, P=P, ML=ML, B=B, Q=Q, dtype=dtype, G=G)


def _rel(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


# -- loop references, one per stage (math-layout operators, complex) ---------

def _ref_s2t(S):
    K = operators.s2t_matrix(P, ML, N)  # [p, i, j'] over [b-1 | b | b+1]
    out = np.zeros(S[..., 1:, :, :].shape, dtype=np.result_type(S.dtype, np.float64))
    for b in range(NB):
        tri = np.concatenate([S[..., 1:, (b + s) % NB, :] for s in (-1, 0, 1)], axis=-1)
        out[..., b, :] = np.einsum("pij,...pj->...pi", K, tri)
    return out


def _ref_m2m(child):
    Kmm = operators.m2m_matrix(Q)  # [q, (left k | right k)]
    return (np.einsum("qk,...pbk->...pbq", Kmm[:, :Q], child[..., 0::2, :])
            + np.einsum("qk,...pbk->...pbq", Kmm[:, Q:], child[..., 1::2, :]))


def _ref_m2l_level(level, Mexp):
    K = operators.m2l_level_tensor(level, P, Q, N)  # [p, parity, si, i, j]
    nb = Mexp.shape[-2]
    out = np.zeros(Mexp.shape, dtype=np.result_type(Mexp.dtype, np.float64))
    for b in range(nb):
        for si, s in enumerate(COUSINS_ODD if b % 2 else COUSINS_EVEN):
            out[..., b, :] += np.einsum(
                "pij,...pj->...pi", K[:, b % 2, si], Mexp[..., (b + s) % nb, :])
    return out


def _ref_m2l_base(MB):
    K = operators.m2l_base_tensor(B, P, Q, N)  # [p, si, i, j]
    nb = MB.shape[-2]
    out = np.zeros(MB.shape, dtype=np.result_type(MB.dtype, np.float64))
    for b in range(nb):
        for si, s in enumerate(base_offsets(B)):
            out[..., b, :] += np.einsum("pij,...pj->...pi", K[:, si], MB[..., (b + s) % nb, :])
    return out


def _ref_l2l(parent):
    Kmm = operators.m2m_matrix(Q)
    out = np.empty((*parent.shape[:-2], 2 * parent.shape[-2], Q),
                   dtype=np.result_type(parent.dtype, np.float64))
    out[..., 0::2, :] = np.einsum("qk,...pbq->...pbk", Kmm[:, :Q], parent)
    out[..., 1::2, :] = np.einsum("qk,...pbq->...pbk", Kmm[:, Q:], parent)
    return out


def _planar(kernel, *args, halo=None):
    """A planar kernel on real or complex data of any strides and leading
    batch axes: ``call(ops, a)`` returning the same kind of array.  The
    halo, where the kernel takes one, is the cyclic one of a single slab."""
    def call(o, a):
        a = kernels.fold(a)
        extra = (kernels.halos(a, 1, halo),) if halo else ()
        return kernels.unfold(kernel(o, a, *args, *extra))
    return call


STAGES = {
    # name: (input shape after the batch axes, call, reference)
    "s2m": ((P, NB, ML), lambda o, a: _planar(kernels.s2m)(o, a[..., 1:, :, :]),
            lambda a: np.einsum("qm,...pbm->...pbq", operators.s2m_matrix(Q, ML), a[..., 1:, :, :])),
    "s2t": ((P, NB, ML), lambda o, a: BatchedFMM(o).s2t(a), _ref_s2t),
    "m2m": ((P - 1, NB, Q), _planar(kernels.m2m), _ref_m2m),
    "m2l_level": ((P - 1, NB, Q), _planar(kernels.m2l_level, 4, halo=2),
                  lambda a: _ref_m2l_level(4, a)),
    "m2l_base": ((P - 1, 1 << B, Q), _planar(kernels.m2l_base), _ref_m2l_base),
    "reduce": ((P - 1, 1 << B, Q), lambda o, a: kernels.reduce(kernels.fold(a)),
               lambda a: a.sum(axis=(-2, -1))),
    "l2l": ((P - 1, NB // 2, Q), _planar(kernels.l2l), _ref_l2l),
    "l2t": ((P - 1, NB, Q), _planar(kernels.l2t),
            lambda a: np.einsum("qm,...pbq->...pbm", operators.s2m_matrix(Q, ML), a)),
}


@pytest.mark.parametrize("batch", BATCHES, ids=["single", "k3"])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
class TestAgainstReferences:
    @pytest.mark.parametrize("stage", STAGES)
    def test_stage(self, stage, dtype, layout, batch):
        shape, call, ref = STAGES[stage]
        a = _data((*batch, *shape), dtype, layout)
        got = call(_ops(dtype), a)
        want = ref(a.astype(np.result_type(dtype, np.float64)))
        assert got.shape == want.shape
        assert got.dtype == np.dtype(dtype)  # real stays real, precision kept
        assert _rel(got, want) < _tol(dtype)

    def test_pipeline(self, dtype, layout, batch):
        S = _data((*batch, P, M), dtype, layout)
        T, r = BatchedFMM(_ops(dtype)).apply(S)
        assert T.shape == S.shape and T.dtype == np.dtype(dtype)
        wide = S.astype(np.result_type(dtype, np.float64))
        for idx in np.ndindex(*batch):
            Tref, rref = dense_apply_all(wide[idx], M, P)
            assert _rel(T[idx], Tref) < _tol(dtype)
            assert _rel(r[idx], rref) < _tol(dtype)


def test_batch_is_bit_identical_to_one_at_a_time():
    """Leading axes are broadcast batch dimensions, never GEMM rows."""
    fmm = BatchedFMM(_ops(np.complex128))
    S = _data((3, P, M), np.complex128, "contiguous")
    T, r = fmm.apply(S)
    for i in range(3):
        Ti, ri = fmm.apply(S[i])
        np.testing.assert_array_equal(T[i], Ti)
        np.testing.assert_array_equal(r[i], ri)


def test_planar_roundtrip_and_mixed_precision():
    a = _data((2, P - 1, NB, Q), np.complex64, "sliced")
    planar = kernels.fold(a)
    assert planar.shape == (2, P - 1, 2, NB, Q) and planar.dtype == np.float32
    np.testing.assert_array_equal(kernels.unfold(planar), a)
    assert kernels.fold(a.real).shape == (2, P - 1, 1, NB, Q)
    # complex64 data under float64 operators widens, like the parent did
    T, _ = BatchedFMM(_ops(np.complex128)).apply(_data((P, M), np.complex64, "contiguous"))
    assert T.dtype == np.complex128


# -- every GEMM is real ------------------------------------------------------

@pytest.fixture
def matmul_dtypes(monkeypatch):
    """Operand dtypes of every ``np.matmul`` issued while active."""
    seen = []
    real_matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        seen.append((np.asarray(a).dtype, np.asarray(b).dtype))
        return real_matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return seen


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128], ids=lambda d: np.dtype(d).name)
class TestNoComplexGemm:
    """A complex GEMM against an up-cast real operator costs 4x the real
    flops where the paper's C factor says 2x."""

    def _check(self, seen, dtype, stages):
        real = np.float32 if dtype is np.complex64 else np.float64
        assert len(seen) >= stages  # the recorder did see the kernels
        assert all(a == real and b == real for a, b in seen), set(seen)

    def test_batched_apply(self, dtype, matmul_dtypes):
        BatchedFMM(_ops(dtype)).apply(_data((P, M), dtype, "contiguous"))
        # S2M, 2 M2M, S2T, 2x2 M2L, M2L-B, 2 L2L, L2T
        self._check(matmul_dtypes, dtype, 12)

    def test_distributed_run(self, dtype, matmul_dtypes):
        cl = VirtualCluster(p100_nvlink_node(2))
        DistributedFMM(_ops(dtype, G=2), cl, dtype=dtype).run(_data((P, M), dtype, "contiguous"))
        self._check(matmul_dtypes, dtype, 12)


# -- the driver seam: one order, one data path, explicit halos -------------------

BIG = dict(M=512, P=8, ML=16, B=3, Q=16)     # L = 5: levels 5 and 4 are hierarchical


def _run_distributed(G, S, monkeypatch=None, around=None, **kwargs):
    """Run S through a G-device cluster; ``around(dfmm, issue)`` wraps the
    ``issue`` callback the driver is handed (the issue/token seam)."""
    dtype = kwargs.get("dtype", "complex128")
    ops = FmmOperators.create(**BIG, G=G, dtype=dtype)
    dfmm = DistributedFMM(ops, VirtualCluster(p100_nvlink_node(G)), **kwargs)
    if around is not None:
        monkeypatch.setattr(distributed, "drive_fmm",
                            lambda tree, issue: drive_fmm(tree, around(dfmm, issue)))
    _, r = dfmm.run(S)
    return dfmm, r


def _halo_key(stage, ell):
    return {"COMM-S": "S", "COMM-M": f"M{ell}"}.get(stage)


class TestOneDriver:
    """Host and cluster are the same code: one stage sequence, one data
    path, the cluster adding only pricing, events and device buffers."""

    @staticmethod
    def _sequence(monkeypatch, run):
        """The (stage, level) calls ``run`` makes through ``drive_fmm``."""
        seen = []

        def recording(tree, issue):
            def spy(stage, ell, *tokens):
                seen.append((stage, ell))
                return issue(stage, ell, *tokens)
            return drive_fmm(tree, spy)

        for module in (batched, distributed):
            monkeypatch.setattr(module, "drive_fmm", recording)
        run()
        return seen

    @pytest.mark.parametrize("fuse", [False, True], ids=["unfused", "fused"])
    def test_host_and_cluster_are_driven_through_one_sequence(self, fuse, monkeypatch):
        S = _data((8, 512), np.complex128, "contiguous")
        host = self._sequence(
            monkeypatch, lambda: BatchedFMM(FmmOperators.create(**BIG)).apply(S))
        cluster = self._sequence(
            monkeypatch, lambda: _run_distributed(4, S, fuse_m2l_l2l=fuse))
        assert host == cluster
        assert host[:3] == [("S2M", 5), ("COMM-S", 5), ("S2T", 5)]
        assert host[-1] == ("L2T", 5) and len(host) == 7 + 4 * 2  # 4 per hierarchical level

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    def test_g1_cluster_is_bit_identical_to_batched(self, dtype):
        S = _data((8, 512), dtype, "contiguous")
        dfmm, r = _run_distributed(1, S, dtype=dtype)
        T, r_host = BatchedFMM(FmmOperators.create(**BIG, dtype=dtype)).apply(S)
        assert dfmm.finalize().dtype == T.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(dfmm.finalize(), T)
        np.testing.assert_array_equal(r, r_host)

    def test_unknown_stage_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="S2X"):
            PassState(_ops(np.float64)).run("S2X", 4)


class TestHaloFootprint:
    """The kernels read their neighbours through the recorded halos, and
    no further out than the widths the exchanges declare (and are
    charged for): 1 leaf box for S2T, 2 boxes for the cousin M2L."""

    @pytest.fixture
    def S(self):
        return _data((8, 512), np.complex128, "contiguous")

    @pytest.fixture
    def single(self, S):
        return BatchedFMM(FmmOperators.create(**BIG)).apply(S)

    @pytest.mark.parametrize("G", [2, 4, 8])
    def test_nan_outside_declared_width_is_never_read(self, G, S, single, monkeypatch):
        def padding(dfmm, issue):
            def padded(stage, ell, *tokens):
                token = issue(stage, ell, *tokens)
                key = _halo_key(stage, ell)
                if key:  # execute mode: the COMM stage's data has just moved
                    left, right = dfmm.state.halo[key]
                    assert left.shape[-2] == right.shape[-2] == (1 if key == "S" else 2)
                    nan = np.full_like(left[..., :1, :], np.nan)
                    dfmm.state.halo[key] = (np.concatenate([nan, left], axis=-2),
                                            np.concatenate([right, nan], axis=-2))
                return token
            return padded

        dfmm, r = _run_distributed(G, S, monkeypatch, padding)
        assert sorted(dfmm.state.halo) == ["M4", "M5", "S"]
        assert all(np.isnan(h).any() for pair in dfmm.state.halo.values() for h in pair)
        assert _rel(dfmm.finalize(), single[0]) < 1e-13
        assert _rel(r, single[1]) < 1e-13

    @pytest.mark.parametrize("what", ["S", "M5", "M4"])
    def test_nan_inside_declared_width_is_read(self, what, S, monkeypatch):
        """Control: the halos are the path, not a by-pass around them."""
        def poisoning(dfmm, issue):
            def poisoned(stage, ell, *tokens):
                token = issue(stage, ell, *tokens)
                if _halo_key(stage, ell) == what:
                    dfmm.state.halo[what][0][..., 0, :] = np.nan  # outermost declared box
                return token
            return poisoned

        dfmm, _ = _run_distributed(4, S, monkeypatch, poisoning)
        assert np.isnan(dfmm.finalize()[1:]).any()


class TestPassState:
    def test_state_exists_before_any_pass(self):
        ops = FmmOperators.create(**BIG, G=2)
        dfmm = DistributedFMM(ops, VirtualCluster(p100_nvlink_node(2), execute=False))
        st = dfmm.state
        assert st.M == st.L == st.halo == {}
        assert st.S is st.T is st.MB is st.r is None
        assert dfmm.run()[1] is None  # timing-only: no r, no error
        assert dfmm.state is st       # and no data path ran

    def test_second_run_starts_clean(self):
        S = _data((8, 512), np.complex128, "contiguous")
        dfmm, r1 = _run_distributed(2, S)
        T1, first = dfmm.finalize(), dfmm.state
        _, r2 = dfmm.run(S)
        assert dfmm.state is not first  # a pass never folds into the previous one's state
        np.testing.assert_array_equal(dfmm.finalize(), T1)
        np.testing.assert_array_equal(r2, r1)

    def test_missing_reduce_is_a_parameter_error(self, monkeypatch):
        def dropping(dfmm, issue):
            return lambda stage, ell, *tokens: (
                None if stage == "REDUCE" else issue(stage, ell, *tokens))

        with pytest.raises(ParameterError, match="REDUCE"):
            _run_distributed(2, _data((8, 512), np.complex128, "contiguous"),
                             monkeypatch, dropping)
